#include "core/adapters/chaos_adapter.h"

#include "core/adapters/run_emitter.h"

namespace mc::core {

using chaos::ElementLoc;
using chaos::TranslationTable;
using layout::Index;

void ChaosAdapter::validate(const DistObject& obj,
                            const SetOfRegions& set) const {
  const auto& table = obj.as<TranslationTable>();
  for (const Region& r : set.regions()) {
    MC_REQUIRE(r.kind() == Region::Kind::kIndices,
               "chaos regions must be index sets");
    for (Index g : r.asIndices()) {
      MC_REQUIRE(g >= 0 && g < table.globalSize(),
                 "index %lld exceeds array size %lld",
                 static_cast<long long>(g),
                 static_cast<long long>(table.globalSize()));
    }
  }
}

bool ChaosAdapter::supportsLocalEnumeration(const DistObject& obj) const {
  return obj.as<TranslationTable>().storage() ==
         TranslationTable::Storage::kReplicated;
}

namespace {

/// Calls fn(lin, global) for positions [linLo, linHi) of an index-list set,
/// in order.
template <typename Fn>
void forEachGlobal(const SetOfRegions& set, Index linLo, Index linHi,
                   Fn&& fn) {
  Index base = 0;
  for (const Region& r : set.regions()) {
    if (base >= linHi) break;
    const auto& idx = r.asIndices();
    const Index n = static_cast<Index>(idx.size());
    const Index lo = std::max(linLo, base);
    const Index hi = std::min(linHi, base + n);
    for (Index lin = lo; lin < hi; ++lin) {
      fn(lin, idx[static_cast<size_t>(lin - base)]);
    }
    base += n;
  }
}

/// The descriptor's table, which local enumeration needs whole.
const TranslationTable& replicatedTable(const DistObject& obj) {
  const auto& table = obj.as<TranslationTable>();
  MC_REQUIRE(table.storage() == TranslationTable::Storage::kReplicated,
             "a distributed translation table cannot be enumerated locally; "
             "use the cooperation method or replicate the table");
  return table;
}

}  // namespace

void ChaosAdapter::enumerateRangeRuns(const DistObject& obj,
                                      const SetOfRegions& set, Index linLo,
                                      Index linHi, const RunFn& fn) const {
  const TranslationTable& table = replicatedTable(obj);
  RunEmitter emit(fn);
  forEachGlobal(set, linLo, linHi, [&](Index lin, Index g) {
    const ElementLoc loc = table.dereferenceLocal(g);
    emit.add(lin, loc.proc, loc.offset, 1, 0);
  });
  emit.flush();
}

void ChaosAdapter::enumerateChunkRuns(const DistObject& obj,
                                      const SetOfRegions& set, Index linLo,
                                      Index linHi, transport::Comm& comm,
                                      const RunFn& fn) const {
  const auto& table = obj.as<TranslationTable>();
  if (table.storage() == TranslationTable::Storage::kReplicated) {
    LibraryAdapter::enumerateChunkRuns(obj, set, linLo, linHi, comm, fn);
    return;
  }
  // A distributed table resolves the chunk's globals in one batched, cached
  // dereference.  The exchange is collective: a rank with an empty chunk
  // still takes part.
  const std::vector<Index> globals = comm.computeValue([&] {
    std::vector<Index> out;
    out.reserve(static_cast<size_t>(std::max<Index>(0, linHi - linLo)));
    forEachGlobal(set, linLo, linHi,
                  [&](Index, Index g) { out.push_back(g); });
    return out;
  });
  const std::vector<ElementLoc> locs = table.dereferenceCached(comm, globals);
  comm.compute([&] {
    RunEmitter emit(fn);
    for (size_t k = 0; k < locs.size(); ++k) {
      emit.add(linLo + static_cast<Index>(k), locs[k].proc, locs[k].offset, 1,
               0);
    }
    emit.flush();
  });
}

double ChaosAdapter::modeledElementDereferenceCost(
    const DistObject& obj) const {
  return obj.as<TranslationTable>().modeledQueryCost();
}

std::uint64_t ChaosAdapter::localFingerprint(const DistObject& obj) const {
  // A distributed table cannot be fingerprinted whole without
  // communication; hashing the local shard is exactly what the cache's
  // collective hit agreement expects (any rank seeing a different shard
  // forces a program-wide miss).
  return obj.as<TranslationTable>().localFingerprint();
}

std::vector<std::byte> ChaosAdapter::serializeDesc(
    const DistObject& obj, transport::Comm& comm) const {
  const auto& table = obj.as<TranslationTable>();
  // Shipping a Chaos descriptor means shipping the whole table — the
  // O(array size) cost that makes inter-program duplication impractical.
  return TranslationTable::replicatedFromEntries(
             table.gatherFull(comm), comm.size(), table.modeledQueryCost())
      .serialize();
}

DistObject ChaosAdapter::deserializeDesc(
    std::span<const std::byte> bytes) const {
  auto table = std::make_shared<const TranslationTable>(
      TranslationTable::deserialize(bytes));
  MC_REQUIRE(table->storage() == TranslationTable::Storage::kReplicated,
             "a shipped chaos descriptor must carry a replicated table");
  return DistObject("chaos", std::move(table));
}

}  // namespace mc::core
