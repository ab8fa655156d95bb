#include "core/adapters/chaos_adapter.h"

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

void ChaosAdapter::enumerateAll(
    const DistObject& obj, const SetOfRegions& set,
    const std::function<void(Index, int, Index)>& fn) const {
  const auto& table = obj.as<TranslationTable>();
  MC_REQUIRE(table.storage() == TranslationTable::Storage::kReplicated,
             "a distributed translation table cannot be enumerated locally; "
             "use the cooperation method or replicate the table");
  Index base = 0;
  for (const Region& r : set.regions()) {
    const auto& idx = r.asIndices();
    for (size_t k = 0; k < idx.size(); ++k) {
      const ElementLoc loc = table.dereferenceLocal(idx[k]);
      fn(base + static_cast<Index>(k), loc.proc, loc.offset);
    }
    base += static_cast<Index>(idx.size());
  }
}

void ChaosAdapter::enumerateRange(
    const DistObject& obj, const SetOfRegions& set, Index linLo, Index linHi,
    const std::function<void(Index, int, Index)>& fn) const {
  const auto& table = obj.as<TranslationTable>();
  MC_REQUIRE(table.storage() == TranslationTable::Storage::kReplicated,
             "a distributed translation table cannot be enumerated locally");
  Index base = 0;
  for (const Region& r : set.regions()) {
    const auto& idx = r.asIndices();
    const Index n = static_cast<Index>(idx.size());
    const Index lo = std::max(linLo, base);
    const Index hi = std::min(linHi, base + n);
    for (Index lin = lo; lin < hi; ++lin) {
      const ElementLoc loc =
          table.dereferenceLocal(idx[static_cast<size_t>(lin - base)]);
      fn(lin, loc.proc, loc.offset);
    }
    base += n;
    if (base >= linHi) break;
  }
}

std::vector<LinLoc> ChaosAdapter::enumerateOwned(const DistObject& obj,
                                                 const SetOfRegions& set,
                                                 transport::Comm& comm) const {
  const auto& table = obj.as<TranslationTable>();
  const int np = comm.size();
  const int me = comm.rank();
  const Index n = set.numElements();
  // Each processor dereferences a contiguous slice of the linearization —
  // this is how the cooperation method spreads the dereference cost over
  // the program's processors.
  const Index chunk = np > 0 ? (n + np - 1) / np : n;
  const Index lo = chunk * me;
  const Index hi = std::min(n, lo + chunk);

  std::vector<Index> sliceGlobals;
  sliceGlobals.reserve(static_cast<size_t>(std::max<Index>(0, hi - lo)));
  Index base = 0;
  for (const Region& r : set.regions()) {
    const auto& idx = r.asIndices();
    const Index rn = static_cast<Index>(idx.size());
    const Index rLo = std::max(lo, base);
    const Index rHi = std::min(hi, base + rn);
    for (Index p = rLo; p < rHi; ++p) {
      sliceGlobals.push_back(idx[static_cast<size_t>(p - base)]);
    }
    base += rn;
  }

  // The slice resolves through the batched per-rank dereference cache.
  const std::vector<ElementLoc> locs =
      table.dereferenceCached(comm, sliceGlobals);

  // Route (lin, offset) to each element's owner.
  struct Rec {
    Index lin;
    Index offset;
  };
  std::vector<std::vector<Rec>> toOwner(static_cast<size_t>(np));
  for (size_t k = 0; k < locs.size(); ++k) {
    toOwner[static_cast<size_t>(locs[k].proc)].push_back(
        Rec{lo + static_cast<Index>(k), locs[k].offset});
  }
  auto rows = comm.alltoall(toOwner);
  std::vector<LinLoc> out;
  // Slices are position-ordered, so concatenating rows in sender order
  // yields... records from sender s cover slice s; within a slice they are
  // ascending.  Senders are visited 0..np-1, and slice s's positions all
  // precede slice s+1's, so the concatenation is globally sorted by lin.
  for (const auto& row : rows) {
    for (const Rec& rec : row) out.push_back(LinLoc{rec.lin, rec.offset});
  }
  return out;
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
