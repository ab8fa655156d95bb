#include "core/adapters/parti_adapter.h"

#include "core/adapters/run_emitter.h"
#include "util/hash.h"

namespace mc::core {

using layout::Index;

void PartiAdapter::validate(const DistObject& obj,
                            const SetOfRegions& set) const {
  const auto& desc = obj.as<parti::PartiDesc>();
  const layout::Shape& shape = desc.decomp.globalShape();
  for (const Region& r : set.regions()) {
    MC_REQUIRE(r.kind() == Region::Kind::kSection,
               "parti regions must be array sections");
    const layout::RegularSection& s = r.asSection();
    MC_REQUIRE(s.rank == shape.rank, "section rank %d != array rank %d",
               s.rank, shape.rank);
    if (s.empty()) continue;
    for (int d = 0; d < s.rank; ++d) {
      const auto dd = static_cast<size_t>(d);
      MC_REQUIRE(s.lo[dd] >= 0 && s.hi[dd] < shape[d],
                 "section exceeds array bounds in dimension %d", d);
    }
  }
}

void PartiAdapter::enumerateRangeRuns(const DistObject& obj,
                                      const SetOfRegions& set, Index linLo,
                                      Index linHi, const RunFn& fn) const {
  const auto& desc = obj.as<parti::PartiDesc>();
  const layout::BlockDecomp& dec = desc.decomp;
  // Owners change along a section row only at last-dimension block
  // boundaries, and local offsets advance by the section stride there (the
  // padded storage is row-major, last dimension innermost) — so each row
  // yields one run per owner block instead of one callback per element.
  // rowAddr[j] is the addressing snapshot of a row's j-th owner block; the
  // rows of one block row meet the same owners, so it is rebuilt only when
  // the owner differs.  Nothing is sized by the processor count, which a
  // descriptor from another program may overstate.
  std::vector<std::pair<int, parti::PartiAddr>> rowAddr;
  const int L = dec.rank() - 1;
  const Index extL = dec.globalShape()[L];
  const Index blockL =
      (extL + dec.grid()[static_cast<size_t>(L)] - 1) /
      dec.grid()[static_cast<size_t>(L)];
  RunEmitter emit(fn);
  Index base = 0;
  for (const Region& r : set.regions()) {
    const layout::RegularSection& s = r.asSection();
    const Index n = s.numElements();
    const Index lo = std::max(linLo, base);
    const Index hi = std::min(linHi, base + n);
    const Index cntL = s.count(L);
    const Index stL = s.stride[static_cast<size_t>(L)];
    Index lin = lo;
    while (lin < hi) {
      const Index rel = lin - base;
      layout::Point p = s.pointAt(rel);
      const Index rowEnd = std::min(hi, lin + (cntL - rel % cntL));
      for (size_t j = 0; lin < rowEnd; ++j) {
        const int owner = dec.ownerOf(p);
        if (j == rowAddr.size()) {
          rowAddr.emplace_back(owner, desc.addrOf(owner));
        } else if (rowAddr[j].first != owner) {
          rowAddr[j] = {owner, desc.addrOf(owner)};
        }
        const Index blkHi = std::min(extL, blockL * (p[L] / blockL + 1)) - 1;
        const Index take = std::min(rowEnd - lin, (blkHi - p[L]) / stL + 1);
        emit.add(lin, owner, rowAddr[j].second.offsetOf(p), take, stL);
        lin += take;
        p[L] += take * stL;
      }
    }
    base += n;
    if (base >= linHi) break;
  }
  emit.flush();
}

std::uint64_t PartiAdapter::localFingerprint(const DistObject& obj) const {
  const auto& desc = obj.as<parti::PartiDesc>();
  const layout::Shape& shape = desc.decomp.globalShape();
  HashStream h;
  h.pod(shape.rank);
  for (int d = 0; d < shape.rank; ++d) h.pod(shape[d]);
  for (int g : desc.decomp.grid()) h.pod(g);
  h.pod(desc.ghost);
  return h.digest()[0];
}

std::vector<std::byte> PartiAdapter::serializeDesc(const DistObject& obj,
                                                   transport::Comm&) const {
  std::vector<std::byte> out;
  obj.as<parti::PartiDesc>().serialize(out);
  return out;
}

DistObject PartiAdapter::deserializeDesc(
    std::span<const std::byte> bytes) const {
  blob::ByteReader r(bytes);
  auto desc = std::make_shared<const parti::PartiDesc>(
      parti::PartiDesc::deserialize(r));
  r.requireEnd("parti descriptor");
  return DistObject("parti", std::move(desc));
}

}  // namespace mc::core
