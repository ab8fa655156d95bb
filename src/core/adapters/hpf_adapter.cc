#include "core/adapters/hpf_adapter.h"

#include "core/adapters/run_emitter.h"
#include "util/hash.h"

namespace mc::core {

using layout::Index;

void HpfAdapter::validate(const DistObject& obj,
                          const SetOfRegions& set) const {
  const auto& dist = obj.as<hpfrt::HpfDist>();
  const layout::Shape& shape = dist.globalShape();
  for (const Region& r : set.regions()) {
    MC_REQUIRE(r.kind() == Region::Kind::kSection,
               "hpf regions must be array sections");
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

void HpfAdapter::enumerateRangeRuns(const DistObject& obj,
                                    const SetOfRegions& set, Index linLo,
                                    Index linHi, const RunFn& fn) const {
  const auto& dist = obj.as<hpfrt::HpfDist>();
  // Owners change along a section row only at last-dimension distribution
  // boundaries; local storage is row-major, so within one owner segment the
  // local offset advances by the last-dimension local-index step.
  const int L = dist.rank() - 1;
  const hpfrt::DimDist& dd = dist.dims()[static_cast<size_t>(L)];
  const Index extL = dist.globalShape()[L];
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
      while (lin < rowEnd) {
        const int owner = dist.ownerOf(p);
        const Index g = p[L];
        Index take = 1;
        Index offStride = 0;
        switch (dd.kind) {
          case hpfrt::DistKind::kBlock: {
            const Index block = (extL + dd.procs - 1) / dd.procs;
            const Index blkHi = std::min(extL, block * (g / block + 1)) - 1;
            take = std::min(rowEnd - lin, (blkHi - g) / stL + 1);
            offStride = stL;  // local index is g - block*coord
            break;
          }
          case hpfrt::DistKind::kCyclic:
            // Same owner every stride steps only when the stride is a
            // multiple of the grid extent; the local index g/P then
            // advances by exactly stride/P.
            if (stL % dd.procs == 0) {
              take = rowEnd - lin;
              offStride = stL / dd.procs;
            }
            break;
          case hpfrt::DistKind::kBlockCyclic: {
            const Index k = dd.param;
            take = std::min(rowEnd - lin, (k - 1 - g % k) / stL + 1);
            offStride = stL;  // within one k-block, local index moves by g%k
            break;
          }
        }
        emit.add(lin, owner, dist.localOffset(owner, p), take, offStride);
        lin += take;
        p[L] += take * stL;
      }
    }
    base += n;
    if (base >= linHi) break;
  }
  emit.flush();
}

std::uint64_t HpfAdapter::localFingerprint(const DistObject& obj) const {
  const auto& dist = obj.as<hpfrt::HpfDist>();
  const layout::Shape& shape = dist.globalShape();
  HashStream h;
  h.pod(shape.rank);
  for (int d = 0; d < shape.rank; ++d) h.pod(shape[d]);
  for (const hpfrt::DimDist& dd : dist.dims()) {
    h.pod(static_cast<int>(dd.kind));
    h.pod(dd.procs);
    h.pod(dd.param);
  }
  return h.digest()[0];
}

std::vector<std::byte> HpfAdapter::serializeDesc(const DistObject& obj,
                                                 transport::Comm&) const {
  std::vector<std::byte> out;
  obj.as<hpfrt::HpfDist>().serialize(out);
  return out;
}

DistObject HpfAdapter::deserializeDesc(
    std::span<const std::byte> bytes) const {
  blob::ByteReader r(bytes);
  auto desc =
      std::make_shared<const hpfrt::HpfDist>(hpfrt::HpfDist::deserialize(r));
  r.requireEnd("hpf descriptor");
  return DistObject("hpf", std::move(desc));
}

}  // namespace mc::core
