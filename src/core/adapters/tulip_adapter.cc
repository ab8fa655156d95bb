#include "core/adapters/tulip_adapter.h"

#include "core/adapters/run_emitter.h"
#include "util/hash.h"

namespace mc::core {

using layout::Index;

void TulipAdapter::validate(const DistObject& obj,
                            const SetOfRegions& set) const {
  const auto& desc = obj.as<tulip::TulipDesc>();
  for (const Region& r : set.regions()) {
    MC_REQUIRE(r.kind() == Region::Kind::kRange,
               "pc++ regions must be element ranges");
    const ElementRange& e = r.asRange();
    if (e.numElements() == 0) continue;
    MC_REQUIRE(e.lo >= 0 && e.hi < desc.size,
               "range [%lld, %lld] exceeds collection size %lld",
               static_cast<long long>(e.lo), static_cast<long long>(e.hi),
               static_cast<long long>(desc.size));
  }
}

void TulipAdapter::enumerateRangeRuns(const DistObject& obj,
                                      const SetOfRegions& set, Index linLo,
                                      Index linHi, const RunFn& fn) const {
  const auto& desc = obj.as<tulip::TulipDesc>();
  RunEmitter emit(fn);
  Index base = 0;
  for (const Region& r : set.regions()) {
    const ElementRange& e = r.asRange();
    const Index n = e.numElements();
    const Index lo = std::max(linLo, base);
    const Index hi = std::min(linHi, base + n);
    Index lin = lo;
    while (lin < hi) {
      const Index g = e.at(lin - base);
      const int owner = desc.ownerOf(g);
      Index take = 1;
      Index offStride = 0;
      if (desc.placement == tulip::Placement::kBlock) {
        const Index block = (desc.size + desc.nprocs - 1) / desc.nprocs;
        const Index blkHi = std::min(desc.size, block * (g / block + 1)) - 1;
        take = std::min(hi - lin, (blkHi - g) / e.stride + 1);
        offStride = e.stride;  // local index is g - block*owner
      } else if (e.stride % desc.nprocs == 0) {
        // CYCLIC: owner fixed across the whole range when the range stride
        // is a multiple of the processor count; local index g/P advances by
        // stride/P.
        take = hi - lin;
        offStride = e.stride / desc.nprocs;
      }
      emit.add(lin, owner, desc.localOffsetOf(g), take, offStride);
      lin += take;
    }
    base += n;
    if (base >= linHi) break;
  }
  emit.flush();
}

std::uint64_t TulipAdapter::localFingerprint(const DistObject& obj) const {
  const auto& desc = obj.as<tulip::TulipDesc>();
  HashStream h;
  h.pod(desc.size);
  h.pod(desc.nprocs);
  h.pod(static_cast<int>(desc.placement));
  return h.digest()[0];
}

std::vector<std::byte> TulipAdapter::serializeDesc(const DistObject& obj,
                                                   transport::Comm&) const {
  std::vector<std::byte> out;
  obj.as<tulip::TulipDesc>().serialize(out);
  return out;
}

DistObject TulipAdapter::deserializeDesc(
    std::span<const std::byte> bytes) const {
  blob::ByteReader r(bytes);
  auto desc = std::make_shared<const tulip::TulipDesc>(
      tulip::TulipDesc::deserialize(r));
  r.requireEnd("pc++ descriptor");
  return DistObject("pc++", std::move(desc));
}

}  // namespace mc::core
