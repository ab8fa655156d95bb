#include "oracle/element_reference.h"

#include <algorithm>

#include "chaos/ttable.h"
#include "hpfrt/dist.h"
#include "parti/dist_array.h"
#include "tulip/collection.h"

namespace mc::core::elementwise {

using layout::Index;

namespace {

/// Calls fn(region, base, from, to) for each region that starts before
/// `hi`: the region's first position is `base`, and its positions
/// [from, to) lie in [lo, hi) (empty when from >= to).
template <typename F>
void forEachRegionWindow(const SetOfRegions& set, Index lo, Index hi, F&& fn) {
  Index base = 0;
  for (const Region& r : set.regions()) {
    if (base >= hi) break;
    const Index n = r.numElements();
    fn(r, base, std::max(lo, base), std::min(hi, base + n));
    base += n;
  }
}

/// Calls fn(lin, point) for the positions of [lo, hi) of a section set, in
/// order: a section the window covers whole is walked row-major, a clipped
/// one by random access.
template <typename F>
void forEachPoint(const SetOfRegions& set, Index lo, Index hi, F&& fn) {
  forEachRegionWindow(set, lo, hi, [&](const Region& r, Index base,
                                       Index from, Index to) {
    const layout::RegularSection& s = r.asSection();
    if (from == base && to == base + s.numElements()) {
      s.forEach([&](const layout::Point& p, Index pos) { fn(base + pos, p); });
      return;
    }
    for (Index lin = from; lin < to; ++lin) fn(lin, s.pointAt(lin - base));
  });
}

}  // namespace

void forEachElement(const DistObject& obj, const SetOfRegions& set, Index lo,
                    Index hi, const ElementFn& fn) {
  const std::string& library = obj.library();
  if (library == "parti") {
    const auto& desc = obj.as<parti::PartiDesc>();
    // Per-processor addressing snapshots: one table lookup per element
    // instead of re-deriving the owned box every time.
    std::vector<parti::PartiAddr> addr;
    addr.reserve(static_cast<size_t>(desc.decomp.nprocs()));
    for (int proc = 0; proc < desc.decomp.nprocs(); ++proc) {
      addr.push_back(desc.addrOf(proc));
    }
    forEachPoint(set, lo, hi, [&](Index lin, const layout::Point& p) {
      const int owner = desc.decomp.ownerOf(p);
      fn(lin, owner, addr[static_cast<size_t>(owner)].offsetOf(p));
    });
  } else if (library == "hpf") {
    const auto& dist = obj.as<hpfrt::HpfDist>();
    forEachPoint(set, lo, hi, [&](Index lin, const layout::Point& p) {
      const int owner = dist.ownerOf(p);
      fn(lin, owner, dist.localOffset(owner, p));
    });
  } else if (library == "chaos") {
    const auto& table = obj.as<chaos::TranslationTable>();
    forEachRegionWindow(set, lo, hi, [&](const Region& r, Index base,
                                         Index from, Index to) {
      const auto& idx = r.asIndices();
      for (Index lin = from; lin < to; ++lin) {
        const chaos::ElementLoc loc =
            table.dereferenceLocal(idx[static_cast<size_t>(lin - base)]);
        fn(lin, loc.proc, loc.offset);
      }
    });
  } else {
    MC_REQUIRE(library == "pc++", "no element reference for library '%s'",
               library.c_str());
    const auto& desc = obj.as<tulip::TulipDesc>();
    forEachRegionWindow(set, lo, hi, [&](const Region& r, Index base,
                                         Index from, Index to) {
      for (Index lin = from; lin < to; ++lin) {
        const Index g = r.asRange().at(lin - base);
        fn(lin, desc.ownerOf(g), desc.localOffsetOf(g));
      }
    });
  }
}

}  // namespace mc::core::elementwise
