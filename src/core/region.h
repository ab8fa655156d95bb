// Regions and SetOfRegions — the data-specification layer of Meta-Chaos
// (paper Section 4.1.1).
//
// Each data parallel library defines its own Region type:
//   * regular libraries (HPF, Multiblock Parti): a regularly strided array
//     section (SectionRegion);
//   * Chaos: a set of global array indices (IndexRegion);
//   * pC++/Tulip: a range of collection elements (RangeRegion).
//
// Regions are gathered into an ordered SetOfRegions.  The linearization of a
// Region is library-defined (row-major for sections, list order for index
// sets, ascending for ranges); the linearization of a SetOfRegions is the
// concatenation of its Regions' linearizations (Section 4.1.2).  The
// linearization is *virtual*: nothing here materializes it — it exists only
// as the ordering the schedule builders enumerate.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "layout/section.h"
#include "util/hash.h"

namespace mc::core {

/// A contiguous strided range of collection elements, lo..hi inclusive.
struct ElementRange {
  layout::Index lo = 0;
  layout::Index hi = -1;  // inclusive
  layout::Index stride = 1;
  layout::Index numElements() const {
    return hi < lo ? 0 : (hi - lo) / stride + 1;
  }
  layout::Index at(layout::Index k) const { return lo + k * stride; }
};

class Region {
 public:
  enum class Kind { kSection, kIndices, kRange };

  /// Region of a regular library: an array section.
  static Region section(layout::RegularSection s);
  /// Region of an irregular library: explicit global indices, in
  /// linearization order.
  static Region indices(std::vector<layout::Index> idx);
  /// Region of a collection library: an element range (hi inclusive).
  static Region range(layout::Index lo, layout::Index hi,
                      layout::Index stride = 1);

  Kind kind() const { return kind_; }
  layout::Index numElements() const;

  const layout::RegularSection& asSection() const;
  const std::vector<layout::Index>& asIndices() const;
  const ElementRange& asRange() const;
  /// Digest of an index region's list, computed once by indices(): the
  /// list never changes afterwards, so schedule-cache keys feed this
  /// instead of re-hashing the list on every lookup.
  const HashStream::Digest& indicesDigest() const;

 private:
  Kind kind_ = Kind::kSection;
  layout::RegularSection section_{};
  std::vector<layout::Index> indices_;
  HashStream::Digest indicesDigest_{};
  ElementRange range_{};
};

/// An ordered collection of Regions of one kind.
class SetOfRegions {
 public:
  SetOfRegions() = default;
  explicit SetOfRegions(Region r) { add(std::move(r)); }

  /// Appends a region; all regions of a set must share one kind (they
  /// describe data held by a single library).
  void add(Region r);

  bool empty() const { return regions_.empty(); }
  const std::vector<Region>& regions() const { return regions_; }
  layout::Index numElements() const;

  /// The region kind; set must be non-empty.
  Region::Kind kind() const;

 private:
  std::vector<Region> regions_;
};

/// Wire format for shipping sets between programs (used by the
/// inter-program duplication method): the region count, then per region
/// its kind and fields, every field one u64; an index list is a count plus
/// raw Indexes.
std::vector<std::byte> serializeSet(const SetOfRegions& set);
/// Inverse of serializeSet.  The bytes come from another program: unknown
/// region kinds, strides <= 0 and bounds whose element count overflows
/// Index (per dimension, per section or summed over the set) throw
/// mc::Error, so numElements() of a decoded set is always defined.
SetOfRegions deserializeSet(std::span<const std::byte> bytes);

}  // namespace mc::core
