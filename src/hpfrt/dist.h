// HPF-style data distributions.
//
// The High Performance Fortran runtime distributes each array dimension
// independently over a processor grid with one of the standard HPF
// patterns: BLOCK, CYCLIC, or CYCLIC(k) (block-cyclic).  A dimension mapped
// to a grid extent of 1 behaves like HPF's "*" (not distributed).
//
// Ownership and local addressing are closed-form in all three patterns —
// the inquiry functions Meta-Chaos needs are O(1) per element, with no
// translation table (contrast with Chaos).  Local storage is row-major over
// the per-dimension local index spaces, the standard HPF layout.
#pragma once

#include <vector>

#include "layout/index.h"
#include "layout/section.h"
#include "util/blob_io.h"

namespace mc::hpfrt {

enum class DistKind {
  kBlock,        ///< BLOCK: contiguous chunks of ceil(N/P)
  kCyclic,       ///< CYCLIC: round-robin single elements
  kBlockCyclic,  ///< CYCLIC(k): round-robin blocks of k
};

/// Distribution of one dimension.
struct DimDist {
  DistKind kind = DistKind::kBlock;
  int procs = 1;               ///< grid extent along this dimension
  layout::Index param = 1;     ///< block size for kBlockCyclic
};

class HpfDist {
 public:
  HpfDist(layout::Shape global, std::vector<DimDist> dims);

  /// BLOCK in every dimension over a near-square grid (the common default).
  static HpfDist blockEveryDim(layout::Shape global, int nprocs);

  /// Appends the distribution's wire form to `out`: the global shape, then
  /// per dimension its kind, grid extent and block parameter, one u64 per
  /// field.  The one codec for shipping a distribution to another program
  /// and for snapshot blobs.
  void serialize(std::vector<std::byte>& out) const;
  /// Reads a distribution written by serialize().  The bytes may come from
  /// another program or a file, so every field is validated before anything
  /// is built: rank in [1, kMaxRank], extents >= 0, a known DistKind, grid
  /// extents >= 1 with a product that fits in int, block parameter >= 1.
  /// Malformed input throws mc::Error.
  static HpfDist deserialize(blob::ByteReader& r);

  const layout::Shape& globalShape() const { return global_; }
  int rank() const { return global_.rank; }
  int nprocs() const { return nprocs_; }
  const std::vector<DimDist>& dims() const { return dims_; }

  std::vector<int> procCoord(int proc) const;
  int procAt(const std::vector<int>& coord) const;

  int ownerInDim(int d, layout::Index g) const;
  layout::Index localIndexInDim(int d, layout::Index g) const;
  layout::Index localCountInDim(int d, int gridCoord) const;
  layout::Index globalFromLocal(int d, int gridCoord, layout::Index li) const;

  int ownerOf(const layout::Point& p) const;
  layout::Shape localShape(int proc) const;
  /// Row-major offset of owned point `p` in `proc`'s local storage.
  layout::Index localOffset(int proc, const layout::Point& p) const;

  /// Calls fn(globalPoint, localOffset) for every element `proc` owns, in
  /// local storage order.
  template <typename F>
  void forEachOwned(int proc, F&& fn) const {
    const layout::Shape local = localShape(proc);
    const std::vector<int> coord = procCoord(proc);
    if (local.numElements() == 0) return;
    layout::Point li;
    li.rank = local.rank;
    for (int d = 0; d < local.rank; ++d) li[d] = 0;
    layout::Index off = 0;
    for (;;) {
      layout::Point g;
      g.rank = local.rank;
      for (int d = 0; d < local.rank; ++d) {
        g[d] = globalFromLocal(d, coord[static_cast<size_t>(d)], li[d]);
      }
      fn(g, off);
      ++off;
      int d = local.rank - 1;
      for (; d >= 0; --d) {
        if (++li[d] < local[d]) break;
        li[d] = 0;
      }
      if (d < 0) return;
    }
  }

 private:
  layout::Shape global_;
  std::vector<DimDist> dims_;
  int nprocs_ = 1;
};

}  // namespace mc::hpfrt
