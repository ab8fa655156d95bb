// Regular array sections (Fortran-90 style triplets).
//
// A RegularSection is the Region type of the "regular" libraries in the
// paper (HPF and Multiblock Parti): per dimension an inclusive lower bound,
// inclusive upper bound and positive stride, exactly the
// `lo:hi:stride` triplet of the paper's CreateRegion_HPF example.  Its
// linearization is row-major order over the section's index tuples
// (Section 4.1.2 of the paper: "the row major ordering of the elements of
// the regular section").
#pragma once

#include <vector>

#include "layout/index.h"

namespace mc::layout {

struct RegularSection {
  int rank = 0;
  std::array<Index, kMaxRank> lo{};
  std::array<Index, kMaxRank> hi{};      // inclusive
  std::array<Index, kMaxRank> stride{};  // > 0

  /// Builds lo:hi:stride per dimension; hi is inclusive.
  static RegularSection of(std::initializer_list<Index> lo,
                           std::initializer_list<Index> hi,
                           std::initializer_list<Index> stride);
  /// Stride-1 section.
  static RegularSection box(std::initializer_list<Index> lo,
                            std::initializer_list<Index> hi);
  /// The whole array of shape `s`.
  static RegularSection all(const Shape& s);

  Index count(int d) const {
    const Index lo_ = lo[static_cast<size_t>(d)];
    const Index hi_ = hi[static_cast<size_t>(d)];
    const Index st = stride[static_cast<size_t>(d)];
    return hi_ < lo_ ? 0 : (hi_ - lo_) / st + 1;
  }
  Index numElements() const {
    Index n = 1;
    for (int d = 0; d < rank; ++d) n *= count(d);
    return n;
  }
  bool empty() const { return numElements() == 0; }

  bool contains(const Point& p) const {
    if (p.rank != rank) return false;
    for (int d = 0; d < rank; ++d) {
      const auto dd = static_cast<size_t>(d);
      if (p[d] < lo[dd] || p[d] > hi[dd]) return false;
      if ((p[d] - lo[dd]) % stride[dd] != 0) return false;
    }
    return true;
  }

  /// The k-th index tuple of the section in linearization (row-major) order.
  Point pointAt(Index k) const;

  /// Linearization position of `p` (which must be contained).
  Index positionOf(const Point& p) const;

  /// Section restricted to the axis-aligned box [boxLo, boxHi] (inclusive).
  /// The result keeps this section's strides and global alignment, so its
  /// elements are exactly the contained elements that fall in the box.
  RegularSection clampToBox(const Point& boxLo, const Point& boxHi) const;

  /// Calls fn(point, linearPosition) for every element in row-major order.
  template <typename F>
  void forEach(F&& fn) const {
    if (empty()) return;
    Point p;
    p.rank = rank;
    for (int d = 0; d < rank; ++d) p[d] = lo[static_cast<size_t>(d)];
    Index pos = 0;
    for (;;) {
      fn(p, pos);
      ++pos;
      int d = rank - 1;
      for (; d >= 0; --d) {
        const auto dd = static_cast<size_t>(d);
        p[d] += stride[dd];
        if (p[d] <= hi[dd]) break;
        p[d] = lo[dd];
      }
      if (d < 0) return;
    }
  }

  /// Calls fn(first, count) for every last-dimension row in row-major
  /// order: the row's points are first, first + s, ..., first + (count-1)*s
  /// along the last dimension, s = stride[rank-1].  Expanding the rows
  /// visits exactly forEach's points, in forEach's order.
  template <typename F>
  void forEachRow(F&& fn) const {
    MC_REQUIRE(rank >= 1, "a section of rank %d has no rows", rank);
    if (empty()) return;
    const int last = rank - 1;
    const Index n = count(last);
    Point p;
    p.rank = rank;
    for (int d = 0; d < rank; ++d) p[d] = lo[static_cast<size_t>(d)];
    for (;;) {
      fn(p, n);
      int d = last - 1;
      for (; d >= 0; --d) {
        const auto dd = static_cast<size_t>(d);
        p[d] += stride[dd];
        if (p[d] <= hi[dd]) break;
        p[d] = lo[dd];
      }
      if (d < 0) return;
    }
  }

  bool operator==(const RegularSection& o) const;
};

/// Intersection of two stride-1 boxes (both strides must be 1); the result
/// may be empty.  Used by the regular libraries' box-calculus schedule
/// builders.
RegularSection intersectBoxes(const RegularSection& a, const RegularSection& b);

/// `box` grown by `width` cells on every face, clipped to `domain`.
RegularSection expandBox(const RegularSection& box, Index width,
                         const Shape& domain);

}  // namespace mc::layout
