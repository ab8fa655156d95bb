// DistDelta — the migrated-interval description of a repartitioning.
//
// When a distribution changes incrementally (RCB rebalance after load
// drift, block boundary shift, chaos::remap, client grow/shrink), the set
// of linearization positions whose (owner, local offset) mapping changed
// is usually small.  A DistDelta records exactly those positions as sorted
// disjoint half-open intervals over the linearization of a SetOfRegions.
//
// Contract: outside the delta's intervals, BOTH sides' (owner, offset)
// mappings are unchanged between the old and new distribution.  Inside
// them, anything may have changed.  Over-approximation is safe — marking
// an unchanged position as migrated only makes the patch rebuild an
// identical segment (the schedule builders' greedy run coalescing is
// cut-invariant), never changes the result.
#pragma once

#include <cstdint>
#include <vector>

#include "layout/section.h"
#include "util/hash.h"

namespace mc::layout {

/// A half-open interval [lo, hi) of linearization positions.
struct LinInterval {
  Index lo = 0;
  Index hi = 0;
  bool operator==(const LinInterval&) const = default;
};

class DistDelta {
 public:
  /// Marks [lo, hi) migrated.  Empty or inverted intervals are ignored.
  void add(Index lo, Index hi);

  /// Marks `count` positions starting at `lin` with the given stride
  /// migrated (stride 0 or 1 marks the contiguous block).
  void addRun(Index lin, Index count, Index stride = 1);

  /// Folds another delta in (set union).
  void unionWith(const DistDelta& other);

  /// Sorted disjoint maximal intervals (normalizes lazily).
  const std::vector<LinInterval>& intervals() const;

  bool empty() const { return intervals().empty(); }

  /// Total number of migrated positions.
  Index migratedElements() const;

  /// True when `pos` lies inside a migrated interval.
  bool contains(Index pos) const;

 private:
  void ensureNormalized() const;

  mutable std::vector<LinInterval> iv_;
  mutable bool dirty_ = false;
};

}  // namespace mc::layout
