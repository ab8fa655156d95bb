// Destination footprints for split-phase schedule execution.
//
// A schedule run mutates only part of its destination buffer: the offsets
// its receive plans unpack into and the offsets its local transfers write.
// Everything else is *untouched* — a caller that starts a split-phase run
// (Executor::start) may freely read and write untouched offsets while the
// exchange is in flight, which is what lets a time-step loop compute its
// interior points under the ghost traffic.
//
// Footprint::of classifies a schedule's offsets once (the inspector side of
// the overlap: schedules are built once and executed many times, so the
// classification amortizes like the schedule itself):
//
//   remote    dst offsets written by unpacking received messages
//   localDst  dst offsets written by local transfers (applied at finish)
//   localSrc  src offsets *read* by local transfers at finish — a caller
//             overlapping an aliased schedule (src == dst, e.g. ghost
//             fills) must not overwrite these before finish()
//   dstTouched = remote ∪ localDst
//
// The safety contract for code running between start() and finish():
//   * do not READ any dstTouched offset of dst (its value is stale until
//     finish), and
//   * do not WRITE any dstTouched offset of dst (finish would clobber the
//     write — or race with an early poll() unpack), and
//   * do not WRITE any localSrc offset of src (finish reads it).
// Offsets outside those sets are free.  The sets are exact, including
// strided and descending runs — never an over-approximation — so the
// "interior" a caller may compute early is as large as the schedule allows.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "sched/schedule.h"

namespace mc::sched {

/// An immutable set of element offsets stored as sorted, disjoint,
/// half-open intervals [lo, hi).  Queries are O(log intervals).
class IndexSet {
 public:
  struct Interval {
    layout::Index lo = 0;  // inclusive
    layout::Index hi = 0;  // exclusive
    bool operator==(const Interval&) const = default;
  };

  IndexSet() = default;

  /// Builds the set from an arbitrary (unsorted, possibly duplicated)
  /// offset list plus already-intervalized pieces.
  static IndexSet fromParts(std::vector<layout::Index> offsets,
                            std::vector<Interval> intervals) {
    std::sort(offsets.begin(), offsets.end());
    for (const layout::Index off : offsets) {
      intervals.push_back(Interval{off, off + 1});
    }
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
              });
    IndexSet out;
    for (const Interval& iv : intervals) {
      if (iv.lo >= iv.hi) continue;  // empty
      if (!out.intervals_.empty() && iv.lo <= out.intervals_.back().hi) {
        out.intervals_.back().hi = std::max(out.intervals_.back().hi, iv.hi);
      } else {
        out.intervals_.push_back(iv);
      }
    }
    for (const Interval& iv : out.intervals_) out.count_ += iv.hi - iv.lo;
    return out;
  }

  /// Union of two sets.
  static IndexSet unionOf(const IndexSet& a, const IndexSet& b) {
    std::vector<Interval> merged = a.intervals_;
    merged.insert(merged.end(), b.intervals_.begin(), b.intervals_.end());
    return fromParts({}, std::move(merged));
  }

  bool empty() const { return intervals_.empty(); }
  /// Number of distinct offsets in the set.
  layout::Index count() const { return count_; }
  const std::vector<Interval>& intervals() const { return intervals_; }

  bool contains(layout::Index off) const {
    const Interval* iv = firstEndingAfter(off);
    return iv != nullptr && iv->lo <= off;
  }

  /// True when any offset in [lo, hi) is in the set.
  bool overlaps(layout::Index lo, layout::Index hi) const {
    if (lo >= hi) return false;
    const Interval* iv = firstEndingAfter(lo);
    return iv != nullptr && iv->lo < hi;
  }

  /// Calls fn(offset) for every member offset in [lo, hi), ascending.
  template <typename F>
  void forEachIn(layout::Index lo, layout::Index hi, F&& fn) const {
    auto it = std::upper_bound(
        intervals_.begin(), intervals_.end(), lo,
        [](layout::Index v, const Interval& iv) { return v < iv.hi; });
    for (; it != intervals_.end() && it->lo < hi; ++it) {
      const layout::Index from = std::max(it->lo, lo);
      const layout::Index to = std::min(it->hi, hi);
      for (layout::Index off = from; off < to; ++off) fn(off);
    }
  }

  /// Calls fn(offset) for every member offset, ascending.
  template <typename F>
  void forEach(F&& fn) const {
    for (const Interval& iv : intervals_) {
      for (layout::Index off = iv.lo; off < iv.hi; ++off) fn(off);
    }
  }

 private:
  /// The first interval with hi > off (candidate container of off), or
  /// nullptr when every interval ends at or before off.
  const Interval* firstEndingAfter(layout::Index off) const {
    const auto it = std::upper_bound(
        intervals_.begin(), intervals_.end(), off,
        [](layout::Index v, const Interval& iv) { return v < iv.hi; });
    return it == intervals_.end() ? nullptr : &*it;
  }

  std::vector<Interval> intervals_;  // sorted, disjoint, non-empty
  layout::Index count_ = 0;
};

/// The classification of one schedule's touched offsets (see file comment).
struct Footprint {
  IndexSet remote;      ///< dst offsets unpacked from received messages
  IndexSet localDst;    ///< dst offsets written by local transfers
  IndexSet localSrc;    ///< src offsets read by local transfers at finish
  IndexSet dstTouched;  ///< remote ∪ localDst

  static Footprint of(const Schedule& sched) {
    Footprint fp;
    fp.remote = offsetsOfPlans(sched.recvs);
    std::vector<layout::Index> srcOffs, dstOffs;
    std::vector<IndexSet::Interval> srcIvs, dstIvs;
    for (const LocalRun& run : sched.localRuns) {
      appendRun(run.src, run.count, run.srcStride, srcOffs, srcIvs);
      appendRun(run.dst, run.count, run.dstStride, dstOffs, dstIvs);
    }
    fp.localSrc = IndexSet::fromParts(std::move(srcOffs), std::move(srcIvs));
    fp.localDst = IndexSet::fromParts(std::move(dstOffs), std::move(dstIvs));
    fp.dstTouched = IndexSet::unionOf(fp.remote, fp.localDst);
    return fp;
  }

 private:
  /// Exact offsets of an arithmetic run: contiguous runs become one
  /// interval, strided / descending / repeated ones enumerate.
  static void appendRun(layout::Index start, layout::Index count,
                        layout::Index stride,
                        std::vector<layout::Index>& offsets,
                        std::vector<IndexSet::Interval>& intervals) {
    if (count <= 0) return;
    if (stride == 1) {
      intervals.push_back(IndexSet::Interval{start, start + count});
    } else if (stride == 0 || count == 1) {
      offsets.push_back(start);
    } else {
      for (layout::Index k = 0; k < count; ++k) {
        offsets.push_back(start + k * stride);
      }
    }
  }

  static IndexSet offsetsOfPlans(const std::vector<OffsetPlan>& plans) {
    std::vector<layout::Index> offsets;
    std::vector<IndexSet::Interval> intervals;
    for (const OffsetPlan& plan : plans) {
      for (const OffsetRun& run : plan.runs) {
        appendRun(run.start, run.count, run.stride, offsets, intervals);
      }
    }
    return IndexSet::fromParts(std::move(offsets), std::move(intervals));
  }
};

}  // namespace mc::sched
