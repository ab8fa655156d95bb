// Run-compressed offset plans.
//
// Schedule offset lists produced from regular sections are dominated by long
// arithmetic progressions (whole section rows).  A plan therefore stores its
// element sequence as (start, count, stride) runs.  Every run list in the
// system (plan lanes, local transfers, adapter ownership streams, the
// builder's marching orders and provenance) grows through one canonical
// greedy, appendRun, which makes a list a pure function of its element
// sequence (compressOffsets of the element-wise list).  The
// pack/unpack/local-copy helpers here execute stride-1 runs with one
// memcpy/memmove per run and other strides with a tight strided loop.  Runs
// are exact: expanding them reproduces the element list, including repeated
// offsets (stride-0 runs — a source element fanned out to several
// destinations) and descending progressions (negative strides).
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "layout/index.h"

namespace mc::sched {

/// How appendRun reads a run type.  Each run type declares one as
/// `static constexpr RunShape<Run, N> kShape`: its N (start, stride)
/// progressions, the linearization position an element must continue (if
/// any) and the owner it must match (if any).  A run type also has an
/// Index `count`.
template <typename Run, std::size_t N>
struct RunShape {
  struct Progression {
    layout::Index Run::*start;
    layout::Index Run::*stride;
  };
  std::array<Progression, N> progressions;
  layout::Index Run::*lin = nullptr;
  layout::Index Run::*owner = nullptr;
};

/// The canonical greedy: appends `run` to `lane` exactly as appending its
/// elements one at a time would.  An element extends the tail when the
/// owners match, its position continues the tail's and every progression
/// continues; a count-1 tail takes its strides from the next element, and
/// a singleton carries zero strides.  So a lane is a pure function of its
/// element sequence however that sequence is cut into runs — the rule that
/// keeps run-native, patched and element-wise builds bit-identical.
/// Elements are absorbed one at a time only across seams, so the cost is
/// O(1) amortized.  `Lane` is a std::vector of runs, or any type with its
/// value_type, empty, back and push_back.  Always inlined: callers append
/// one element at a time in their hottest loops, where an out-of-line call
/// costs as much as the greedy itself (the per-element RunEmitter ran at
/// half speed without it).
template <typename Lane>
[[gnu::always_inline]] inline void appendRun(Lane& lane,
                                             typename Lane::value_type run) {
  using Run = typename Lane::value_type;
  constexpr const auto& shape = Run::kShape;
  const auto all = [&](auto pred) {
    return std::all_of(shape.progressions.begin(), shape.progressions.end(),
                       pred);
  };
  if (run.count <= 0) return;
  while (!lane.empty()) {
    Run& tail = lane.back();
    if constexpr (shape.owner != nullptr) {
      if (run.*shape.owner != tail.*shape.owner) break;
    }
    if constexpr (shape.lin != nullptr) {
      if (run.*shape.lin != tail.*shape.lin + tail.count) break;
    }
    const auto continues = [&](const auto& p) {
      return run.*p.start == tail.*p.start + tail.count * tail.*p.stride;
    };
    const auto sameStride = [&](const auto& p) {
      return run.*p.stride == tail.*p.stride;
    };
    if (tail.count == 1) {
      for (const auto& p : shape.progressions) {
        tail.*p.stride = run.*p.start - tail.*p.start;
      }
    } else if (!all(continues)) {
      break;
    } else if (run.count == 1 || all(sameStride)) {
      tail.count += run.count;
      return;
    }
    // The tail takes the run's first element; the rest tries again.
    ++tail.count;
    if (--run.count == 0) return;
    if constexpr (shape.lin != nullptr) ++(run.*shape.lin);
    for (const auto& p : shape.progressions) run.*p.start += run.*p.stride;
  }
  if (run.count == 1) {
    for (const auto& p : shape.progressions) run.*p.stride = 0;
  }
  lane.push_back(run);
}

/// `count` offsets start, start+stride, ..., start+(count-1)*stride.
struct OffsetRun {
  layout::Index start = 0;
  layout::Index count = 0;
  layout::Index stride = 0;

  bool operator==(const OffsetRun&) const = default;
  static constexpr RunShape<OffsetRun, 1> kShape{
      {{{&OffsetRun::start, &OffsetRun::stride}}}};
};

/// A run of local src->dst element copies: src + k*srcStride goes to
/// dst + k*dstStride for k in [0, count).
struct LocalRun {
  layout::Index src = 0;
  layout::Index dst = 0;
  layout::Index count = 0;
  layout::Index srcStride = 0;
  layout::Index dstStride = 0;

  bool operator==(const LocalRun&) const = default;
  static constexpr RunShape<LocalRun, 2> kShape{
      {{{&LocalRun::src, &LocalRun::srcStride},
        {&LocalRun::dst, &LocalRun::dstStride}}}};
};

/// Collapses an offset list into maximal arithmetic runs, preserving order.
inline std::vector<OffsetRun> compressOffsets(
    std::span<const layout::Index> offsets) {
  std::vector<OffsetRun> runs;
  for (const layout::Index off : offsets) appendRun(runs, OffsetRun{off, 1, 0});
  return runs;
}

/// Inverse of compressOffsets.
inline std::vector<layout::Index> expandOffsets(
    std::span<const OffsetRun> runs) {
  std::vector<layout::Index> out;
  for (const OffsetRun& run : runs) {
    for (layout::Index k = 0; k < run.count; ++k) {
      out.push_back(run.start + k * run.stride);
    }
  }
  return out;
}

inline layout::Index runElementCount(std::span<const OffsetRun> runs) {
  layout::Index n = 0;
  for (const OffsetRun& run : runs) n += run.count;
  return n;
}

inline layout::Index runPairCount(std::span<const LocalRun> runs) {
  layout::Index n = 0;
  for (const LocalRun& run : runs) n += run.count;
  return n;
}

/// Packs src elements addressed by `runs` into `out` (which must hold
/// runElementCount(runs) elements), in run order.
template <typename T>
void packRuns(std::span<const T> src, std::span<const OffsetRun> runs,
              T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const OffsetRun& run : runs) {
    const T* base = src.data() + run.start;
    if (run.stride == 1) {
      std::memcpy(out, base, static_cast<size_t>(run.count) * sizeof(T));
      out += run.count;
    } else {
      for (layout::Index k = 0; k < run.count; ++k) {
        *out++ = *base;
        base += run.stride;
      }
    }
  }
}

/// Unpacks `buf` (in run order) into dst elements addressed by `runs`.
template <typename T>
void unpackRuns(std::span<const OffsetRun> runs, const T* buf,
                std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const OffsetRun& run : runs) {
    T* base = dst.data() + run.start;
    if (run.stride == 1) {
      std::memcpy(base, buf, static_cast<size_t>(run.count) * sizeof(T));
      buf += run.count;
    } else {
      for (layout::Index k = 0; k < run.count; ++k) {
        *base = *buf++;
        base += run.stride;
      }
    }
  }
}

/// Accumulating unpack (dst[off] += value) — the scatter-add executor.
template <typename T>
void unpackRunsAdd(std::span<const OffsetRun> runs, const T* buf,
                   std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const OffsetRun& run : runs) {
    T* base = dst.data() + run.start;
    for (layout::Index k = 0; k < run.count; ++k) {
      *base += *buf++;
      base += run.stride;
    }
  }
}

/// Direct local copies.  src and dst may alias (ghost fills copy within one
/// buffer), so the contiguous fast path uses memmove.
template <typename T>
void copyLocalRuns(std::span<const LocalRun> runs, std::span<const T> src,
                   std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const LocalRun& run : runs) {
    if (run.srcStride == 1 && run.dstStride == 1) {
      std::memmove(dst.data() + run.dst, src.data() + run.src,
                   static_cast<size_t>(run.count) * sizeof(T));
    } else {
      for (layout::Index k = 0; k < run.count; ++k) {
        dst[static_cast<size_t>(run.dst + k * run.dstStride)] =
            src[static_cast<size_t>(run.src + k * run.srcStride)];
      }
    }
  }
}

/// Staged local copies (Multiblock Parti): every source element is read
/// into `stage` (runPairCount(runs) elements) before any destination
/// element is written, so an in-place copy whose ranges overlap moves the
/// old values.  Stride-1 sides move with memcpy.
template <typename T>
void stageLocalRuns(std::span<const LocalRun> runs, std::span<const T> src,
                    T* stage, std::span<T> dst) {
  T* buf = stage;
  for (const LocalRun& run : runs) {
    const OffsetRun from{run.src, run.count, run.srcStride};
    packRuns(src, std::span<const OffsetRun>(&from, 1), buf);
    buf += run.count;
  }
  for (const LocalRun& run : runs) {
    const OffsetRun to{run.dst, run.count, run.dstStride};
    unpackRuns(std::span<const OffsetRun>(&to, 1), stage, dst);
    stage += run.count;
  }
}

/// Accumulating local copies (dst += src).
template <typename T>
void addLocalRuns(std::span<const LocalRun> runs, std::span<const T> src,
                  std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const LocalRun& run : runs) {
    for (layout::Index k = 0; k < run.count; ++k) {
      dst[static_cast<size_t>(run.dst + k * run.dstStride)] +=
          src[static_cast<size_t>(run.src + k * run.srcStride)];
    }
  }
}

}  // namespace mc::sched
