// Run-compressed offset plans.
//
// Schedule offset lists produced from regular sections are dominated by long
// arithmetic progressions (whole section rows).  A plan therefore stores its
// element sequence as (start, count, stride) runs: every builder appends
// them through appendOffsetRun / appendLocalRun, whose greedy makes the runs
// a pure function of the element sequence (compressOffsets of the
// element-wise list).  The pack/unpack/local-copy helpers here execute
// stride-1 runs with one memcpy/memmove per run and other strides with a
// tight strided loop.  Runs are exact: expanding them reproduces the element
// list, including repeated offsets (stride-0 runs — a source element fanned
// out to several destinations) and descending progressions (negative
// strides).
#pragma once

#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "layout/index.h"

namespace mc::sched {

/// `count` offsets start, start+stride, ..., start+(count-1)*stride.
struct OffsetRun {
  layout::Index start = 0;
  layout::Index count = 0;
  layout::Index stride = 0;

  bool operator==(const OffsetRun&) const = default;
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
};

/// Collapses an offset list into maximal arithmetic runs, preserving order.
inline std::vector<OffsetRun> compressOffsets(
    std::span<const layout::Index> offsets) {
  std::vector<OffsetRun> runs;
  for (const layout::Index off : offsets) {
    if (!runs.empty()) {
      OffsetRun& run = runs.back();
      if (run.count == 1) {
        run.stride = off - run.start;
        ++run.count;
        continue;
      }
      if (off == run.start + run.count * run.stride) {
        ++run.count;
        continue;
      }
    }
    runs.push_back(OffsetRun{off, 1, 0});
  }
  return runs;
}

/// Appends a whole run to a run list, preserving compressOffsets' exact
/// greedy semantics: the result is bit-identical to
/// compressOffsets(expand(runs) ++ expand(run)).  This is what lets the
/// run-native schedule builders emit whole runs yet produce the same lanes
/// the element-wise path would.  The greedy absorbs elements one at a time
/// only across run seams (a count-1 tail infers its stride from the next
/// element; a mismatched-stride run donates its first element before the
/// remainder starts a fresh run), so the loop runs O(1) amortized.
inline void appendOffsetRun(std::vector<OffsetRun>& runs, OffsetRun run) {
  while (run.count > 0) {
    if (!runs.empty()) {
      OffsetRun& tail = runs.back();
      if (tail.count == 1) {
        tail.stride = run.start - tail.start;
        ++tail.count;
        run.start += run.stride;
        --run.count;
        continue;
      }
      if (run.start == tail.start + tail.count * tail.stride) {
        if (run.count == 1 || run.stride == tail.stride) {
          tail.count += run.count;
          return;
        }
        ++tail.count;
        run.start += run.stride;
        --run.count;
        continue;
      }
    }
    if (run.count == 1) run.stride = 0;  // canonical singleton form
    runs.push_back(run);
    return;
  }
}

/// Appends a LocalRun preserving the element-wise greedy exactly (see
/// appendOffsetRun): the local-pair analogue of compressOffsets.
inline void appendLocalRun(std::vector<LocalRun>& runs, LocalRun run) {
  while (run.count > 0) {
    if (!runs.empty()) {
      LocalRun& tail = runs.back();
      if (tail.count == 1) {
        tail.srcStride = run.src - tail.src;
        tail.dstStride = run.dst - tail.dst;
        ++tail.count;
        run.src += run.srcStride;
        run.dst += run.dstStride;
        --run.count;
        continue;
      }
      if (run.src == tail.src + tail.count * tail.srcStride &&
          run.dst == tail.dst + tail.count * tail.dstStride) {
        if (run.count == 1 || (run.srcStride == tail.srcStride &&
                               run.dstStride == tail.dstStride)) {
          tail.count += run.count;
          return;
        }
        ++tail.count;
        run.src += run.srcStride;
        run.dst += run.dstStride;
        --run.count;
        continue;
      }
    }
    if (run.count == 1) {
      run.srcStride = 0;
      run.dstStride = 0;
    }
    runs.push_back(run);
    return;
  }
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
