// Vectorized pack/unpack/scatter-add kernels with plan-compile-time dispatch.
//
// The run-wise loops in run_plan.h are ideal when a plan is a few long
// (start,count,stride) runs, but irregular schedules degenerate into
// thousands of count-1/count-2 runs and the per-run branch + loop setup
// dominates — the executor spends its time dispatching, not moving bytes.
// A PlanKernel classifies each OffsetPlan ONCE, when an Executor binds:
//
//   kContiguous — one stride-1 run: a single memcpy;
//   kStrided    — one constant-stride run: a tight strided loop;
//   kRunList    — few, long runs: the existing run-wise loop;
//   kIndexList  — many short runs: the runs are flattened back to one
//                 offset array and executed as a branch-free gather/scatter
//                 loop the compiler can auto-vectorize
//                 (`out[i] = src[idx[i]]`).
//
// Element order is preserved exactly in every variant, so results —
// including the peer-ordered floating-point `+=` of scatter-add — are
// bitwise identical to the run-wise loops.  LocalKernel is the same idea
// for a schedule's local transfers; it flattens only runs whose
// element-order semantics match copyLocalRuns (count-1 runs, and strided
// runs that never hit the memmove fast path), so aliased src/dst buffers
// behave identically.  The flattened offsets are 32 bits wide: a plan with
// an offset beyond that (a buffer of more than 2^32 elements) stays
// kRunList, whose loops run the same element order.
//
// Every plan an Executor binds is compiled here first, so compiling is
// where a run that would address memory outside its buffers is refused
// (runExtent): bytes from another program, a snapshot or a server archive
// reach a bind with no other check of a run's lowest offset or its count.
//
// Dispatch decisions and kernel executions are counted per rank and
// surfaced through the obs MetricsRegistry as kernel.* metrics.  These
// kernels are the executor's only pack/unpack path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "sched/run_plan.h"
#include "sched/schedule.h"
#include "util/error.h"

namespace mc::sched {

enum class KernelKind : std::uint8_t {
  kEmpty,       // no elements: nothing to do
  kContiguous,  // single stride-1 run -> memcpy
  kStrided,     // single constant-stride run -> strided loop
  kRunList,     // few long runs -> run-wise loop (run_plan.h)
  kIndexList,   // many short runs -> flattened branch-free gather/scatter
};

namespace detail {
/// Runs shorter than this on average flatten to an index list; at or above
/// it the per-run loop already amortizes its dispatch overhead.
inline constexpr layout::Index kShortRunAvg = 4;

/// Prefetch distance for the index-list gather/scatter loops: far enough
/// ahead to hide a cache miss behind ~16 iterations of 2-3ns each, near
/// enough that the line is still resident when the loop reaches it.
inline constexpr std::size_t kPrefetchAhead = 16;
}  // namespace detail

/// Monotone per-rank kernel telemetry: how many plans compiled to each
/// kernel at bind time, and how many kernel executions ran by kind.
struct KernelStats {
  std::uint64_t dispatchContiguous = 0;
  std::uint64_t dispatchStrided = 0;
  std::uint64_t dispatchRunList = 0;
  std::uint64_t dispatchIndexList = 0;
  std::uint64_t execContiguous = 0;
  std::uint64_t execStrided = 0;
  std::uint64_t execRunList = 0;
  std::uint64_t execIndexList = 0;
};

inline KernelStats& kernelStats() {
  thread_local KernelStats stats;
  return stats;
}

/// Registers the kernel.* samplers into the rank's registry (idempotent;
/// every Executor bind calls it, so the metrics exist wherever kernels do).
inline void ensureKernelMetrics() {
  obs::MetricsRegistry& reg = obs::threadRegistry();
  if (reg.has("kernel.dispatch.contiguous")) return;
  const KernelStats& s = kernelStats();
  reg.registerCounter("kernel.dispatch.contiguous", [&s] {
    return static_cast<double>(s.dispatchContiguous);
  });
  reg.registerCounter("kernel.dispatch.strided", [&s] {
    return static_cast<double>(s.dispatchStrided);
  });
  reg.registerCounter("kernel.dispatch.run_list", [&s] {
    return static_cast<double>(s.dispatchRunList);
  });
  reg.registerCounter("kernel.dispatch.index_list", [&s] {
    return static_cast<double>(s.dispatchIndexList);
  });
  reg.registerCounter("kernel.exec.contiguous", [&s] {
    return static_cast<double>(s.execContiguous);
  });
  reg.registerCounter("kernel.exec.strided", [&s] {
    return static_cast<double>(s.execStrided);
  });
  reg.registerCounter("kernel.exec.run_list", [&s] {
    return static_cast<double>(s.execRunList);
  });
  reg.registerCounter("kernel.exec.index_list", [&s] {
    return static_cast<double>(s.execIndexList);
  });
}

/// The kernel a plan's shape earns — a pure function of the plan.  A
/// kIndexList plan with an offset beyond 32 bits compiles to kRunList.
inline KernelKind classifyPlan(const OffsetPlan& plan) {
  if (plan.elementCount() == 0) return KernelKind::kEmpty;
  if (plan.runs.size() == 1) {
    const OffsetRun& run = plan.runs.front();
    return (run.stride == 1 || run.count == 1) ? KernelKind::kContiguous
                                               : KernelKind::kStrided;
  }
  const auto avg = plan.elementCount() /
                   static_cast<layout::Index>(plan.runs.size());
  return avg < detail::kShortRunAvg ? KernelKind::kIndexList
                                    : KernelKind::kRunList;
}

/// One past the largest offset of a `count`-element run from `start` by
/// `stride`.  Throws mc::Error, the bind-time guard, for a run with no
/// elements, one that reaches an offset below 0 and one whose offset
/// arithmetic overflows Index.
inline layout::Index runExtent(layout::Index start, layout::Index count,
                               layout::Index stride) {
  MC_REQUIRE(count >= 1, "plan run of %lld elements; a run holds at least one",
             static_cast<long long>(count));
  layout::Index last = 0;
  MC_REQUIRE(!__builtin_mul_overflow(count - 1, stride, &last) &&
                 !__builtin_add_overflow(start, last, &last) &&
                 std::max(start, last) <
                     std::numeric_limits<layout::Index>::max(),
             "plan run of %lld elements from %lld by %lld overflows the "
             "offset range",
             static_cast<long long>(count), static_cast<long long>(start),
             static_cast<long long>(stride));
  MC_REQUIRE(std::min(start, last) >= 0,
             "plan run reaches offset %lld, below 0",
             static_cast<long long>(std::min(start, last)));
  return std::max(start, last) + 1;
}

/// True when `off` fits the 32-bit index streams.
inline bool fitsIndex32(layout::Index off) {
  return static_cast<std::uint64_t>(off) <= UINT32_MAX;
}

/// A compiled pack/unpack kernel for one OffsetPlan.  Compiled once at
/// Executor bind; the plan must outlive the kernel (the executor already
/// requires the schedule to outlive it).
struct PlanKernel {
  KernelKind kind = KernelKind::kRunList;
  OffsetRun run{};  // kContiguous / kStrided
  /// One past the plan's largest offset: the shortest buffer a pack or
  /// unpack through this kernel may be given.
  layout::Index extent = 0;
  /// The kIndexList offsets, narrowed to 32 bits.  Index is 64-bit but
  /// local offsets in any real schedule fit 32; the narrow stream halves
  /// the index bytes the gather/scatter loops pull through the cache.
  std::vector<std::uint32_t> idx32;

  /// Compiles `plan`, throwing mc::Error for a run runExtent refuses or a
  /// plan whose element count overflows Index.
  static PlanKernel compile(const OffsetPlan& plan) {
    PlanKernel k;
    k.extent = planExtent(plan);
    k.kind = classifyPlan(plan);
    if (k.kind == KernelKind::kIndexList) {
      k.idx32 = narrowRuns(plan.runs, plan.elementCount());
      if (k.idx32.empty()) k.kind = KernelKind::kRunList;
    }
    KernelStats& s = kernelStats();
    switch (k.kind) {
      case KernelKind::kEmpty:
        break;
      case KernelKind::kContiguous:
        k.run = plan.runs.front();
        ++s.dispatchContiguous;
        break;
      case KernelKind::kStrided:
        k.run = plan.runs.front();
        ++s.dispatchStrided;
        break;
      case KernelKind::kRunList:
        ++s.dispatchRunList;
        break;
      case KernelKind::kIndexList:
        ++s.dispatchIndexList;
        break;
    }
    return k;
  }

  static layout::Index planExtent(const OffsetPlan& plan) {
    layout::Index extent = 0;
    layout::Index elements = 0;
    for (const OffsetRun& r : plan.runs) {
      extent = std::max(extent, runExtent(r.start, r.count, r.stride));
      MC_REQUIRE(!__builtin_add_overflow(elements, r.count, &elements),
                 "plan for peer %d overflows the element count", plan.peer);
    }
    return extent;
  }

  /// The runs' offsets expanded straight into 32 bits in one pass, or
  /// empty when any is out of range.
  static std::vector<std::uint32_t> narrowRuns(
      const std::vector<OffsetRun>& runs, layout::Index count) {
    std::vector<std::uint32_t> out;
    out.reserve(static_cast<std::size_t>(count));
    for (const OffsetRun& r : runs) {
      for (layout::Index i = 0; i < r.count; ++i) {
        const layout::Index off = r.start + i * r.stride;
        if (!fitsIndex32(off)) return {};
        out.push_back(static_cast<std::uint32_t>(off));
      }
    }
    return out;
  }
};

/// Gather `plan`'s source elements into `out` (plan.elementCount()
/// elements), dispatched through the compiled kernel.  Element order — and
/// therefore every result — is the plan's expanded offset order.
template <typename T>
void packKernel(const PlanKernel& k, const OffsetPlan& plan,
                std::span<const T> src, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  KernelStats& s = kernelStats();
  switch (k.kind) {
    case KernelKind::kEmpty:
      return;
    case KernelKind::kContiguous:
      ++s.execContiguous;
      std::memcpy(out, src.data() + k.run.start,
                  static_cast<size_t>(k.run.count) * sizeof(T));
      return;
    case KernelKind::kStrided: {
      ++s.execStrided;
      const T* base = src.data() + k.run.start;
      const layout::Index stride = k.run.stride;
      const layout::Index n = k.run.count;
      for (layout::Index i = 0; i < n; ++i) out[i] = base[i * stride];
      return;
    }
    case KernelKind::kRunList:
      ++s.execRunList;
      packRuns(src, std::span<const OffsetRun>(plan.runs), out);
      return;
    case KernelKind::kIndexList: {
      ++s.execIndexList;
      const T* base = src.data();
      const std::uint32_t* idx = k.idx32.data();
      const size_t n = k.idx32.size();
      constexpr size_t ahead = detail::kPrefetchAhead;
      for (size_t i = 0; i < n; ++i) {
        if (i + ahead < n) __builtin_prefetch(base + idx[i + ahead], 0);
        out[i] = base[idx[i]];
      }
      return;
    }
  }
}

/// Scatter `buf` (pack order) to `plan`'s destination elements.
template <typename T>
void unpackKernel(const PlanKernel& k, const OffsetPlan& plan, const T* buf,
                  std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  KernelStats& s = kernelStats();
  switch (k.kind) {
    case KernelKind::kEmpty:
      return;
    case KernelKind::kContiguous:
      ++s.execContiguous;
      std::memcpy(dst.data() + k.run.start, buf,
                  static_cast<size_t>(k.run.count) * sizeof(T));
      return;
    case KernelKind::kStrided: {
      ++s.execStrided;
      T* base = dst.data() + k.run.start;
      const layout::Index stride = k.run.stride;
      const layout::Index n = k.run.count;
      for (layout::Index i = 0; i < n; ++i) base[i * stride] = buf[i];
      return;
    }
    case KernelKind::kRunList:
      ++s.execRunList;
      unpackRuns(std::span<const OffsetRun>(plan.runs), buf, dst);
      return;
    case KernelKind::kIndexList: {
      ++s.execIndexList;
      T* base = dst.data();
      const std::uint32_t* idx = k.idx32.data();
      const size_t n = k.idx32.size();
      constexpr size_t ahead = detail::kPrefetchAhead;
      for (size_t i = 0; i < n; ++i) {
        if (i + ahead < n) __builtin_prefetch(base + idx[i + ahead], 1);
        base[idx[i]] = buf[i];
      }
      return;
    }
  }
}

/// Accumulating scatter (dst[off] += value), in pack order — the same
/// element order as unpackRunsAdd, so floating-point sums stay bitwise
/// identical.
template <typename T>
void unpackAddKernel(const PlanKernel& k, const OffsetPlan& plan,
                     const T* buf, std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  KernelStats& s = kernelStats();
  switch (k.kind) {
    case KernelKind::kEmpty:
      return;
    case KernelKind::kContiguous: {
      ++s.execContiguous;
      T* base = dst.data() + k.run.start;
      const layout::Index n = k.run.count;
      for (layout::Index i = 0; i < n; ++i) base[i] += buf[i];
      return;
    }
    case KernelKind::kStrided: {
      ++s.execStrided;
      T* base = dst.data() + k.run.start;
      const layout::Index stride = k.run.stride;
      const layout::Index n = k.run.count;
      for (layout::Index i = 0; i < n; ++i) base[i * stride] += buf[i];
      return;
    }
    case KernelKind::kRunList:
      ++s.execRunList;
      unpackRunsAdd(std::span<const OffsetRun>(plan.runs), buf, dst);
      return;
    case KernelKind::kIndexList: {
      ++s.execIndexList;
      T* base = dst.data();
      const std::uint32_t* idx = k.idx32.data();
      const size_t n = k.idx32.size();
      constexpr size_t ahead = detail::kPrefetchAhead;
      for (size_t i = 0; i < n; ++i) {
        if (i + ahead < n) __builtin_prefetch(base + idx[i + ahead], 1);
        base[idx[i]] += buf[i];
      }
      return;
    }
  }
}

/// A compiled kernel for a schedule's local transfers.  Only kIndexList is
/// a new path: the local runs flatten to (src, dst) offset arrays executed
/// as branch-free loops.  Flattening is restricted to runs whose
/// copyLocalRuns semantics ARE element order — count-1 runs and strided
/// runs that never take the memmove fast path — so aliased src/dst buffers
/// (ghost fills) behave bit-identically.  Everything else stays kRunList
/// (the executor's existing local paths), and so does a schedule with an
/// offset beyond 32 bits.
struct LocalKernel {
  KernelKind kind = KernelKind::kRunList;
  /// One past the largest source / destination offset of the local
  /// transfers, whatever the kind.
  layout::Index srcExtent = 0, dstExtent = 0;
  std::vector<std::uint32_t> srcIdx32, dstIdx32;  // kIndexList

  /// Compiles the local transfers, throwing mc::Error for a run whose
  /// source or destination side runExtent refuses, or when their element
  /// count overflows Index.
  static LocalKernel compile(const Schedule& sched) {
    LocalKernel k;
    layout::Index total = 0;
    bool flattenable = true;
    for (const LocalRun& run : sched.localRuns) {
      k.srcExtent = std::max(k.srcExtent,
                             runExtent(run.src, run.count, run.srcStride));
      k.dstExtent = std::max(k.dstExtent,
                             runExtent(run.dst, run.count, run.dstStride));
      MC_REQUIRE(!__builtin_add_overflow(total, run.count, &total),
                 "local transfers overflow the element count");
      // A memmove-eligible run (both strides 1, count > 1) has
      // read-all-then-write semantics that element order cannot reproduce
      // under aliasing; keep the run-wise path for schedules carrying one.
      if (run.count > 1 && run.srcStride == 1 && run.dstStride == 1) {
        flattenable = false;
      }
    }
    if (total == 0) {
      k.kind = KernelKind::kEmpty;
      return k;
    }
    const auto avg =
        total / static_cast<layout::Index>(sched.localRuns.size());
    if (flattenable && avg < detail::kShortRunAvg &&
        flatten(sched.localRuns, total, k.srcIdx32, k.dstIdx32)) {
      k.kind = KernelKind::kIndexList;
      ++kernelStats().dispatchIndexList;
      return k;
    }
    k.kind = KernelKind::kRunList;
    k.srcIdx32 = std::vector<std::uint32_t>();
    k.dstIdx32 = std::vector<std::uint32_t>();
    ++kernelStats().dispatchRunList;
    return k;
  }

  /// Expands `runs` into the 32-bit (src, dst) offset streams in one pass;
  /// false (with the streams partly filled) when an offset does not fit.
  static bool flatten(const std::vector<LocalRun>& runs, layout::Index total,
                      std::vector<std::uint32_t>& src,
                      std::vector<std::uint32_t>& dst) {
    src.reserve(static_cast<size_t>(total));
    dst.reserve(static_cast<size_t>(total));
    for (const LocalRun& run : runs) {
      for (layout::Index i = 0; i < run.count; ++i) {
        const layout::Index s = run.src + i * run.srcStride;
        const layout::Index d = run.dst + i * run.dstStride;
        if (!fitsIndex32(s) || !fitsIndex32(d)) return false;
        src.push_back(static_cast<std::uint32_t>(s));
        dst.push_back(static_cast<std::uint32_t>(d));
      }
    }
    return true;
  }

  /// Direct local copies in element order (== copyLocalRuns for the runs
  /// this kernel flattens).
  template <typename T>
  void copy(std::span<const T> src, std::span<T> dst) const {
    ++kernelStats().execIndexList;
    const std::uint32_t* sIdx = srcIdx32.data();
    const std::uint32_t* dIdx = dstIdx32.data();
    const size_t n = srcIdx32.size();
    constexpr size_t ahead = detail::kPrefetchAhead;
    for (size_t i = 0; i < n; ++i) {
      if (i + ahead < n) {
        __builtin_prefetch(src.data() + sIdx[i + ahead], 0);
        __builtin_prefetch(dst.data() + dIdx[i + ahead], 1);
      }
      dst[dIdx[i]] = src[sIdx[i]];
    }
  }

  /// Accumulating local copies (dst += src), element order.
  template <typename T>
  void add(std::span<const T> src, std::span<T> dst) const {
    ++kernelStats().execIndexList;
    const std::uint32_t* sIdx = srcIdx32.data();
    const std::uint32_t* dIdx = dstIdx32.data();
    const size_t n = srcIdx32.size();
    constexpr size_t ahead = detail::kPrefetchAhead;
    for (size_t i = 0; i < n; ++i) {
      if (i + ahead < n) {
        __builtin_prefetch(src.data() + sIdx[i + ahead], 0);
        __builtin_prefetch(dst.data() + dIdx[i + ahead], 1);
      }
      dst[dIdx[i]] += src[sIdx[i]];
    }
  }
};

}  // namespace mc::sched
