// The pre-Executor schedule executors, kept verbatim in behavior as
// sched::reference::{execute, executeAdd}.
//
// These are the copy-per-step loops sched::Executor replaces: every send
// packs into a fresh std::vector<T> and the transport copies it again into
// the Message; every receive allocates and fills a temporary vector before
// unpacking; receives drain in fixed peer order; plans pack and unpack with
// the run-wise loops of run_plan.h (element-wise for uncompressed plans)
// instead of the executor's compiled kernels.  They are test-only oracles:
//
//   * the oracle for the executor's differential tests, and
//   * the baseline leg of bench/micro_data_move (old path vs executor),
//     which links the mc_test_oracles target.
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "sched/run_plan.h"
#include "sched/schedule.h"
#include "transport/comm.h"

namespace mc::sched::reference {

/// Packs `plan`'s source elements into `out`, which must hold
/// plan.elementCount() elements.  Run-wise when the plan is compressed.
template <typename T>
void packPlan(const OffsetPlan& plan, std::span<const T> src, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!plan.runs.empty()) {
    packRuns(src, std::span<const OffsetRun>(plan.runs), out);
    return;
  }
  for (layout::Index off : plan.offsets) {
    *out++ = src[static_cast<size_t>(off)];
  }
}

/// Unpacks `buf` (plan.elementCount() elements, pack order) into `dst` at
/// the plan's offsets.
template <typename T>
void unpackPlan(const OffsetPlan& plan, const T* buf, std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!plan.runs.empty()) {
    unpackRuns(std::span<const OffsetRun>(plan.runs), buf, dst);
    return;
  }
  for (layout::Index off : plan.offsets) {
    dst[static_cast<size_t>(off)] = *buf++;
  }
}

/// Accumulating unpack: dst[off] += value, in pack order.
template <typename T>
void unpackPlanAdd(const OffsetPlan& plan, const T* buf, std::span<T> dst) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (!plan.runs.empty()) {
    unpackRunsAdd(std::span<const OffsetRun>(plan.runs), buf, dst);
    return;
  }
  for (layout::Index off : plan.offsets) {
    dst[static_cast<size_t>(off)] += *buf++;
  }
}

/// Peer-ordered, copy-per-step schedule execution (pre-Executor behavior).
template <typename T>
void execute(transport::Comm& comm, const Schedule& sched,
             std::span<const T> src, std::span<T> dst, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const OffsetPlan& plan : sched.sends) {
    std::vector<T> buf(static_cast<size_t>(plan.elementCount()));
    comm.compute([&] { packPlan<T>(plan, src, buf.data()); });
    comm.send(plan.peer, tag, buf);  // copying send
  }
  comm.compute([&] {
    if (sched.bufferLocalCopies) {
      // Parti staging, whether the transfers are stored as pairs or runs.
      std::vector<T> buf(static_cast<size_t>(sched.localElementCount()));
      if (!sched.localRuns.empty()) {
        stageLocalRuns(std::span<const LocalRun>(sched.localRuns), src,
                       buf.data(), dst);
        return;
      }
      size_t i = 0;
      for (const auto& [from, to] : sched.localPairs) {
        buf[i++] = src[static_cast<size_t>(from)];
      }
      i = 0;
      for (const auto& [from, to] : sched.localPairs) {
        dst[static_cast<size_t>(to)] = buf[i++];
      }
    } else if (!sched.localRuns.empty()) {
      copyLocalRuns(std::span<const LocalRun>(sched.localRuns), src, dst);
    } else {
      for (const auto& [from, to] : sched.localPairs) {
        dst[static_cast<size_t>(to)] = src[static_cast<size_t>(from)];
      }
    }
  });
  for (const OffsetPlan& plan : sched.recvs) {
    const std::vector<T> buf = comm.recv<T>(plan.peer, tag);  // alloc + copy
    MC_REQUIRE(buf.size() == static_cast<size_t>(plan.elementCount()),
               "schedule mismatch: peer %d sent %zu elements, expected %lld",
               plan.peer, buf.size(),
               static_cast<long long>(plan.elementCount()));
    comm.compute([&] { unpackPlan<T>(plan, buf.data(), dst); });
  }
}

/// Accumulating variant (dst[off] += value), same copy-per-step behavior.
template <typename T>
void executeAdd(transport::Comm& comm, const Schedule& sched,
                std::span<const T> src, std::span<T> dst, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const OffsetPlan& plan : sched.sends) {
    std::vector<T> buf(static_cast<size_t>(plan.elementCount()));
    comm.compute([&] { packPlan<T>(plan, src, buf.data()); });
    comm.send(plan.peer, tag, buf);
  }
  comm.compute([&] {
    if (!sched.localRuns.empty()) {
      addLocalRuns(std::span<const LocalRun>(sched.localRuns), src, dst);
    } else {
      for (const auto& [from, to] : sched.localPairs) {
        dst[static_cast<size_t>(to)] += src[static_cast<size_t>(from)];
      }
    }
  });
  for (const OffsetPlan& plan : sched.recvs) {
    const std::vector<T> buf = comm.recv<T>(plan.peer, tag);
    MC_REQUIRE(buf.size() == static_cast<size_t>(plan.elementCount()),
               "schedule mismatch: peer %d sent %zu elements, expected %lld",
               plan.peer, buf.size(),
               static_cast<long long>(plan.elementCount()));
    comm.compute([&] { unpackPlanAdd<T>(plan, buf.data(), dst); });
  }
}

}  // namespace mc::sched::reference
