// The pre-Executor schedule executors, kept verbatim in behavior as
// sched::reference::{execute, executeAdd}.
//
// These are the copy-per-step loops sched::Executor replaces: every send
// packs into a fresh std::vector<T> and the transport copies it again into
// the Message; every receive allocates and fills a temporary vector before
// unpacking; receives drain in fixed peer order; plans pack and unpack with
// the run-wise loops of run_plan.h instead of the executor's compiled
// kernels.  They are test-only oracles:
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

/// Peer-ordered, copy-per-step schedule execution (pre-Executor behavior).
template <typename T>
void execute(transport::Comm& comm, const Schedule& sched,
             std::span<const T> src, std::span<T> dst, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const OffsetPlan& plan : sched.sends) {
    std::vector<T> buf(static_cast<size_t>(plan.elementCount()));
    comm.compute([&] {
      packRuns(src, std::span<const OffsetRun>(plan.runs), buf.data());
    });
    comm.send(plan.peer, tag, buf);  // copying send
  }
  comm.compute([&] {
    const std::span<const LocalRun> runs(sched.localRuns);
    if (sched.bufferLocalCopies) {
      // Parti staging.
      std::vector<T> buf(static_cast<size_t>(sched.localElementCount()));
      stageLocalRuns(runs, src, buf.data(), dst);
    } else {
      copyLocalRuns(runs, src, dst);
    }
  });
  for (const OffsetPlan& plan : sched.recvs) {
    const std::vector<T> buf = comm.recv<T>(plan.peer, tag);  // alloc + copy
    MC_REQUIRE(buf.size() == static_cast<size_t>(plan.elementCount()),
               "schedule mismatch: peer %d sent %zu elements, expected %lld",
               plan.peer, buf.size(),
               static_cast<long long>(plan.elementCount()));
    comm.compute([&] {
      unpackRuns(std::span<const OffsetRun>(plan.runs), buf.data(), dst);
    });
  }
}

/// Accumulating variant (dst[off] += value), same copy-per-step behavior.
template <typename T>
void executeAdd(transport::Comm& comm, const Schedule& sched,
                std::span<const T> src, std::span<T> dst, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const OffsetPlan& plan : sched.sends) {
    std::vector<T> buf(static_cast<size_t>(plan.elementCount()));
    comm.compute([&] {
      packRuns(src, std::span<const OffsetRun>(plan.runs), buf.data());
    });
    comm.send(plan.peer, tag, buf);
  }
  comm.compute([&] {
    addLocalRuns(std::span<const LocalRun>(sched.localRuns), src, dst);
  });
  for (const OffsetPlan& plan : sched.recvs) {
    const std::vector<T> buf = comm.recv<T>(plan.peer, tag);
    MC_REQUIRE(buf.size() == static_cast<size_t>(plan.elementCount()),
               "schedule mismatch: peer %d sent %zu elements, expected %lld",
               plan.peer, buf.size(),
               static_cast<long long>(plan.elementCount()));
    comm.compute([&] {
      unpackRunsAdd(std::span<const OffsetRun>(plan.runs), buf.data(), dst);
    });
  }
}

}  // namespace mc::sched::reference
