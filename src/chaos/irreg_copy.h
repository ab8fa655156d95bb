// Chaos-native copy between two distributed arrays (the baseline of the
// paper's Table 2).
//
// To move data between a regular mesh and an irregular mesh using Chaos
// alone, the paper explains (Section 5.1) that one must treat the regular
// mesh pointwise: build a Chaos translation table for it, store the
// correspondence between the meshes explicitly, and let Chaos dereference
// the irregular side to compute a schedule.  The Chaos executor then pays an
// extra internal copy and an extra level of indirection relative to
// Meta-Chaos — which is why the paper finds the Meta-Chaos data copy
// slightly *faster* even though its schedule is built by a general
// mechanism.
//
// buildIrregCopySchedule: each processor passes the mapping entries whose
// *source* element it owns: (my local source offset, destination global
// index).  One collective dereference of the destination translation table
// dominates the cost, matching the paper's observation that the Chaos
// schedule build and the Meta-Chaos *cooperation* build (which uses the same
// dereference once) cost about the same.
#pragma once

#include "chaos/ttable.h"
#include "sched/schedule.h"

namespace mc::chaos {

/// Builds the copy schedule.  Collective.  Sends index the caller's source
/// storage; recvs index the caller's destination storage.
sched::Schedule buildIrregCopySchedule(
    transport::Comm& comm, const TranslationTable& dstTable,
    std::span<const layout::Index> mySrcOffsets,
    std::span<const layout::Index> dstGlobals);

/// Chaos-style executor: like sched::execute but with the extra internal
/// staging copy and extra indirection pass of the real library — it walks
/// every run element by element instead of through the compiled kernels.
/// Collective.
template <typename T>
void executeChaosCopy(transport::Comm& comm, const sched::Schedule& sched,
                      std::span<const T> src, std::span<T> dst, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  for (const sched::OffsetPlan& plan : sched.sends) {
    // Gather through the indirection into a staging buffer, then copy into
    // the message buffer (the extra copy the paper describes).
    std::vector<T> msg;
    comm.compute([&] {
      std::vector<T> stage;
      stage.reserve(static_cast<size_t>(plan.elementCount()));
      for (const sched::OffsetRun& run : plan.runs) {
        for (layout::Index k = 0; k < run.count; ++k) {
          stage.push_back(src[static_cast<size_t>(run.start + k * run.stride)]);
        }
      }
      msg.assign(stage.begin(), stage.end());
    });
    comm.send(plan.peer, tag, msg);
  }
  comm.compute([&] {
    // Local transfers also pass through the staging buffer.
    std::vector<T> stage;
    stage.reserve(static_cast<size_t>(sched.localElementCount()));
    for (const sched::LocalRun& run : sched.localRuns) {
      for (layout::Index k = 0; k < run.count; ++k) {
        stage.push_back(src[static_cast<size_t>(run.src + k * run.srcStride)]);
      }
    }
    size_t i = 0;
    for (const sched::LocalRun& run : sched.localRuns) {
      for (layout::Index k = 0; k < run.count; ++k) {
        dst[static_cast<size_t>(run.dst + k * run.dstStride)] = stage[i++];
      }
    }
  });
  for (const sched::OffsetPlan& plan : sched.recvs) {
    const std::vector<T> msg = comm.recv<T>(plan.peer, tag);
    MC_REQUIRE(msg.size() == static_cast<size_t>(plan.elementCount()),
               "schedule mismatch: peer %d sent %zu elements, expected %lld",
               plan.peer, msg.size(),
               static_cast<long long>(plan.elementCount()));
    comm.compute([&] {
      std::vector<T> stage(msg.begin(), msg.end());  // the extra copy
      size_t i = 0;
      for (const sched::OffsetRun& run : plan.runs) {
        for (layout::Index k = 0; k < run.count; ++k) {
          dst[static_cast<size_t>(run.start + k * run.stride)] = stage[i++];
        }
      }
    });
  }
}

}  // namespace mc::chaos
