// Communication schedules shared by the runtime libraries
// (inspector/executor pattern of Saltz et al.).
//
// A Schedule lists, per peer processor, the element offsets to pack (sends)
// or unpack (recvs), in an order both sides agree on, as (start, count,
// stride) runs; same-processor transfers are runs of local offset pairs.
// Executing a schedule sends *at most one message per processor pair* — the
// aggregation property the paper calls out as matching hand-written message
// passing (Section 4.1.4).
//
// The same structure serves Multiblock Parti (ghost fills, section moves),
// Chaos (gather / scatter-add), the HPF runtime (redistribution) and
// Meta-Chaos itself (inter-library copies); each library differs only in how
// it *builds* the runs.
//
// This header holds the schedule *data structures* (plus merge / reverse);
// execution lives in sched/executor.h (sched::Executor and the execute /
// executeAdd one-shot wrappers).
#pragma once

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "layout/index.h"
#include "sched/run_plan.h"
#include "transport/comm.h"

namespace mc::sched {

/// One peer's pack (or unpack) order, as (start, count, stride) runs (see
/// run_plan.h).  Every builder emits runs through appendOffsetRun, so a
/// plan's runs are compressOffsets of its element sequence.
struct OffsetPlan {
  int peer = 0;
  /// Always empty: runs are the one plan form.  Kept declared only because
  /// perfbench/ still compares it; it goes with the next change there.
  /// Executor bind throws on a plan that sets it.
  std::vector<layout::Index> offsets;
  std::vector<OffsetRun> runs;

  layout::Index elementCount() const {
    return runElementCount(std::span<const OffsetRun>(runs));
  }
};

struct Schedule {
  std::vector<OffsetPlan> sends;  // sorted by peer
  std::vector<OffsetPlan> recvs;  // sorted by peer
  /// Always empty, like OffsetPlan::offsets (perfbench/ still reads its
  /// size); Executor bind throws on a schedule that sets it.
  std::vector<std::pair<layout::Index, layout::Index>> localPairs;
  /// Same-processor (src, dst) transfers, appended with appendLocalRun.
  std::vector<LocalRun> localRuns;
  /// Authentic Multiblock Parti stages local transfers through an
  /// intermediate buffer (the paper contrasts this with Meta-Chaos's direct
  /// local copy in Section 5.3).  Meta-Chaos schedules set this to false.
  bool bufferLocalCopies = true;

  layout::Index totalSendElements() const {
    layout::Index n = 0;
    for (const auto& p : sends) n += p.elementCount();
    return n;
  }
  layout::Index totalRecvElements() const {
    layout::Index n = 0;
    for (const auto& p : recvs) n += p.elementCount();
    return n;
  }
  layout::Index localElementCount() const {
    return runPairCount(std::span<const LocalRun>(localRuns));
  }
  void sortByPeer() {
    auto byPeer = [](const OffsetPlan& a, const OffsetPlan& b) {
      return a.peer < b.peer;
    };
    std::sort(sends.begin(), sends.end(), byPeer);
    std::sort(recvs.begin(), recvs.end(), byPeer);
  }
};

/// Merges schedules into one; the merged executor ships ONE message per
/// peer for the whole group instead of one per part — Chaos's
/// schedule-merging optimization for transfers that always run together.
/// All processors must merge the same parts in the same order (the
/// per-peer pack order becomes part order, consistently on both sides).
/// Offsets of different parts may index different buffers only if the
/// caller executes the merged schedule against a common buffer pair.
inline Schedule merge(std::span<const Schedule> parts) {
  Schedule out;
  if (parts.empty()) return out;
  out.bufferLocalCopies = parts.front().bufferLocalCopies;
  // Peer -> lane index, so appending stays O(plans) instead of the
  // O(parts x peers^2) repeated linear scan.
  std::unordered_map<int, size_t> sendLane, recvLane;
  auto append = [](std::vector<OffsetPlan>& into,
                   std::unordered_map<int, size_t>& lane,
                   const OffsetPlan& plan) {
    const auto [it, fresh] = lane.try_emplace(plan.peer, into.size());
    if (fresh) into.push_back(OffsetPlan{plan.peer, {}, {}});
    // Run-wise greedy == element-wise greedy: no expand-and-recompress.
    std::vector<OffsetRun>& runs = into[it->second].runs;
    for (const OffsetRun& run : plan.runs) appendOffsetRun(runs, run);
  };
  for (const Schedule& part : parts) {
    MC_REQUIRE(part.bufferLocalCopies == out.bufferLocalCopies,
               "cannot merge schedules with different local-copy policies");
    for (const OffsetPlan& p : part.sends) append(out.sends, sendLane, p);
    for (const OffsetPlan& p : part.recvs) append(out.recvs, recvLane, p);
    for (const LocalRun& run : part.localRuns) {
      appendLocalRun(out.localRuns, run);
    }
  }
  out.sortByPeer();
  return out;
}

/// Reverses a schedule: sends become recvs and vice versa, local runs flip.
/// The paper notes Meta-Chaos schedules are symmetric — one schedule moves
/// data either direction (Section 4.3); this implements that reversal.
inline Schedule reverse(const Schedule& sched) {
  Schedule out;
  out.sends = sched.recvs;  // per-plan runs stay valid: offsets are unchanged
  out.recvs = sched.sends;
  out.localRuns.reserve(sched.localRuns.size());
  for (const LocalRun& run : sched.localRuns) {
    out.localRuns.push_back(
        LocalRun{run.dst, run.src, run.count, run.dstStride, run.srcStride});
  }
  out.bufferLocalCopies = sched.bufferLocalCopies;
  return out;
}

}  // namespace mc::sched
