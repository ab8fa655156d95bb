// Element-wise references for the run form of schedules.
//
// Every builder appends runs through sched::appendOffsetRun /
// sched::appendLocalRun, whose greedy makes a plan's runs a pure function
// of its element sequence: sched::compressOffsets of the element list, and
// compressPairs below for local (src, dst) pairs.  Tests write the element
// sequence a builder must produce, one element at a time, and compare the
// builder's runs with these compressions of it (runListing prints both
// sides of a mismatch).
#pragma once

#include <initializer_list>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sched/run_plan.h"
#include "sched/schedule.h"

namespace mc::sched::reference {

/// Collapses local (src, dst) offset pairs into maximal runs, preserving
/// order — the element-wise greedy appendLocalRun must reproduce.
inline std::vector<LocalRun> compressPairs(
    std::span<const std::pair<layout::Index, layout::Index>> pairs) {
  std::vector<LocalRun> runs;
  for (const auto& [from, to] : pairs) {
    if (!runs.empty()) {
      LocalRun& run = runs.back();
      if (run.count == 1) {
        run.srcStride = from - run.src;
        run.dstStride = to - run.dst;
        ++run.count;
        continue;
      }
      if (from == run.src + run.count * run.srcStride &&
          to == run.dst + run.count * run.dstStride) {
        ++run.count;
        continue;
      }
    }
    runs.push_back(LocalRun{from, to, 1, 0, 0});
  }
  return runs;
}

/// The plan for `peer` whose element sequence is `offsets`.
inline OffsetPlan planOf(int peer, std::span<const layout::Index> offsets) {
  return OffsetPlan{peer, {}, compressOffsets(offsets)};
}
inline OffsetPlan planOf(int peer,
                         std::initializer_list<layout::Index> offsets) {
  return planOf(peer, std::span<const layout::Index>(offsets.begin(),
                                                     offsets.size()));
}

/// The lane a builder emits from per-peer element lists: peer q's plan for
/// every non-empty byPeer[q], in peer order.
inline std::vector<OffsetPlan> laneOf(
    const std::vector<std::vector<layout::Index>>& byPeer) {
  std::vector<OffsetPlan> lane;
  for (std::size_t q = 0; q < byPeer.size(); ++q) {
    if (!byPeer[q].empty()) {
      lane.push_back(planOf(static_cast<int>(q), byPeer[q]));
    }
  }
  return lane;
}

/// Every plan's peer and runs, the local runs and the staging flag, one
/// lane per line.
inline std::string runListing(const Schedule& s) {
  std::ostringstream out;
  for (const auto* lane : {&s.sends, &s.recvs}) {
    out << (lane == &s.sends ? "sends" : "recvs");
    for (const OffsetPlan& p : *lane) {
      out << " | " << p.peer << ":";
      for (const OffsetRun& r : p.runs) {
        out << " " << r.start << "+" << r.count << "x" << r.stride;
      }
    }
    out << "\n";
  }
  out << "local";
  for (const LocalRun& r : s.localRuns) {
    out << " " << r.src << "->" << r.dst << "+" << r.count << "x"
        << r.srcStride << "/" << r.dstStride;
  }
  out << "\nstaged " << s.bufferLocalCopies << "\n";
  return out.str();
}

/// Local runs whose element sequence is `pairs`.
inline std::vector<LocalRun> localRunsOf(
    std::initializer_list<std::pair<layout::Index, layout::Index>> pairs) {
  return compressPairs(std::span<const std::pair<layout::Index,
                                                 layout::Index>>(
      pairs.begin(), pairs.size()));
}

}  // namespace mc::sched::reference
