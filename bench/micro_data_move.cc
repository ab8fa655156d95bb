// Micro benchmark for steady-state schedule execution (the data-move hot
// path): the pre-PR copy-per-step executor (sched::reference) against the
// persistent zero-copy sched::Executor, on a schedule built once and run
// many times — the paper's amortization pattern.
//
//   * regular -> regular     (parti block -> hpf block, full section): long
//     runs, so per-element work is all memcpy and the transport's extra
//     copies dominate;
//   * irregular -> irregular (chaos -> chaos, shuffled index sets): runs
//     degenerate to single elements, pack/unpack gather-scatter dominates
//     and the transport copies are the remaining fat;
//   * split-phase overlap   (symmetric ring exchange): blocking run()
//     against start()/poll()/finish() under a synthetic per-step compute
//     load calibrated to the exchange time.  Measured on the virtual
//     clock (overlap lives in the modelled network, not host wall time);
//   * node aggregation under contention (fine-grained all-to-all, 2 nodes
//     x 4 processes, one NIC per node, per-message NIC cost on): flat
//     per-peer sends against the node-aggregated executor, A/B on the
//     virtual clock, one world per layout (NetConfig::nodeAggregation).
//     The per-link-class traffic counters
//     (link.inter_node/intra_node/forwarded) show the message-count
//     mechanism: aggregated mode emits at most nodes-1 inter-node
//     messages per rank per step;
//   * the Figure-1 edge sweep (chaos::EdgeSweep over a side x side grid
//     under a random renumbering and a random partition, as in the coupled
//     mesh): the two-buffer reference sweep, which decides owned-or-ghost
//     per boundary endpoint, against the sweep over one local index space.
//     Host wall clock per step, with the interior/boundary edge counts;
//     both legs sweep twin arrays equally often, so their y must agree
//     bitwise.
//
// Reports wall-clock per step (virtual clocks cannot see the transport's
// internal copies — they happen outside compute()), plus the new
// TrafficStats counters: bytesCopied and allocations summed over ranks for
// the measured steps.  The executor leg must show zero for both.  Per-case
// attribution uses TrafficStats epoch snapshot/diff (after - before), not
// resetStats(): resetting would clobber the cumulative counters the obs
// registry samples, and earlier cases' traffic would silently leak into
// later ones if any step skipped the reset.
//
// Emits BENCH_data_move.json through obs::BenchReport (mc-bench-v1), and a
// Chrome trace of the split-phase overlap case to
// TRACE_data_move_overlap.json (load it in chrome://tracing or
// ui.perfetto.dev: the interior compute span rides beside recvWait).
//
// Flags: --side=N (default 768; element count is side^2), --steps=N
// (default 10), for CI smoke runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "chaos/irregular_loop.h"
#include "chaos/partition.h"
#include "common/bench_util.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/schedule_builder.h"
#include "meshgen/meshgen.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "oracle/edge_sweep_reference.h"
#include "oracle/reference_executor.h"
#include "sched/executor.h"
#include "sched/kernels.h"
#include "util/rng.h"

using namespace mc;
using layout::Index;
using layout::RegularSection;
using layout::Shape;

namespace {

constexpr int kProcs = 8;

struct Leg {
  double perStepSeconds = 0;  // wall clock, max over ranks
  double bytesCopied = 0;     // summed over ranks, measured steps only
  double allocations = 0;     // summed over ranks
  double messages = 0;        // summed over ranks
  double drainedEarly = 0;    // messages consumed by poll(), summed
  // Per-link-class traffic (summed over ranks, measured steps only).
  // Forwarded counts are the leader re-sends of aggregated segments, a
  // subset of intra_node.
  double interNodeMessages = 0, interNodeBytes = 0;
  double intraNodeMessages = 0, intraNodeBytes = 0;
  double forwardedMessages = 0, forwardedBytes = 0;
};

/// Reduces a TrafficStats diff's per-link-class counters into `leg`.
/// Collective (allreduce per field).
void reduceLinkStats(transport::Comm& c, const transport::TrafficStats& d,
                     Leg& leg) {
  leg.interNodeMessages =
      c.allreduceSum(static_cast<double>(d.interNodeMessages));
  leg.interNodeBytes = c.allreduceSum(static_cast<double>(d.interNodeBytes));
  leg.intraNodeMessages =
      c.allreduceSum(static_cast<double>(d.intraNodeMessages));
  leg.intraNodeBytes = c.allreduceSum(static_cast<double>(d.intraNodeBytes));
  leg.forwardedMessages =
      c.allreduceSum(static_cast<double>(d.forwardedMessages));
  leg.forwardedBytes = c.allreduceSum(static_cast<double>(d.forwardedBytes));
}

/// Kernel executions during the executor leg, by compiled kind; summed
/// over ranks, measured steps only.
struct KernelCounts {
  double contiguous = 0, strided = 0, runList = 0, indexList = 0;
};

struct CaseResult {
  const char* name = "";
  Leg reference, executor;
  KernelCounts kernels;
  double speedup() const {
    return executor.perStepSeconds > 0
               ? reference.perStepSeconds / executor.perStepSeconds
               : 0.0;
  }
  /// Transport copy reduction; the executor leg is expected to be 0, so
  /// guard the ratio at one byte.
  double copyRatio() const {
    return reference.bytesCopied /
           (executor.bytesCopied > 0 ? executor.bytesCopied : 1.0);
  }
};

std::vector<Index> shuffledIds(Index n, std::uint64_t seed) {
  Rng rng(seed);
  const auto perm = rng.permutation(static_cast<std::uint64_t>(n));
  std::vector<Index> ids(static_cast<size_t>(n));
  for (size_t k = 0; k < ids.size(); ++k) {
    ids[k] = static_cast<Index>(perm[k]);
  }
  return ids;
}

std::shared_ptr<chaos::IrregArray<double>> makeIrreg(transport::Comm& c,
                                                     Index n,
                                                     std::uint64_t seed) {
  const auto mine = chaos::randomPartition(n, c.size(), c.rank(), seed);
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(
          c, mine, n, chaos::TranslationTable::Storage::kDistributed));
  return std::make_shared<chaos::IrregArray<double>>(c, table, mine);
}

/// Warmup + `steps` measured executions of `step`, returning per-step wall
/// time (max over ranks) and this rank's traffic counters reduced over the
/// program.  Wall clock, not virtual: the transport's payload copies run
/// outside compute() and are invisible to the virtual clock by design.
template <typename StepFn>
Leg measureLeg(transport::Comm& c, int steps, StepFn&& step) {
  step();  // warmup: first-run allocations stay out of the window
  c.barrier();
  const transport::TrafficStats before = c.stats();  // epoch snapshot
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) step();
  // Diff before the reductions add traffic of their own.
  const transport::TrafficStats stats = c.stats() - before;
  const double mine =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  Leg leg;
  leg.perStepSeconds = c.allreduceMax(mine) / steps;
  leg.bytesCopied = c.allreduceSum(static_cast<double>(stats.bytesCopied));
  leg.allocations = c.allreduceSum(static_cast<double>(stats.allocations));
  leg.messages = c.allreduceSum(static_cast<double>(stats.messagesSent));
  reduceLinkStats(c, stats, leg);
  return leg;
}

/// Same shape as measureLeg, but on the *virtual* clock: per-step
/// c.now() delta, max over ranks.  Used by the split-phase case, where the
/// win is overlap inside the modelled network — the host may have a single
/// core, so wall clock cannot see it.
template <typename StepFn>
Leg measureVirtualLeg(transport::Comm& c, int steps, StepFn&& step) {
  step();  // warmup: first-run allocations stay out of the window
  c.barrier();
  const transport::TrafficStats before = c.stats();  // epoch snapshot
  const double v0 = c.now();
  for (int i = 0; i < steps; ++i) step();
  // Diff before the reductions add traffic of their own.
  const transport::TrafficStats stats = c.stats() - before;
  const double mine = c.now() - v0;
  Leg leg;
  leg.perStepSeconds = c.allreduceMax(mine) / steps;
  leg.bytesCopied = c.allreduceSum(static_cast<double>(stats.bytesCopied));
  leg.allocations = c.allreduceSum(static_cast<double>(stats.allocations));
  leg.messages = c.allreduceSum(static_cast<double>(stats.messagesSent));
  leg.drainedEarly =
      c.allreduceSum(static_cast<double>(stats.messagesDrainedEarly));
  reduceLinkStats(c, stats, leg);
  return leg;
}

/// Measures a bound executor's leg plus its per-step kernel-execution
/// counters.  Counter diffs cover the leg's warmup execution too, hence the
/// steps + 1 normalization.
template <typename StepFn>
Leg measureExecutorLeg(transport::Comm& c, int steps, StepFn&& step,
                       KernelCounts& kernels) {
  const sched::KernelStats k0 = sched::kernelStats();
  const Leg leg = measureLeg(c, steps, step);
  const sched::KernelStats k1 = sched::kernelStats();
  const double perStep = 1.0 / (steps + 1);
  kernels.contiguous = c.allreduceSum(
      static_cast<double>(k1.execContiguous - k0.execContiguous) * perStep);
  kernels.strided = c.allreduceSum(
      static_cast<double>(k1.execStrided - k0.execStrided) * perStep);
  kernels.runList = c.allreduceSum(
      static_cast<double>(k1.execRunList - k0.execRunList) * perStep);
  kernels.indexList = c.allreduceSum(
      static_cast<double>(k1.execIndexList - k0.execIndexList) * perStep);
  return leg;
}

struct OverlapResult {
  Leg blocking, split;
  double commSeconds = 0;  // calibrated per-step exchange time (virtual)
  double speedup() const {
    return split.perStepSeconds > 0
               ? blocking.perStepSeconds / split.perStepSeconds
               : 0.0;
  }
};

/// The symmetric ring exchange of the overlap case: each rank ships a
/// `block`-element run to its successor and receives one from its
/// predecessor (into the upper half of a 2*block destination).
sched::Schedule makeRingPlan(const transport::Comm& c, Index block) {
  sched::Schedule plan;
  plan.sends.push_back(sched::OffsetPlan{
      (c.rank() + 1) % c.size(), {}, {sched::OffsetRun{0, block, 1}}});
  plan.recvs.push_back(sched::OffsetPlan{(c.rank() + c.size() - 1) % c.size(),
                                         {},
                                         {sched::OffsetRun{block, block, 1}}});
  return plan;
}

struct SweepResult {
  Leg reference, sweep;
  double interiorEdges = 0, boundaryEdges = 0;  // summed over ranks
  bool bitwiseEqual = false;  // y after both legs, on every rank
  double speedup() const {
    return sweep.perStepSeconds > 0
               ? reference.perStepSeconds / sweep.perStepSeconds
               : 0.0;
  }
};

struct ContentionResult {
  Leg flat, aggregated;
  double speedup() const {
    return aggregated.perStepSeconds > 0
               ? flat.perStepSeconds / aggregated.perStepSeconds
               : 0.0;
  }
};

/// Fine-grained all-to-all for the node-aggregation case: each rank ships
/// `blk` elements to every other rank, destination rows disjoint per
/// source.  Small blocks keep the exchange in the per-message-dominated
/// regime where the paper's Section 5.4 contention effect lives.
sched::Schedule makeAllToAllPlan(const transport::Comm& c, Index blk) {
  sched::Schedule plan;
  for (int i = 1; i < c.size(); ++i) {
    const int peer = (c.rank() + i) % c.size();
    plan.sends.push_back(
        sched::OffsetPlan{peer, {}, {sched::OffsetRun{0, blk, 1}}});
    const Index base =
        blk * static_cast<Index>(peer < c.rank() ? peer : peer - 1);
    plan.recvs.push_back(
        sched::OffsetPlan{peer, {}, {sched::OffsetRun{base, blk, 1}}});
  }
  plan.sortByPeer();
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  Index side = 768;
  int steps = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--side=", 7) == 0) {
      side = static_cast<Index>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--steps=", 8) == 0) {
      steps = std::atoi(argv[i] + 8);
    } else {
      std::fprintf(stderr, "usage: %s [--side=N] [--steps=N]\n", argv[0]);
      return 2;
    }
  }
  const Index n = side * side;

  std::vector<CaseResult> results(2);
  results[0].name = "regular->regular";
  results[1].name = "irregular->irregular";
  OverlapResult overlap;
  SweepResult edgeSweep;
  ContentionResult contention;

  transport::World::runSPMD(kProcs, [&](transport::Comm& c) {
    // Case 1: parti block (with ghosts) -> hpf CYCLIC rows, full array
    // section.  Both sides are regular (long runs), but the distributions
    // disagree, so nearly all elements cross processors.
    {
      parti::BlockDistArray<double> a(c, Shape::of({side, side}), /*ghost=*/1);
      hpfrt::HpfArray<double> b(
          c, hpfrt::HpfDist(
                 Shape::of({side, side}),
                 {hpfrt::DimDist{hpfrt::DistKind::kCyclic, c.size(), 1},
                  hpfrt::DimDist{hpfrt::DistKind::kBlock, 1, 1}}));
      a.fillByPoint([&](const layout::Point& p) {
        return static_cast<double>(p[0] * side + p[1]);
      });
      core::SetOfRegions srcSet, dstSet;
      srcSet.add(core::Region::section(
          RegularSection::box({0, 0}, {side - 1, side - 1})));
      dstSet.add(core::Region::section(
          RegularSection::box({0, 0}, {side - 1, side - 1})));
      const core::McSchedule sched = core::computeSchedule(
          c, core::PartiAdapter::describe(a), srcSet,
          core::HpfAdapter::describe(b), dstSet, core::Method::kCooperation);

      const Leg ref = measureLeg(c, steps, [&] {
        sched::reference::execute<double>(c, sched.plan, a.raw(), b.raw(),
                                          c.nextUserTag());
      });
      sched::Executor<double> ex(c, sched.plan);
      KernelCounts kernels;
      const Leg fast = measureExecutorLeg(
          c, steps, [&] { ex.run(a.raw(), b.raw()); }, kernels);
      if (c.rank() == 0) {
        results[0].reference = ref;
        results[0].executor = fast;
        results[0].kernels = kernels;
      }
    }

    // Case 2: chaos -> chaos with shuffled index sets.
    {
      auto x = makeIrreg(c, n, 7);
      auto y = makeIrreg(c, n, 8);
      x->fillByGlobal([](Index g) { return static_cast<double>(g) * 0.5; });
      core::SetOfRegions srcSet, dstSet;
      srcSet.add(core::Region::indices(shuffledIds(n, 5)));
      dstSet.add(core::Region::indices(shuffledIds(n, 6)));
      const core::McSchedule sched = core::computeSchedule(
          c, core::ChaosAdapter::describe(*x), srcSet,
          core::ChaosAdapter::describe(*y), dstSet,
          core::Method::kCooperation);

      const Leg ref = measureLeg(c, steps, [&] {
        sched::reference::execute<double>(c, sched.plan, x->raw(), y->raw(),
                                          c.nextUserTag());
      });
      sched::Executor<double> ex(c, sched.plan);
      KernelCounts kernels;
      const Leg fast = measureExecutorLeg(
          c, steps, [&] { ex.run(x->raw(), y->raw()); }, kernels);
      if (c.rank() == 0) {
        results[1].reference = ref;
        results[1].executor = fast;
        results[1].kernels = kernels;
      }
    }

    // Case 3: split-phase overlap.  A symmetric ring exchange (each rank
    // ships a block to its successor) under a per-step compute phase
    // calibrated to the measured exchange time — the regime where
    // communication and computation are comparable, so blocking pays
    // comm + compute per step while split-phase pays max(comm, compute).
    // Virtual clock: the overlap lives in the modelled network.
    {
      const Index block = n / kProcs + 1;
      const sched::Schedule plan = makeRingPlan(c, block);
      std::vector<double> src(static_cast<size_t>(block), 1.0);
      std::vector<double> dst(static_cast<size_t>(2 * block), 0.0);
      const std::span<const double> srcSpan(src);
      const std::span<double> dstSpan(dst);
      sched::Executor<double> ex(c, plan);

      // Calibrate the synthetic load to the bare exchange time.
      const Leg commOnly =
          measureVirtualLeg(c, steps, [&] { ex.run(srcSpan, dstSpan); });
      const double load = commOnly.perStepSeconds;

      const Leg blocking = measureVirtualLeg(c, steps, [&] {
        ex.run(srcSpan, dstSpan);
        c.advance(load);
      });
      const Leg split = measureVirtualLeg(c, steps, [&] {
        auto pending = ex.start(srcSpan);
        c.advance(load);  // caller compute, away from the footprint
        pending.poll();   // opportunistic drain of what already arrived
        pending.finish(dstSpan);
      });
      if (c.rank() == 0) {
        overlap.blocking = blocking;
        overlap.split = split;
        overlap.commSeconds = load;
      }
    }

    // Edge-sweep case (case 4 below needs worlds of its own): the Figure-1
    // edge sweep, block-distributed edges of a renumbered grid over
    // randomly partitioned nodes.
    {
      const meshgen::EdgeList edges = meshgen::renumberNodes(
          meshgen::gridEdges(side, side), meshgen::nodePermutation(n, 11));
      const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 12);
      auto table = std::make_shared<const chaos::TranslationTable>(
          chaos::TranslationTable::build(
              c, mine, n, chaos::TranslationTable::Storage::kDistributed));
      std::vector<Index> ia, ib;
      for (const Index e :
           chaos::blockPartition(edges.numEdges(), c.size(), c.rank())) {
        ia.push_back(edges.ia[static_cast<size_t>(e)]);
        ib.push_back(edges.ib[static_cast<size_t>(e)]);
      }
      chaos::IrregArray<double> x(c, table, mine), y(c, table, mine);
      chaos::IrregArray<double> xr(c, table, mine), yr(c, table, mine);
      for (chaos::IrregArray<double>* a : {&x, &xr}) {
        a->fillByGlobal([](Index g) { return 1.0 + 1e-3 * static_cast<double>(g); });
      }
      chaos::oracle::EdgeSweepReference<double> reference(c, *table, ia, ib);
      chaos::EdgeSweep<double> sweep(c, *table, ia, ib);
      const Leg ref = measureLeg(c, steps, [&] { reference.run(xr, yr); });
      const Leg fast = measureLeg(c, steps, [&] { sweep.run(x, y); });
      const bool same =
          y.raw().empty() || std::memcmp(y.raw().data(), yr.raw().data(),
                                         y.raw().size_bytes()) == 0;
      const double mismatchedRanks = c.allreduceSum(same ? 0.0 : 1.0);
      const double interior =
          c.allreduceSum(static_cast<double>(sweep.interiorEdges()));
      const double boundary =
          c.allreduceSum(static_cast<double>(sweep.boundaryEdges()));
      if (c.rank() == 0) {
        edgeSweep.reference = ref;
        edgeSweep.sweep = fast;
        edgeSweep.interiorEdges = interior;
        edgeSweep.boundaryEdges = boundary;
        edgeSweep.bitwiseEqual = mismatchedRanks == 0;
      }
    }
  });

  // Case 4: node-aggregated execution under NIC contention.  8 processes
  // on 2 nodes (4 per node), one NIC per node with a per-message processing
  // cost — the Section 5.4 regime where times rise with processes per node
  // because every message pays the shared NIC.  The same fine-grained
  // all-to-all runs flat (one message per remote rank) and aggregated (one
  // framed message per remote node, split and forwarded by the
  // destination's leader) in two otherwise identical worlds, A/B on the
  // virtual clock.
  constexpr int kAggNodes = 2;
  constexpr Index kAggBlock = 8;
  for (const bool aggregated : {false, true}) {
    transport::WorldOptions options;
    options.net.nodesPerProgram = {kAggNodes};
    options.net.contention = true;
    options.net.interNode.nicPerMessage = 100e-6;
    options.net.nodeAggregation = aggregated;
    transport::World::runSPMD(
        kProcs,
        [&](transport::Comm& c) {
          const sched::Schedule plan = makeAllToAllPlan(c, kAggBlock);
          std::vector<double> src(static_cast<size_t>(kAggBlock));
          for (size_t k = 0; k < src.size(); ++k) {
            src[k] = static_cast<double>(c.rank()) +
                     0.01 * static_cast<double>(k);
          }
          std::vector<double> dst(
              static_cast<size_t>(kAggBlock) * (kProcs - 1), 0.0);
          const std::span<const double> srcSpan(src);
          const std::span<double> dstSpan(dst);
          sched::Executor<double> ex(c, plan);
          const Leg leg = measureVirtualLeg(
              c, steps, [&] { ex.run(srcSpan, dstSpan); });
          if (c.rank() == 0) {
            (aggregated ? contention.aggregated : contention.flat) = leg;
          }
        },
        options);
  }

  std::vector<std::string> cols;
  std::vector<double> refT, exT;
  for (const CaseResult& r : results) {
    cols.push_back(r.name);
    refT.push_back(r.reference.perStepSeconds);
    exT.push_back(r.executor.perStepSeconds);
  }
  std::printf("%s\n",
              bench::renderTable(
                  strprintf("Steady-state data move, %lld elements, %d "
                            "processors, %d steps [wall ms per step]",
                            static_cast<long long>(n), kProcs, steps),
                  cols,
                  {
                      bench::Row{"reference (copy per step)", refT, {}},
                      bench::Row{"executor (compiled kernels)", exT, {}},
                  })
                  .c_str());
  for (const CaseResult& r : results) {
    std::printf(
        "%-22s speedup %4.2fx   bytes copied/step: "
        "%11.0f -> %3.0f   allocations/step: %6.0f -> %2.0f\n",
        r.name, r.speedup(),
        r.reference.bytesCopied / steps, r.executor.bytesCopied / steps,
        r.reference.allocations / steps, r.executor.allocations / steps);
    std::printf(
        "%-22s kernel exec/step: contiguous %4.0f  strided %4.0f  "
        "run_list %4.0f  index_list %4.0f\n",
        "", r.kernels.contiguous, r.kernels.strided, r.kernels.runList,
        r.kernels.indexList);
  }
  std::printf(
      "\nsplit-phase overlap (ring exchange, compute ~ comm, virtual "
      "clock):\n"
      "  blocking    %8.3f ms/step\n"
      "  split-phase %8.3f ms/step   speedup %4.2fx   drained early/step: "
      "%4.0f   allocations/step: %2.0f\n",
      overlap.blocking.perStepSeconds * 1e3,
      overlap.split.perStepSeconds * 1e3, overlap.speedup(),
      overlap.split.drainedEarly / steps,
      overlap.split.allocations / steps);
  std::printf(
      "\nFigure-1 edge sweep (%.0f interior + %.0f boundary edges, %d "
      "procs, wall clock):\n"
      "  two ghost buffers   %8.3f ms/step\n"
      "  one index space     %8.3f ms/step   speedup %4.2fx   y bitwise "
      "equal: %s\n",
      edgeSweep.interiorEdges, edgeSweep.boundaryEdges, kProcs,
      edgeSweep.reference.perStepSeconds * 1e3,
      edgeSweep.sweep.perStepSeconds * 1e3, edgeSweep.speedup(),
      edgeSweep.bitwiseEqual ? "yes" : "NO");
  std::printf(
      "\nnode aggregation under contention (%d procs on %d nodes, "
      "%lld doubles/peer all-to-all, virtual clock):\n"
      "  flat        %8.3f ms/step   inter-node msgs/step %4.0f\n"
      "  aggregated  %8.3f ms/step   inter-node msgs/step %4.0f   "
      "forwarded/step %4.0f   speedup %4.2fx\n",
      kProcs, kAggNodes, static_cast<long long>(kAggBlock),
      contention.flat.perStepSeconds * 1e3,
      contention.flat.interNodeMessages / steps,
      contention.aggregated.perStepSeconds * 1e3,
      contention.aggregated.interNodeMessages / steps,
      contention.aggregated.forwardedMessages / steps,
      contention.speedup());

  // Span-recorded rerun of the split-phase overlap case, exported as a
  // Chrome trace.  A separate world, so span recording cannot perturb the
  // measured legs above; each rank calibrates its own synthetic load.
  obs::TraceCollector trace;
  obs::setEnabled(true);
  transport::World::runSPMD(kProcs, [&](transport::Comm& c) {
    constexpr int kTraceSteps = 3;
    const Index block = n / kProcs + 1;
    const sched::Schedule plan = makeRingPlan(c, block);
    std::vector<double> src(static_cast<size_t>(block), 1.0);
    std::vector<double> dst(static_cast<size_t>(2 * block), 0.0);
    const std::span<const double> srcSpan(src);
    const std::span<double> dstSpan(dst);
    sched::Executor<double> ex(c, plan);
    const double v0 = c.now();
    for (int i = 0; i < kTraceSteps; ++i) ex.run(srcSpan, dstSpan);
    const double load = (c.now() - v0) / kTraceSteps;
    c.barrier();
    obs::threadRegistry().clearSpans();  // warmup/calibration spans out
    for (int i = 0; i < kTraceSteps; ++i) {
      auto pending = ex.start(srcSpan);
      obs::ScopedSpan compute(obs::phase::kCompute);
      c.advance(load);  // caller compute, away from the footprint
      compute.end();
      pending.poll();
      pending.finish(dstSpan);
    }
    trace.add(c.program(), c.globalRank(),
              strprintf("prog%d/rank%d", c.program(), c.rank()),
              obs::threadRegistry().takeSpans());
  });
  obs::setEnabled(false);
  obs::writeChromeTrace("TRACE_data_move_overlap.json", trace);

  obs::BenchReport report("data_move");
  report.config("procs", kProcs);
  report.config("side", static_cast<double>(side));
  report.config("elements", static_cast<double>(n));
  report.config("steps", steps);
  report.config("overlap_clock", "virtual");
  const auto legMetrics = [](obs::BenchReport::Case& cs,
                             const std::string& prefix, const Leg& l) {
    cs.metric(prefix + ".per_step_seconds", l.perStepSeconds);
    cs.metric(prefix + ".bytes_copied", l.bytesCopied);
    cs.metric(prefix + ".allocations", l.allocations);
    cs.metric(prefix + ".messages", l.messages);
  };
  // Per-link-class traffic; every case carries the unprefixed six (the
  // validator requires them finite), attributed to the case's primary leg.
  const auto linkMetrics = [](obs::BenchReport::Case& cs,
                              const std::string& prefix, const Leg& l) {
    cs.metric(prefix + "inter_node.messages", l.interNodeMessages);
    cs.metric(prefix + "inter_node.bytes", l.interNodeBytes);
    cs.metric(prefix + "intra_node.messages", l.intraNodeMessages);
    cs.metric(prefix + "intra_node.bytes", l.intraNodeBytes);
    cs.metric(prefix + "forwarded.messages", l.forwardedMessages);
    cs.metric(prefix + "forwarded.bytes", l.forwardedBytes);
  };
  const char* jsonNames[] = {"regular_to_regular", "irregular_to_irregular"};
  for (size_t i = 0; i < results.size(); ++i) {
    obs::BenchReport::Case& cs = report.addCase(jsonNames[i]);
    legMetrics(cs, "reference", results[i].reference);
    legMetrics(cs, "executor", results[i].executor);
    cs.metric("speedup", results[i].speedup());
    cs.metric("copy_ratio", results[i].copyRatio());
    cs.metric("kernel_exec_per_step.contiguous", results[i].kernels.contiguous);
    cs.metric("kernel_exec_per_step.strided", results[i].kernels.strided);
    cs.metric("kernel_exec_per_step.run_list", results[i].kernels.runList);
    cs.metric("kernel_exec_per_step.index_list", results[i].kernels.indexList);
    linkMetrics(cs, "link.", results[i].executor);
  }
  obs::BenchReport::Case& ov = report.addCase("split_phase_overlap");
  ov.metric("comm_seconds", overlap.commSeconds);
  ov.metric("blocking.per_step_seconds", overlap.blocking.perStepSeconds);
  ov.metric("blocking.allocations", overlap.blocking.allocations);
  ov.metric("blocking.messages", overlap.blocking.messages);
  ov.metric("split_phase.per_step_seconds", overlap.split.perStepSeconds);
  ov.metric("split_phase.allocations", overlap.split.allocations);
  ov.metric("split_phase.messages", overlap.split.messages);
  ov.metric("split_phase.messages_drained_early", overlap.split.drainedEarly);
  ov.metric("speedup", overlap.speedup());
  linkMetrics(ov, "link.", overlap.split);
  obs::BenchReport::Case& ag = report.addCase("node_aggregation_contention");
  ag.metric("nodes", kAggNodes);
  ag.metric("procs_per_node", kProcs / kAggNodes);
  ag.metric("block_elements", static_cast<double>(kAggBlock));
  ag.metric("flat.per_step_seconds", contention.flat.perStepSeconds);
  ag.metric("flat.messages", contention.flat.messages);
  linkMetrics(ag, "flat.link.", contention.flat);
  ag.metric("aggregated.per_step_seconds",
            contention.aggregated.perStepSeconds);
  ag.metric("aggregated.messages", contention.aggregated.messages);
  linkMetrics(ag, "link.", contention.aggregated);
  // Inter-node sends per rank per step in aggregated mode; the node
  // aggregation invariant bounds this by nodes - 1.
  ag.metric("inter_node_messages_per_rank_step",
            contention.aggregated.interNodeMessages / steps / kProcs);
  ag.metric("speedup", contention.speedup());
  obs::BenchReport::Case& es = report.addCase("chaos_edge_sweep");
  es.metric("interior_edges", edgeSweep.interiorEdges);
  es.metric("boundary_edges", edgeSweep.boundaryEdges);
  legMetrics(es, "reference", edgeSweep.reference);
  legMetrics(es, "sweep", edgeSweep.sweep);
  es.metric("speedup", edgeSweep.speedup());
  es.metric("bitwise_equal", edgeSweep.bitwiseEqual ? 1 : 0);
  linkMetrics(es, "link.", edgeSweep.sweep);
  report.write("BENCH_data_move.json");
  std::printf(
      "\nwrote BENCH_data_move.json and TRACE_data_move_overlap.json\n");
  return edgeSweep.bitwiseEqual ? 0 : 1;
}
