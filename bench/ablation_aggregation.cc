// Ablation: message aggregation.  Meta-Chaos sends at most one message per
// processor pair (paper Section 4.1.4: "Messages are aggregated, so that at
// most one message is sent between each source and each destination
// processor"); this ablation executes the same schedule with one message
// per *run of elements* instead, showing what aggregation buys under a
// latency-bearing network.
#include <cstdio>

#include "chaos/partition.h"
#include "common/bench_util.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/data_move.h"

using namespace mc;
using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;

namespace {

/// Unaggregated executor: one message per 64-element slice of each plan.
void executeUnaggregated(transport::Comm& c, const core::McSchedule& sched,
                         std::span<const double> src, std::span<double> dst) {
  constexpr size_t kSlice = 64;
  const int tag = c.nextUserTag();
  for (const sched::OffsetPlan& plan : sched.plan.sends) {
    const std::vector<Index> offsets =
        sched::expandOffsets(std::span<const sched::OffsetRun>(plan.runs));
    for (size_t base = 0; base < offsets.size(); base += kSlice) {
      const size_t end = std::min(offsets.size(), base + kSlice);
      std::vector<double> buf;
      c.compute([&] {
        buf.reserve(end - base);
        for (size_t i = base; i < end; ++i) {
          buf.push_back(src[static_cast<size_t>(offsets[i])]);
        }
      });
      c.send(plan.peer, tag, buf);
    }
  }
  c.compute([&] {
    sched::copyLocalRuns(std::span<const sched::LocalRun>(sched.plan.localRuns),
                         src, dst);
  });
  for (const sched::OffsetPlan& plan : sched.plan.recvs) {
    const std::vector<Index> offsets =
        sched::expandOffsets(std::span<const sched::OffsetRun>(plan.runs));
    for (size_t base = 0; base < offsets.size(); base += kSlice) {
      const size_t end = std::min(offsets.size(), base + kSlice);
      const std::vector<double> buf = c.recv<double>(plan.peer, tag);
      MC_REQUIRE(buf.size() == end - base, "slice mismatch: rank %d peer %d got %zu want %zu planlen %zu", c.rank(), plan.peer, buf.size(), end - base, offsets.size());
      c.compute([&] {
        for (size_t i = base; i < end; ++i) {
          dst[static_cast<size_t>(offsets[i])] = buf[i - base];
        }
      });
    }
  }
}

}  // namespace

int main() {
  const Index n = 65536;
  constexpr int kIters = 3;
  const std::vector<int> procs = {2, 4, 8};
  std::vector<double> agg, unagg;
  std::vector<double> aggMsgs, unaggMsgs;

  for (int np : procs) {
    double tAgg = 0, tUnagg = 0, mAgg = 0, mUnagg = 0;
    transport::World::runSPMD(np, [&](transport::Comm& c) {
      parti::BlockDistArray<double> a(c, Shape::of({256, 256}), 0);
      a.fillByPoint([](const Point& p) { return static_cast<double>(p[0]); });
      const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 3);
      auto table = std::make_shared<const chaos::TranslationTable>(
          chaos::TranslationTable::build(
              c, mine, n, chaos::TranslationTable::Storage::kDistributed));
      chaos::IrregArray<double> x(c, table, mine);
      core::SetOfRegions srcSet, dstSet;
      srcSet.add(core::Region::section(RegularSection::box({0, 0}, {255, 255})));
      std::vector<Index> ids(static_cast<size_t>(n));
      for (Index k = 0; k < n; ++k) ids[static_cast<size_t>(k)] = k;
      dstSet.add(core::Region::indices(ids));
      const core::McSchedule sched = core::computeSchedule(
          c, core::PartiAdapter::describe(a), srcSet,
          core::ChaosAdapter::describe(x), dstSet);

      bench::PhaseTimer timer(c);
      c.resetStats();
      for (int it = 0; it < kIters; ++it) {
        core::dataMove<double>(c, sched, a.raw(), x.raw());
      }
      const double t1 = timer.lap() / kIters;
      const double m1 =
          static_cast<double>(c.stats().messagesSent) / kIters;
      c.resetStats();
      for (int it = 0; it < kIters; ++it) {
        executeUnaggregated(c, sched, a.raw(), x.raw());
      }
      const double t2 = timer.lap() / kIters;
      const double m2 =
          static_cast<double>(c.stats().messagesSent) / kIters;
      if (c.rank() == 0) {
        tAgg = t1;
        tUnagg = t2;
        mAgg = m1;
        mUnagg = m2;
      }
    });
    agg.push_back(tAgg);
    unagg.push_back(tUnagg);
    aggMsgs.push_back(mAgg);
    unaggMsgs.push_back(mUnagg);
  }
  std::vector<std::string> cols;
  for (int np : procs) cols.push_back("P=" + std::to_string(np));
  std::printf("%s\n",
              bench::renderTable(
                  "Ablation: message aggregation, 65536-element "
                  "regular->irregular copy [ms]",
                  cols,
                  {
                      bench::Row{"aggregated (1 msg/pair)", agg, {}},
                      bench::Row{"64-element slices", unagg, {}},
                  })
                  .c_str());
  std::printf("messages per iteration on rank 0: aggregated %.0f/%.0f/%.0f, "
              "sliced %.0f/%.0f/%.0f\n",
              aggMsgs[0], aggMsgs[1], aggMsgs[2], unaggMsgs[0], unaggMsgs[1],
              unaggMsgs[2]);
  return 0;
}
