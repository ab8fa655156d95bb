// Ablation: processor-local transfers — direct copy (Meta-Chaos) vs an
// intermediate staging buffer (Multiblock Parti's behaviour).
//
// The paper (Section 5.3) credits Meta-Chaos's better 2-processor copy time
// in Table 5 to exactly this difference: "Meta-Chaos performs a direct copy
// between the storage for the source and destination, while Multiblock
// Parti requires an intermediate buffer."  This ablation isolates the
// effect with a copy whose transfers are almost entirely local.
#include <cstdio>

#include "common/bench_util.h"
#include "core/adapters/parti_adapter.h"
#include "core/data_move.h"

using namespace mc;
using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;

int main() {
  constexpr Index kSide = 1000;
  constexpr int kIters = 5;
  const std::vector<int> procs = {1, 2, 4};

  std::vector<double> direct, staged;
  for (int np : procs) {
    double tDirect = 0, tStaged = 0;
    transport::World::runSPMD(np, [&](transport::Comm& c) {
      parti::BlockDistArray<double> a(c, Shape::of({kSide, kSide}), 0);
      parti::BlockDistArray<double> b(c, Shape::of({kSide, kSide}), 0);
      a.fillByPoint([](const Point& p) { return static_cast<double>(p[0] + p[1]); });
      // Same section both sides: every transfer is processor-local.
      core::SetOfRegions set;
      set.add(core::Region::section(
          RegularSection::box({0, 0}, {kSide - 1, kSide - 1})));
      core::McSchedule sched = core::computeSchedule(
          c, core::PartiAdapter::describe(a), set,
          core::PartiAdapter::describe(b), set);
      // Parti-style staging runs on its own copy of the schedule: the
      // executor bound to `sched` keeps the plan it was bound with.
      core::McSchedule staging = sched;
      staging.plan.bufferLocalCopies = true;
      // One untimed move per leg binds its executor and touches its
      // buffers, so the timed loops see only the per-copy cost.
      core::dataMove<double>(c, sched, a.raw(), b.raw());
      core::dataMove<double>(c, staging, a.raw(), b.raw());
      bench::PhaseTimer timer(c);
      for (int it = 0; it < kIters; ++it) {
        core::dataMove<double>(c, sched, a.raw(), b.raw());
      }
      const double d = timer.lap() / kIters;
      for (int it = 0; it < kIters; ++it) {
        core::dataMove<double>(c, staging, a.raw(), b.raw());
      }
      const double s = timer.lap() / kIters;
      if (c.rank() == 0) {
        tDirect = d;
        tStaged = s;
      }
    });
    direct.push_back(tDirect);
    staged.push_back(tStaged);
  }
  std::vector<std::string> cols;
  for (int np : procs) cols.push_back("P=" + std::to_string(np));
  std::printf("%s\n",
              bench::renderTable(
                  "Ablation: local-copy path, 1000x1000 all-local copy [ms]",
                  cols,
                  {
                      bench::Row{"direct (Meta-Chaos)", direct, {}},
                      bench::Row{"staging buffer (Parti-style)", staged, {}},
                  })
                  .c_str());
  std::printf("expected: the staging buffer pays an extra pass over the "
              "data, so the direct path wins.\n");
  return 0;
}
