// Micro benchmark for incremental delta schedules under an adaptive
// workload (DESIGN.md §14).
//
// A regular Parti mesh feeds an irregularly partitioned Chaos mesh whose
// RCB partition tracks a slowly shearing particle cloud: each epoch the
// coordinates drift, the RCB partitioner reassigns a small fraction of the
// points, and the copy schedule must follow.  Two strategies per epoch:
//
//   full_rebuild — a fresh inspector build against the new distribution
//                  (duplication method: both descriptors enumerated, cost
//                  proportional to the whole set);
//   patch        — core::patchSchedule against the migrated-interval delta
//                  (cost proportional to the migration), with the payload
//                  moved by the generated redistribution move and the
//                  executor re-bound in place.
//
// Both produce bit-identical schedules and bit-identical data movement —
// the bench verifies this every epoch — so the entire gap is inspector
// cost.  stableRemapOrder keeps surviving elements at their old offsets;
// without it every epoch would migrate everything and the delta machinery
// would have nothing to reuse.  Emits BENCH_repartition.json (mc-bench-v1)
// with migration_fraction and bytes_migrated so the validator can check
// the workload stayed in the small-migration regime.
#include <cstdio>
#include <numeric>

#include "chaos/migration.h"
#include "chaos/partition.h"
#include "common/bench_util.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/copy_regions.h"
#include "layout/dist_delta.h"
#include "obs/json.h"

using namespace mc;
using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;

namespace {

constexpr int kProcs = 8;
constexpr Index kSide = 96;  // 96x96 cloud -> 9216 irregular points
constexpr Index kN = kSide * kSide;
constexpr int kEpochs = 8;
constexpr double kShearPerEpoch = 0.35;  // tuned: <10% migration per epoch
constexpr double kQueryCost = 15e-6;     // modeled Chaos dereference cost

/// Particle coordinates after `epochs` of shear drift: rows slide right
/// proportionally to their height, so RCB's vertical cuts capture a slowly
/// changing population.
void cloudAt(int epochs, std::vector<double>& x, std::vector<double>& y) {
  x.resize(static_cast<std::size_t>(kN));
  y.resize(static_cast<std::size_t>(kN));
  const double t = kShearPerEpoch * epochs;
  for (Index g = 0; g < kN; ++g) {
    const double row = static_cast<double>(g / kSide);
    const double col = static_cast<double>(g % kSide);
    x[static_cast<std::size_t>(g)] =
        col + t * (row / static_cast<double>(kSide));
    y[static_cast<std::size_t>(g)] = row;
  }
}

std::shared_ptr<chaos::IrregArray<double>> makeArray(
    transport::Comm& c, const std::vector<Index>& mine) {
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(
          c, mine, kN, chaos::TranslationTable::Storage::kReplicated,
          kQueryCost));
  return std::make_shared<chaos::IrregArray<double>>(c, table, mine);
}

bool plansEqual(const sched::Schedule& a, const sched::Schedule& b) {
  if (a.sends.size() != b.sends.size() || a.recvs.size() != b.recvs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sends.size(); ++i) {
    if (a.sends[i].peer != b.sends[i].peer ||
        a.sends[i].runs != b.sends[i].runs) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.recvs.size(); ++i) {
    if (a.recvs[i].peer != b.recvs[i].peer ||
        a.recvs[i].runs != b.recvs[i].runs) {
      return false;
    }
  }
  return a.localRuns == b.localRuns;
}

struct EpochResult {
  double rebuildSeconds = 0;
  double patchSeconds = 0;
  Index migrated = 0;
  bool identical = true;       // plans + provenance patched == rebuilt
  bool dataIdentical = true;   // executed destination bitwise equal
};

}  // namespace

int main() {
  std::vector<EpochResult> epochs(kEpochs);
  std::uint64_t rebindAllocations = ~0ull;
  transport::World::runSPMD(kProcs, [&](transport::Comm& c) {
    // Fixed source: a block-distributed regular mesh covering the cloud.
    parti::BlockDistArray<double> a(c, Shape::of({kSide, kSide}),
                                    /*ghost=*/1);
    a.fillByPoint([](const Point& p) {
      return static_cast<double>(p[0] * kSide + p[1]);
    });
    const core::DistObject aObj = core::PartiAdapter::describe(a);
    core::SetOfRegions aSet;
    aSet.add(core::Region::section(
        RegularSection::box({0, 0}, {kSide - 1, kSide - 1})));
    // Destination set: the identity index list (lin == global index), so
    // deltaFromMigratedIndices maps migrated globals 1:1.
    core::SetOfRegions xSet;
    std::vector<Index> ids(static_cast<std::size_t>(kN));
    std::iota(ids.begin(), ids.end(), Index{0});
    xSet.add(core::Region::indices(ids));

    std::vector<double> xc, yc;
    cloudAt(0, xc, yc);
    auto cur = makeArray(c, chaos::rcbPartition(xc, yc, kProcs, c.rank()));
    cur->fillByGlobal([](Index g) { return 1000.0 + static_cast<double>(g); });

    core::McSchedule sched = core::computeSchedule(
        c, aObj, aSet, core::ChaosAdapter::describe(*cur), xSet,
        core::Method::kDuplication);
    sched::Executor<double> ex(c, sched.plan);

    bench::PhaseTimer timer(c);
    for (int e = 0; e < kEpochs; ++e) {
      // --- the repartitioning itself (not timed against either leg) ------
      cloudAt(e + 1, xc, yc);
      const std::vector<Index> newMine = chaos::stableRemapOrder(
          cur->myGlobals(), chaos::rcbPartition(xc, yc, kProcs, c.rank()));
      const std::vector<Index> migrated =
          chaos::migratedGlobals(c, cur->myGlobals(), newMine, kN);
      const layout::DistDelta delta =
          core::deltaFromMigratedIndices(xSet, migrated);
      auto next = makeArray(c, newMine);
      const core::DistObject curObj = core::ChaosAdapter::describe(*cur);
      const core::DistObject nextObj = core::ChaosAdapter::describe(*next);

      // Payload migration: unmigrated elements keep (owner, offset) — a
      // straight overlap copy carries them; the generated redistribution
      // move handles exactly the delta-marked rest.
      {
        const auto src = cur->raw();
        auto dst = next->raw();
        for (std::size_t i = 0; i < std::min(src.size(), dst.size()); ++i) {
          dst[i] = src[i];
        }
        const sched::Schedule move =
            core::buildRedistMove(c, curObj, nextObj, xSet, delta);
        sched::execute<double>(c, move, src, dst, c.nextUserTag());
      }
      timer.lap();

      // --- full rebuild leg ---------------------------------------------
      const core::McSchedule rebuilt = core::computeSchedule(
          c, aObj, aSet, nextObj, xSet, core::Method::kDuplication);
      const double tRebuild = timer.lap();

      // --- patch leg ----------------------------------------------------
      const core::McSchedule patched =
          core::patchSchedule(c, sched, delta, aObj, aSet, nextObj, xSet);
      const double tPatch = timer.lap();

      const bool identical = plansEqual(patched.plan, rebuilt.plan) &&
                             patched.sendSegs == rebuilt.sendSegs &&
                             patched.recvSegs == rebuilt.recvSegs;

      // Rebind in place and verify the moved bytes match a rebuilt-and-
      // rebound executor bitwise.  The owning overload keeps the plan
      // alive across iterations after the loop-local `patched` dies.
      ex.rebind(std::make_shared<const sched::Schedule>(patched.plan));
      next->fillByGlobal([](Index) { return -1.0; });
      ex.run(a.raw(), next->raw(), c.nextUserTag());
      const std::vector<double> viaPatch = next->gatherGlobal();
      next->fillByGlobal([](Index) { return -1.0; });
      sched::execute<double>(c, rebuilt.plan, a.raw(), next->raw(),
                             c.nextUserTag());
      const bool dataIdentical = viaPatch == next->gatherGlobal();

      if (c.rank() == 0) {
        epochs[static_cast<std::size_t>(e)] =
            EpochResult{tRebuild, tPatch,
                        static_cast<Index>(migrated.size()), identical,
                        dataIdentical};
      }
      cur = next;
      sched = patched;
    }

    // Steady state after a rebind: one warm-up step repopulates the
    // recycled-buffer set, then a run performs no payload allocations on
    // any rank.  The barrier lets every rank's drained-buffer overflow
    // reach the world pool before any rank's next send asks for it.
    ex.run(a.raw(), cur->raw(), c.nextUserTag());
    c.barrier();
    const auto before = c.stats();
    ex.run(a.raw(), cur->raw(), c.nextUserTag());
    const std::uint64_t allocs = (c.stats() - before).allocations;
    const std::uint64_t worst = static_cast<std::uint64_t>(
        c.allreduceValue(static_cast<double>(allocs),
                         [](double p, double q) { return p > q ? p : q; }));
    if (c.rank() == 0) rebindAllocations = worst;
  });

  double tRebuild = 0, tPatch = 0;
  Index migratedTotal = 0;
  bool allIdentical = true;
  for (const EpochResult& e : epochs) {
    tRebuild += e.rebuildSeconds;
    tPatch += e.patchSeconds;
    migratedTotal += e.migrated;
    allIdentical = allIdentical && e.identical && e.dataIdentical;
  }
  const double migrationFraction =
      static_cast<double>(migratedTotal) /
      (static_cast<double>(kN) * kEpochs);
  const double speedup = tPatch > 0 ? tRebuild / tPatch : 0.0;

  std::printf("%s\n",
              bench::renderTable(
                  strprintf("Repartitioning: %d RCB drift epochs of a %lld-"
                            "point irregular mesh, %d processors [ms]",
                            kEpochs, static_cast<long long>(kN), kProcs),
                  {"total"},
                  {
                      bench::Row{"full rebuild", {tRebuild}, {}},
                      bench::Row{"patch (delta)", {tPatch}, {}},
                  })
                  .c_str());
  std::printf("migration fraction %.4f (avg/epoch), schedules %s, "
              "rebind allocations/step %llu, speedup %.1fx\n",
              migrationFraction,
              allIdentical ? "bit-identical" : "MISMATCH",
              static_cast<unsigned long long>(rebindAllocations), speedup);
  if (!allIdentical) {
    std::fprintf(stderr, "FATAL: patched schedule diverged from rebuild\n");
    return 1;
  }

  obs::BenchReport report("repartition");
  report.config("procs", kProcs);
  report.config("points", static_cast<double>(kN));
  report.config("epochs", kEpochs);
  report.config("shear_per_epoch", kShearPerEpoch);
  obs::BenchReport::Case& rebuild = report.addCase("full_rebuild");
  rebuild.metric("total_seconds", tRebuild);
  rebuild.metric("migration_fraction", migrationFraction);
  rebuild.metric("bytes_migrated",
                 static_cast<double>(migratedTotal) * sizeof(double));
  obs::BenchReport::Case& patch = report.addCase("patch");
  patch.metric("total_seconds", tPatch);
  patch.metric("migration_fraction", migrationFraction);
  patch.metric("bytes_migrated",
               static_cast<double>(migratedTotal) * sizeof(double));
  patch.metric("speedup", speedup);
  patch.metric("schedules_identical", allIdentical ? 1.0 : 0.0);
  patch.metric("rebind_allocations_per_step",
               static_cast<double>(rebindAllocations));
  report.write("BENCH_repartition.json");
  std::printf("wrote BENCH_repartition.json\n");
  return 0;
}
