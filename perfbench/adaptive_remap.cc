// adaptive_remap — repartitioning at run time (the micro_repartition
// pattern as a steady workload).
//
// One program, 4 ranks.  A block-distributed Parti mesh feeds a Chaos
// array whose RCB partition follows a drifting particle cloud.  Each epoch
// (one op): the cloud shears, RCB reassigns points, stableRemapOrder keeps
// survivors in place, migratedGlobals names the movers, the payload moves
// through buildRedistMove, the copy schedule is repaired through
// ScheduleCache::getOrPatch and Executor::rebind, and a few copy steps
// run.  The drift steps back every other epoch and reverses at a fold, so
// some epochs return to an earlier shape and hit the schedule cache; the
// rest patch.
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "chaos/migration.h"
#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/schedule_cache.h"
#include "obs/trace.h"
#include "sched/executor.h"
#include "transport/world.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using mc::layout::Index;
using mc::layout::Point;
using mc::transport::Comm;

constexpr int kRanks = 4;
constexpr Index kSide = 128;  // 16384 points: the set stays in cache
constexpr int kSetupRepetitions = 25;
constexpr int kCopySteps = 3;         // copy steps per epoch
constexpr int kCheckEvery = 16;       // oracle on every 16th epoch
constexpr int kWarmupEpochs = 8;      // before the measured window
constexpr double kShearPerEpoch = 1.5;
constexpr long long kFold = 30;  // drift positions before the drift reverses
// Drift positions start here, so the cloud stays wider than tall and RCB's
// first cut never flips axis (a flip would migrate half the points).
constexpr long long kShearBase = 12;
constexpr double kQueryCost = 15e-6;  // micro_repartition's modeled cost
// Stated band of the per-epoch migration fraction: small, nonzero moves.
constexpr double kMigrationLo = 0.002;
constexpr double kMigrationHi = 0.05;
constexpr auto kMethod = mc::core::Method::kDuplication;

/// Seeded inputs: per-particle jitter.
struct Inputs {
  Index side = 0;
  std::vector<double> jitterX, jitterY;
};

Inputs makeInputs(Index side, std::uint64_t seed) {
  Inputs in;
  in.side = side;
  mc::Rng rng(seed);
  const auto n = static_cast<std::size_t>(kSide * kSide);
  in.jitterX.resize(n);
  in.jitterY.resize(n);
  for (std::size_t g = 0; g < n; ++g) {
    in.jitterX[g] = 0.5 * rng.uniform();
    in.jitterY[g] = 0.5 * rng.uniform();
  }
  return in;
}

/// Shear after `epoch` epochs.  The drift position moves +1, +1, -1, +1
/// epoch by epoch, so every other epoch returns to a shape it just left,
/// and folds back at kFold, so the shear stays bounded and the workload is
/// stationary; shapes from before a fold have left the schedule cache by
/// the time the drift returns to them.
double shearAt(long long epoch) {
  static constexpr long long kOffset[] = {0, 1, 2, 1};
  const long long q = 2 * (epoch / 4) + kOffset[epoch % 4];
  const long long m = q % (2 * kFold);
  return kShearPerEpoch *
         static_cast<double>(kShearBase + (m <= kFold ? m : 2 * kFold - m));
}

void cloudAt(const Inputs& in, double shear, std::vector<double>& x,
             std::vector<double>& y) {
  const Index s = in.side;
  x.resize(static_cast<std::size_t>(s * s));
  y.resize(x.size());
  for (Index g = 0; g < s * s; ++g) {
    const auto i = static_cast<std::size_t>(g);
    const double row = static_cast<double>(g / s) + in.jitterY[i];
    const double col = static_cast<double>(g % s) + in.jitterX[i];
    x[i] = col + shear * (row / static_cast<double>(s));
    y[i] = row;
  }
}

bool plansEqual(const mc::sched::Schedule& a, const mc::sched::Schedule& b) {
  const auto same = [](const auto& p, const auto& q) {
    if (p.size() != q.size()) return false;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i].peer != q[i].peer || p[i].runs != q[i].runs ||
          p[i].offsets != q[i].offsets) {
        return false;
      }
    }
    return true;
  };
  return same(a.sends, b.sends) && same(a.recvs, b.recvs) &&
         a.localRuns == b.localRuns && a.localPairs == b.localPairs;
}

/// Timings of the calls into the core layer on this rank.
struct CoreCalls {
  double buildHost = 0, buildVirtual = 0, builds = 0;  // non-hit calls
  double ttableHost = 0, ttables = 0;
  double migrated = 0, epochs = 0;
};

/// One rank's adaptive state.
struct Remap {
  Comm& comm;
  const Inputs& in;
  const Index n;
  mc::parti::BlockDistArray<double> a;
  mc::core::SetOfRegions aSet, xSet;
  std::vector<double> xc, yc;
  std::shared_ptr<mc::chaos::IrregArray<double>> cur;
  std::shared_ptr<const mc::core::McSchedule> sched;
  std::optional<mc::sched::Executor<double>> ex;
  long long epoch = 0;
  CoreCalls calls;

  Remap(Comm& c, const Inputs& inputs)
      : comm(c),
        in(inputs),
        n(inputs.side * inputs.side),
        a(c, mc::layout::Shape::of({inputs.side, inputs.side}), 1) {
    const Index s = in.side;
    a.fillByPoint(
        [&](const Point& p) { return static_cast<double>(p[0] * s + p[1]); });
    aSet.add(mc::core::Region::section(
        mc::layout::RegularSection::box({0, 0}, {s - 1, s - 1})));
    std::vector<Index> ids(static_cast<std::size_t>(n));
    std::iota(ids.begin(), ids.end(), Index{0});
    xSet.add(mc::core::Region::indices(std::move(ids)));
    cloudAt(in, shearAt(0), xc, yc);
    cur = makeArray(mc::chaos::rcbPartition(xc, yc, comm.size(), comm.rank()));
    cur->fillByGlobal([](Index g) { return 1000.0 + static_cast<double>(g); });
  }

  std::shared_ptr<mc::chaos::IrregArray<double>> makeArray(
      const std::vector<Index>& mine) {
    const double t0 = hostNow();
    std::shared_ptr<const mc::chaos::TranslationTable> table;
    {
      mc::obs::ScopedSpan s(span::kTtableBuild);
      table = std::make_shared<const mc::chaos::TranslationTable>(
          mc::chaos::TranslationTable::build(
              comm, mine, n, mc::chaos::TranslationTable::Storage::kReplicated,
              kQueryCost));
    }
    calls.ttableHost += hostNow() - t0;
    calls.ttables += 1;
    return std::make_shared<mc::chaos::IrregArray<double>>(comm, table, mine);
  }

  /// The inspector phase before the first epoch.
  void build() {
    sched = mc::core::defaultScheduleCache().getOrBuild(
        comm, mc::core::PartiAdapter::describe(a), aSet,
        mc::core::ChaosAdapter::describe(*cur), xSet, kMethod);
    ex.emplace(comm, std::shared_ptr<const mc::sched::Schedule>(
                         sched, &sched->plan));
  }

  /// One repartition epoch.
  void step() {
    ++epoch;
    std::vector<Index> newMine, migrated;
    {
      mc::obs::ScopedSpan s(span::kRepartition);
      cloudAt(in, shearAt(epoch), xc, yc);
      newMine = mc::chaos::stableRemapOrder(
          cur->myGlobals(),
          mc::chaos::rcbPartition(xc, yc, comm.size(), comm.rank()));
      migrated = mc::chaos::migratedGlobals(comm, cur->myGlobals(), newMine, n);
    }
    calls.migrated += static_cast<double>(migrated.size());
    calls.epochs += 1;
    const mc::layout::DistDelta delta =
        mc::core::deltaFromMigratedIndices(xSet, migrated);
    std::shared_ptr<mc::chaos::IrregArray<double>> next = makeArray(newMine);
    const mc::core::DistObject aObj = mc::core::PartiAdapter::describe(a);
    const mc::core::DistObject curObj = mc::core::ChaosAdapter::describe(*cur);
    const mc::core::DistObject nextObj =
        mc::core::ChaosAdapter::describe(*next);
    {
      // Payload migration: unmigrated elements keep (owner, offset), so an
      // overlap copy carries them; the redistribution move moves the rest.
      mc::obs::ScopedSpan s(span::kRedistMove);
      const auto src = cur->raw();
      const auto dst = next->raw();
      std::copy_n(src.begin(), std::min(src.size(), dst.size()), dst.begin());
      const mc::sched::Schedule move =
          mc::core::buildRedistMove(comm, curObj, nextObj, xSet, delta);
      mc::sched::execute<double>(comm, move, src, dst, comm.nextUserTag());
    }
    {
      mc::obs::ScopedSpan s(span::kCacheLookup);
      mc::core::ScheduleCache& cache = mc::core::defaultScheduleCache();
      const auto hits = cache.stats().hits;
      const double h0 = hostNow();
      const double v0 = comm.now();
      sched = cache.getOrPatch(comm, aObj, aObj, aSet, curObj, nextObj, xSet,
                               delta, kMethod);
      if (cache.stats().hits == hits) {
        calls.buildHost += hostNow() - h0;
        calls.buildVirtual += comm.now() - v0;
        calls.builds += 1;
      }
    }
    {
      mc::obs::ScopedSpan s(span::kRebind);
      ex->rebind(std::shared_ptr<const mc::sched::Schedule>(sched,
                                                            &sched->plan));
    }
    for (int k = 0; k < kCopySteps; ++k) {
      mc::obs::ScopedSpan s(span::kExecRun);
      ex->run(a.raw(), next->raw(), comm.nextUserTag());
    }
    cur = std::move(next);
  }

  /// Oracle (sampled epochs): the repaired plan equals a fresh build, and
  /// the data it moved is bitwise equal to the fresh plan's.  Collective.
  bool check() {
    if (epoch % kCheckEvery != 0) return true;
    const mc::core::McSchedule fresh = mc::core::computeSchedule(
        comm, mc::core::PartiAdapter::describe(a), aSet,
        mc::core::ChaosAdapter::describe(*cur), xSet, kMethod);
    bool ok = plansEqual(sched->plan, fresh.plan) &&
              sched->sendSegs == fresh.sendSegs &&
              sched->recvSegs == fresh.recvSegs;
    std::vector<double> viaFresh(cur->raw().size(), -1.0);
    mc::sched::execute<double>(comm, fresh.plan, a.raw(),
                               std::span<double>(viaFresh),
                               comm.nextUserTag());
    const auto moved = cur->raw();
    ok = ok && std::equal(moved.begin(), moved.end(), viaFresh.begin());
    return comm.allreduceSum(ok ? 0.0 : 1.0) == 0.0;
  }
};

}  // namespace

void runAdaptiveRemap(const Options& opt, Results& r) {
  const int reps = opt.trace ? 1 : kSetupRepetitions;
  std::vector<double> setupSeconds, buildHost, buildVirtual;
  OpSamples ops, untraced;
  CounterSum loop, all;
  double poolAcquires = 0, poolHits = 0;
  CoreCalls calls;
  double patches = 0, fallbacks = 0;
  Ledger ledger;
  mc::obs::TraceCollector trace;

  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = hostNow();
    const Inputs inputs = makeInputs(kSide, opt.seed);
    const bool last = rep + 1 == reps;
    mc::transport::World::runSPMD(kRanks, [&](Comm& comm) {
      pinThread(comm.rank());
      Remap m(comm, inputs);
      comm.barrier();
      if (comm.rank() == 0) setupSeconds.push_back(hostNow() - t0);
      const CounterEpoch buildEpoch;
      const double h0 = hostNow();
      const double v0 = comm.now();
      m.build();
      comm.barrier();
      if (comm.rank() == 0) {
        buildHost.push_back(hostNow() - h0);
        buildVirtual.push_back(comm.now() - v0);
      }
      if (!last) return;
      all.add(buildEpoch.delta());

      const auto step = [&] { m.step(); };
      const auto check = [&] { return m.check(); };
      for (int e = 0; e < kWarmupEpochs; ++e) step();
      if (opt.trace) {
        timedOps(comm, opt.seconds / 2, untraced, step, check);
        comm.barrier();
        if (comm.rank() == 0) mc::obs::setEnabled(true);
        useHostSpanClock();
        comm.barrier();
      }
      m.calls = CoreCalls{};
      mc::core::ScheduleCache& cache = mc::core::defaultScheduleCache();
      const double patches0 = static_cast<double>(cache.patches());
      const double fallbacks0 = static_cast<double>(cache.patchFallbacks());
      const CounterEpoch loopEpoch;
      timedOps(comm, opt.trace ? opt.seconds / 2 : opt.seconds, ops, step,
               check);
      const mc::obs::Snapshot loopDelta = loopEpoch.delta();
      loop.add(loopDelta);
      all.add(loopDelta);
      if (comm.rank() == 0) {
        poolAcquires = loopDelta.get("transport.pool.acquires");
        poolHits = loopDelta.get("transport.pool.hits");
        calls = m.calls;
        patches = static_cast<double>(cache.patches()) - patches0;
        fallbacks = static_cast<double>(cache.patchFallbacks()) - fallbacks0;
      }
      comm.barrier();
      if (opt.trace) {
        if (comm.rank() == 0) mc::obs::setEnabled(false);
        std::vector<mc::obs::SpanRecord> spans =
            mc::obs::threadRegistry().takeSpans();
        ledger.addRank(spans);
        spans.resize(std::min(spans.size(), kTraceSpansPerRank));
        trace.add(comm.program(), comm.globalRank(),
                  "remap/" + std::to_string(comm.rank()), std::move(spans));
      }
    });
  }

  const double points = static_cast<double>(kSide * kSide);
  const double migration =
      calls.epochs > 0 ? calls.migrated / (calls.epochs * points) : 0.0;
  r.note("points", points);
  r.note("ranks", kRanks);
  r.note("copy_steps_per_epoch", kCopySteps);
  r.note("oracle_every_epochs", kCheckEvery);
  r.note("migration_band_lo", kMigrationLo);
  r.note("migration_band_hi", kMigrationHi);
  r.note("migration_fraction", migration);
  const double lookups = patches + fallbacks;
  r.note("epochs_patched", patches);
  r.note("epochs_rebuilt", fallbacks);
  r.note("epochs_cache_hit", calls.epochs - lookups);
  if (migration < kMigrationLo || migration > kMigrationHi) {
    std::fprintf(stderr, "adaptive_remap: migration fraction %.4f outside "
                         "[%.3f, %.3f]\n", migration, kMigrationLo,
                 kMigrationHi);
    r.correct = false;
  }
  if (ops.failed > 0) r.correct = false;

  if (!opt.trace) {
    reportEndToEnd(r, ops, setupSeconds, median(buildHost),
                   median(buildVirtual));
    return;
  }
  r.attempted = ops.attempted + untraced.attempted;
  r.failed = ops.failed + untraced.failed;
  if (untraced.failed > 0) r.correct = false;
  const double opsN = static_cast<double>(ops.host.size());
  reportCounters(r, loop, all, opsN, poolAcquires, poolHits);
  reportLedger(r, ledger);
  const double builds = std::max(1.0, calls.builds);
  r.set("core.build_s_per_call", calls.buildHost / builds, "s", "host");
  r.set("core.build_virtual_s_per_call", calls.buildVirtual / builds, "s",
        "virtual");
  r.set("core.ownership_table_bytes",
        all.get("build.ownership_table_bytes_total") /
            std::max(1.0, all.get("build.count")),
        "B");
  r.set("core.sched_cache.patch_ratio", lookups > 0 ? patches / lookups : 0.0,
        "ratio");
  r.set("chaos.ttable_build_s", calls.ttableHost / std::max(1.0, calls.ttables),
        "s", "host");
  r.set("chaos.migration_fraction", migration, "ratio");
  const double tracedRate = opsN / ops.loopSeconds;
  const double untracedRate =
      static_cast<double>(untraced.host.size()) / untraced.loopSeconds;
  r.set("obs.trace_overhead_frac", 1.0 - tracedRate / untracedRate, "ratio");
  mc::obs::writeChromeTrace(opt.outDir + "/TRACE_adaptive_remap.json", trace);
}

}  // namespace perfbench
