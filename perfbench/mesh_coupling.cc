// mesh_coupling — the paper's Figure-1 application.
//
// One program, 4 ranks.  A Multiblock Parti BLOCK x BLOCK mesh (ghost
// width 1) is coupled to a Chaos irregular mesh over the same points under
// a random renumbering, with a random partition and a distributed
// translation table.  One Meta-Chaos cooperation build, then time-steps of
// stencil sweep, reg->irreg copy, edge sweep, irreg->reg copy — the calls
// workloads::CoupledMesh makes, with the inputs generated here from the
// seed (the permutation and partition once on the main thread, each
// rank's slice of the grid edges on that rank).
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.h"
#include "chaos/irregular_loop.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/data_move.h"
#include "core/schedule_cache.h"
#include "meshgen/meshgen.h"
#include "obs/trace.h"
#include "parti/sched_cache.h"
#include "parti/stencil.h"
#include "transport/world.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using mc::layout::Index;
using mc::layout::Point;
using mc::transport::Comm;

constexpr int kRanks = 4;
// 512^2 points: each mesh array is 2 MiB; one time-step touches about
// 19 MiB (see opBytesComputed), inside the 105 MiB LLC.  At 2048^2 (304 MiB
// per step, from DRAM) the host op time of the same code spread by a
// quarter from run to run with the memory traffic of the host's other
// tenants; at 1024^2 (76 MiB) a 30 s run held about 100 steps per window,
// too few for a steady p90.
constexpr Index kSide = 512;
constexpr int kSetupRepetitions = 9;
// Each step sums four neighbours, so values grow up to 4x per step; the
// meshes are refilled (outside the timing) before they could overflow.
constexpr int kRefillEvery = 128;
constexpr double kDerefCostSeconds = 30e-6;  // CoupledMeshConfig default
constexpr double kRelTolerance = 1e-12;     // edge-sweep sums reassociate

/// Inputs generated from the seed, shared read-only by the ranks.
struct Inputs {
  Index side = 0;
  std::vector<Index> perm;          // regular point k <-> irregular perm[k]
  std::vector<std::uint8_t> owner;  // owning rank of irregular point g
};

Inputs makeInputs(Index side, std::uint64_t seed) {
  Inputs in;
  in.side = side;
  const Index n = side * side;
  in.perm = mc::meshgen::nodePermutation(n, seed);
  // The assignment chaos::randomPartition computes, made once instead of
  // once per rank.
  mc::Rng rng(seed + 1);
  const std::vector<std::uint64_t> p =
      rng.permutation(static_cast<std::uint64_t>(n));
  in.owner.resize(static_cast<std::size_t>(n));
  for (std::size_t g = 0; g < p.size(); ++g) {
    in.owner[g] = static_cast<std::uint8_t>(p[g] % kRanks);
  }
  return in;
}

/// Grid edges (v, v+1) and (v, v+side) whose first endpoint v lies in
/// [vLo, vHi), renumbered into the irregular numbering.
template <typename F>
void forEachEdge(const Inputs& in, Index vLo, Index vHi, F&& fn) {
  const Index s = in.side;
  for (Index v = vLo; v < vHi; ++v) {
    const Index r = v / s;
    const Index c = v % s;
    const Index pv = in.perm[static_cast<std::size_t>(v)];
    if (c + 1 < s) fn(pv, in.perm[static_cast<std::size_t>(v + 1)]);
    if (r + 1 < s) fn(pv, in.perm[static_cast<std::size_t>(v + s)]);
  }
}

/// One rank's coupled meshes and inspector products.
struct Mesh {
  Comm& comm;
  const Inputs& in;
  double ttableSeconds = 0;
  std::unique_ptr<mc::parti::BlockDistArray<double>> a;
  std::shared_ptr<const mc::chaos::TranslationTable> table;
  std::unique_ptr<mc::chaos::IrregArray<double>> x, y;
  std::vector<Index> ia, ib;
  std::vector<double> scratch;
  std::optional<mc::parti::GhostExchanger<double>> ghosts;
  std::optional<mc::chaos::EdgeSweep<double>> edges;
  std::shared_ptr<const mc::core::McSchedule> fwd, rev;
  int stepsSinceFill = 0;

  Mesh(Comm& c, const Inputs& inputs) : comm(c), in(inputs) {
    const Index s = in.side;
    const Index n = s * s;
    a = std::make_unique<mc::parti::BlockDistArray<double>>(
        comm, mc::layout::Shape::of({s, s}), /*ghost=*/1);
    fillRegular();
    std::vector<Index> mine;
    mine.reserve(static_cast<std::size_t>(n / comm.size() + 1));
    for (Index g = 0; g < n; ++g) {
      if (comm.size() == 1 ||
          in.owner[static_cast<std::size_t>(g)] == comm.rank()) {
        mine.push_back(g);
      }
    }
    comm.barrier();
    const double t0 = hostNow();
    table = std::make_shared<const mc::chaos::TranslationTable>(
        mc::chaos::TranslationTable::build(
            comm, mine, n, mc::chaos::TranslationTable::Storage::kDistributed,
            kDerefCostSeconds));
    ttableSeconds = hostNow() - t0;
    x = std::make_unique<mc::chaos::IrregArray<double>>(comm, table, mine);
    y = std::make_unique<mc::chaos::IrregArray<double>>(comm, table, mine);
    x->fillByGlobal([](Index) { return 0.0; });
    y->fillByGlobal([](Index) { return 0.0; });
    const Index per = (n + comm.size() - 1) / comm.size();
    const Index vLo = std::min(n, per * comm.rank());
    const Index vHi = std::min(n, vLo + per);
    ia.reserve(static_cast<std::size_t>(2 * (vHi - vLo)));
    ib.reserve(static_cast<std::size_t>(2 * (vHi - vLo)));
    forEachEdge(in, vLo, vHi, [&](Index u, Index v) {
      ia.push_back(u);
      ib.push_back(v);
    });
  }

  void fillRegular() {
    const Index s = in.side;
    a->fillByPoint([&](const Point& p) {
      return 1.0 + 1e-3 * static_cast<double>(p[0] * s + p[1]);
    });
  }

  /// Runs after every measured step, outside the timing (timedOps' check
  /// hook, so it returns true): restarts the meshes from their initial
  /// values every kRefillEvery steps.
  bool refillIfDue() {
    if (++stepsSinceFill < kRefillEvery) return true;
    stepsSinceFill = 0;
    fillRegular();
    y->fillByGlobal([](Index) { return 0.0; });
    return true;
  }

  /// The inspector phase: ghost schedule, edge localization, and the
  /// Meta-Chaos copy schedules (forward build + reverse).
  void build() {
    ghosts.emplace(*a);
    edges.emplace(comm, *table, ia, ib);
    mc::core::SetOfRegions regSet;
    regSet.add(mc::core::Region::section(mc::layout::RegularSection::box(
        {0, 0}, {in.side - 1, in.side - 1})));
    mc::core::SetOfRegions irregSet;
    irregSet.add(mc::core::Region::indices(in.perm));
    fwd = mc::core::defaultScheduleCache().getOrBuild(
        comm, mc::core::PartiAdapter::describe(*a), regSet,
        mc::core::ChaosAdapter::describe(*x), irregSet,
        mc::core::Method::kCooperation);
    rev = std::make_shared<const mc::core::McSchedule>(
        mc::core::reverseSchedule(*fwd));
  }

  /// Bytes one time-step reads or writes at least once on this rank,
  /// computed from array and index-list sizes (index lists as the
  /// executor's 32-bit index streams; cache misses not counted).
  double opBytesComputed() const {
    double b = 8.0 * static_cast<double>(a->raw().size() + scratch.size() +
                                         x->raw().size() + y->raw().size());
    b += 8.0 * static_cast<double>(edges->localized().localIndices.size());
    for (const mc::sched::Schedule* plan : {&fwd->plan, &rev->plan}) {
      for (const auto* side : {&plan->sends, &plan->recvs}) {
        for (const auto& p : *side) {
          b += 4.0 * static_cast<double>(p.elementCount());
        }
      }
      b += 16.0 * static_cast<double>(plan->localPairs.size());
    }
    return b;
  }

  /// One Figure-1 time-step.
  void step() {
    {
      mc::obs::ScopedSpan s(span::kStencil);
      mc::parti::stencilSweep(*a, *ghosts, scratch);
    }
    {
      mc::obs::ScopedSpan s(span::kDataMove);
      mc::core::dataMove<double>(comm, *fwd, a->raw(), x->raw());
    }
    {
      mc::obs::ScopedSpan s(span::kEdgeSweep);
      edges->run(*x, *y);
    }
    {
      mc::obs::ScopedSpan s(span::kDataMove);
      mc::core::dataMove<double>(comm, *rev, x->raw(), a->raw());
    }
  }
};

/// Global copies of both meshes, filled by the ranks through shared memory
/// (ranks are threads of this process) for the serial oracle.
struct GlobalState {
  std::vector<double> a, x, y;
};

void publish(Mesh& m, GlobalState& g) {
  const Index s = m.in.side;
  m.a->ownedBox().forEach([&](const Point& p, Index) {
    g.a[static_cast<std::size_t>(p[0] * s + p[1])] = m.a->at(p);
  });
  const auto globals = m.x->myGlobals();
  for (std::size_t i = 0; i < globals.size(); ++i) {
    g.x[static_cast<std::size_t>(globals[i])] = m.x->raw()[i];
    g.y[static_cast<std::size_t>(globals[i])] = m.y->raw()[i];
  }
}

/// The serial replay of one time-step on the global state, written from
/// the paper's Figure 1 without the runtime libraries.
void serialStep(const Inputs& in, GlobalState& g) {
  const Index s = in.side;
  std::vector<double> next = g.a;
  for (Index i = 1; i + 1 < s; ++i) {
    for (Index j = 1; j + 1 < s; ++j) {
      const std::size_t c = static_cast<std::size_t>(i * s + j);
      const std::size_t row = static_cast<std::size_t>(s);
      next[c] = g.a[c - 1] + g.a[c - row] + g.a[c + row] + g.a[c + 1];
    }
  }
  g.a.swap(next);
  for (std::size_t k = 0; k < g.a.size(); ++k) {
    g.x[static_cast<std::size_t>(in.perm[k])] = g.a[k];
  }
  forEachEdge(in, 0, s * s, [&](Index u, Index v) {
    const double contrib =
        (g.x[static_cast<std::size_t>(u)] + g.x[static_cast<std::size_t>(v)]) /
        4.0;
    g.y[static_cast<std::size_t>(u)] += contrib;
    g.y[static_cast<std::size_t>(v)] += contrib;
  });
}

bool close(double got, double want) {
  return std::fabs(got - want) <= kRelTolerance * std::fmax(1.0, std::fabs(want));
}

/// Runs one more (untimed) step and checks every rank's owned values
/// against the serial replay of that step.  Collective; returns the
/// number of mismatching values over all ranks.
double oracle(Mesh& m, GlobalState& g) {
  m.comm.barrier();
  publish(m, g);
  m.comm.barrier();
  if (m.comm.rank() == 0) serialStep(m.in, g);
  m.comm.barrier();
  m.step();
  m.comm.barrier();
  double bad = 0;
  const Index s = m.in.side;
  m.a->ownedBox().forEach([&](const Point& p, Index) {
    if (m.a->at(p) != g.a[static_cast<std::size_t>(p[0] * s + p[1])]) bad += 1;
  });
  const auto globals = m.x->myGlobals();
  for (std::size_t i = 0; i < globals.size(); ++i) {
    const auto gi = static_cast<std::size_t>(globals[i]);
    if (m.x->raw()[i] != g.x[gi]) bad += 1;
    if (!close(m.y->raw()[i], g.y[gi])) bad += 1;
  }
  return m.comm.allreduceSum(bad);
}

/// Serial baseline: the same problem on one rank, op time median.
double serialOpSeconds(const Inputs& in, double seconds) {
  std::vector<double> times;
  mc::transport::World::runSPMD(1, [&](Comm& comm) {
    pinThread(0);
    Mesh m(comm, in);
    m.build();
    const double start = hostNow();
    while (times.size() < 3 ||
           (times.size() < 11 && hostNow() - start < seconds)) {
      const double t0 = hostNow();
      m.step();
      times.push_back(hostNow() - t0);
    }
  });
  return median(times);
}

}  // namespace

void runMeshCoupling(const Options& opt, Results& r) {
  const int reps = opt.trace ? 1 : kSetupRepetitions;
  std::vector<double> setupSeconds, buildHost, buildVirtual;
  double ttableSeconds = 0;
  double buildCalls = 0, tableBytes = 0;
  OpSamples ops, untraced;
  CounterSum loop, all;
  double poolAcquires = 0, poolHits = 0;
  double mismatches = 0, footprintBytes = 0;
  Ledger ledger;
  mc::obs::TraceCollector trace;
  std::unique_ptr<Inputs> inputs;
  GlobalState global;

  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = hostNow();
    inputs = std::make_unique<Inputs>(makeInputs(kSide, opt.seed));
    const bool last = rep + 1 == reps;
    mc::transport::World::runSPMD(kRanks, [&](Comm& comm) {
      pinThread(comm.rank());
      Mesh m(comm, *inputs);
      comm.barrier();
      if (comm.rank() == 0) {
        setupSeconds.push_back(hostNow() - t0);
        ttableSeconds = m.ttableSeconds;
      }

      const CounterEpoch buildEpoch;
      comm.barrier();
      const double h0 = hostNow();
      const double v0 = comm.now();
      m.build();
      comm.barrier();
      const mc::obs::Snapshot buildDelta = buildEpoch.delta();
      if (comm.rank() == 0) {
        buildHost.push_back(hostNow() - h0);
        buildVirtual.push_back(comm.now() - v0);
        buildCalls = buildDelta.get("build.count");
        tableBytes = buildDelta.get("build.ownership_table_bytes_total");
      }
      if (!last) return;
      all.add(buildDelta);

      m.step();  // warm-up: binds the lazily created executors
      const auto refill = [&] { return m.refillIfDue(); };
      if (opt.trace) {
        // Untraced half, then the traced half over the same set-up.
        timedOps(comm, opt.seconds / 2, untraced, [&] { m.step(); }, refill);
        comm.barrier();
        if (comm.rank() == 0) mc::obs::setEnabled(true);
        useHostSpanClock();
        comm.barrier();
      }
      const CounterEpoch loopEpoch;
      timedOps(comm, opt.trace ? opt.seconds / 2 : opt.seconds, ops,
               [&] { m.step(); }, refill);
      const mc::obs::Snapshot loopDelta = loopEpoch.delta();
      loop.add(loopDelta);
      all.add(loopDelta);
      if (comm.rank() == 0) {
        poolAcquires = loopDelta.get("transport.pool.acquires");
        poolHits = loopDelta.get("transport.pool.hits");
      }
      comm.barrier();
      if (opt.trace) {
        if (comm.rank() == 0) mc::obs::setEnabled(false);
        std::vector<mc::obs::SpanRecord> spans =
            mc::obs::threadRegistry().takeSpans();
        ledger.addRank(spans);
        spans.resize(std::min(spans.size(), kTraceSpansPerRank));
        trace.add(comm.program(), comm.globalRank(),
                  "mesh/" + std::to_string(comm.rank()), std::move(spans));
      }

      // Oracle: one sampled step replayed serially, outside the timing.
      if (comm.rank() == 0) {
        const auto n = static_cast<std::size_t>(kSide * kSide);
        global.a.assign(n, 0.0);
        global.x.assign(n, 0.0);
        global.y.assign(n, 0.0);
      }
      const double bad = oracle(m, global);
      const double footprint = comm.allreduceSum(m.opBytesComputed());
      if (comm.rank() == 0) {
        mismatches = bad;
        footprintBytes = footprint;
      }
    });
  }

  ops.attempted += 1;  // the sampled oracle step
  if (mismatches > 0) {
    ops.failed += 1;
    r.correct = false;
    std::fprintf(stderr, "mesh_coupling: %.0f values differ from the serial "
                         "replay\n", mismatches);
  }
  const double n = static_cast<double>(kSide * kSide);
  r.note("mesh_points", n);
  r.note("mesh_array_mib", n * sizeof(double) / (1024.0 * 1024.0));
  r.note("op_footprint_mib_computed", footprintBytes / (1024.0 * 1024.0));
  r.note("llc_mib", 105);
  r.note("ranks", kRanks);

  if (!opt.trace) {
    reportEndToEnd(r, ops, setupSeconds, median(buildHost),
                   median(buildVirtual));
    return;
  }
  r.attempted = ops.attempted + untraced.attempted;
  r.failed = ops.failed;
  const double opsN = static_cast<double>(ops.host.size());
  reportCounters(r, loop, all, opsN, poolAcquires, poolHits);
  reportLedger(r, ledger);
  r.set("core.build_s_per_call", buildHost.back() / std::max(1.0, buildCalls),
        "s", "host");
  r.set("core.build_virtual_s_per_call",
        buildVirtual.back() / std::max(1.0, buildCalls), "s", "virtual");
  r.set("core.ownership_table_bytes", tableBytes / std::max(1.0, buildCalls),
        "B");
  r.set("chaos.ttable_build_s", ttableSeconds, "s", "host");
  const double tracedRate = opsN / ops.loopSeconds;
  const double untracedRate =
      static_cast<double>(untraced.host.size()) / untraced.loopSeconds;
  r.set("obs.trace_overhead_frac", 1.0 - tracedRate / untracedRate, "ratio");
  const double serial = serialOpSeconds(*inputs, opt.seconds / 2);
  const double parallel = median(untraced.host);
  r.set("scaling.mesh_coupling_efficiency", serial / (kRanks * parallel),
        "ratio");
  r.note("serial_op_s", serial);
  mc::obs::writeChromeTrace(opt.outDir + "/TRACE_mesh_coupling.json", trace);
}

}  // namespace perfbench
