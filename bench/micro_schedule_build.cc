// Micro benchmark for the run-native schedule builder.
//
// Measures cooperation-schedule build time (virtual clock) and the peak
// per-rank ownership-table footprint for three library pairings:
//
//   * regular -> regular     (parti block -> hpf block): every section row
//     is one run, so the run-native build is O(runs) in both time and
//     table bytes while the element-wise reference pays one table entry
//     per element;
//   * regular -> irregular   (parti block -> chaos distributed): the
//     regular side compresses, the irregular side stays per-element;
//   * irregular -> irregular (chaos -> chaos, different partitions and a
//     shuffled index set): the adversarial floor — runs degenerate to
//     single elements.
//
// The element-wise leg is the test-only reference builder
// (tests/oracle/elementwise_builder.h): it routes each processor's owned
// elements to the chunk owners (the paper's protocol), where the
// run-native builder asks the adapter for each chunk by position.  Both
// legs dereference Chaos ownership through the same per-rank cache, with
// equal hit and miss counts.  Each case reports the cold (first) and
// warm (subsequent) build times separately plus the localize.deref_cache
// hit/miss counters, so what the cache buys on repeat builds stays visible.
//
// Emits BENCH_schedule_build.json (obs::BenchReport, mc-bench-v1) next to
// the ascii table so the perf trajectory is machine-trackable.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "chaos/deref_cache.h"
#include "chaos/partition.h"
#include "common/bench_util.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/schedule_builder.h"
#include "obs/json.h"
#include "oracle/elementwise_builder.h"
#include "util/rng.h"

using namespace mc;
using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;

namespace {

constexpr int kProcs = 8;
Index kSide = 768;  // elements per set = kSide^2; overridable via --side=N
constexpr int kReps = 3;

struct Measurement {
  double buildSeconds = 0;      // per build, averaged over kReps
  double coldBuildSeconds = 0;  // first build (empty dereference cache)
  double warmBuildSeconds = 0;  // per build, averaged over reps 2..kReps
  double peakTableBytes = 0;    // max over ranks, last build
  double derefHits = 0;         // deref-cache hits, summed over ranks
  double derefMisses = 0;       // deref-cache misses, summed over ranks
};

struct Case {
  const char* name;
  // Returns (srcObj, srcSet, dstObj, dstSet) holders; built inside the SPMD
  // region so each mode pass sees identical deterministic inputs.
  std::function<Measurement(bool elementwise)> run;
};

std::vector<Index> iotaIds(Index n) {
  std::vector<Index> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), Index{0});
  return ids;
}

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

/// Runs kReps cooperation builds of (srcObj, srcSet) -> (dstObj, dstSet)
/// with the element-wise reference builder or the run-native one and
/// reports time and peak table bytes.
template <typename MakeFn>
Measurement measure(bool elementwise, MakeFn&& make) {
  Measurement out;
  transport::World::runSPMD(kProcs, [&](transport::Comm& c) {
    auto [srcObj, srcSet, dstObj, dstSet, holder] = make(c);
    std::size_t tableBytes = 0;
    const auto build = [&] {
      if (elementwise) {
        (void)core::elementwise::computeSchedule(c, srcObj, srcSet, dstObj,
                                                 dstSet,
                                                 core::Method::kCooperation,
                                                 &tableBytes);
      } else {
        (void)core::computeSchedule(c, srcObj, srcSet, dstObj, dstSet,
                                    core::Method::kCooperation);
        tableBytes = core::lastBuildStats().ownershipTableBytes;
      }
    };
    const chaos::DerefCacheStats d0 = chaos::derefCacheStats();
    bench::PhaseTimer timer(c);
    build();
    const double cold = timer.lap();
    for (int i = 1; i < kReps; ++i) build();
    const double warm = timer.lap() / (kReps - 1);
    const chaos::DerefCacheStats d1 = chaos::derefCacheStats();
    const double peak = c.allreduceMax(static_cast<double>(tableBytes));
    const double hits =
        c.allreduceSum(static_cast<double>(d1.hits - d0.hits));
    const double misses =
        c.allreduceSum(static_cast<double>(d1.misses - d0.misses));
    if (c.rank() == 0) {
      out.buildSeconds = (cold + warm * (kReps - 1)) / kReps;
      out.coldBuildSeconds = cold;
      out.warmBuildSeconds = warm;
      out.peakTableBytes = peak;
      out.derefHits = hits;
      out.derefMisses = misses;
    }
  });
  return out;
}

struct MadeCase {
  core::DistObject srcObj, dstObj;
  core::SetOfRegions srcSet, dstSet;
  std::shared_ptr<void> holder;
};

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--side=", 7) == 0) {
      kSide = static_cast<Index>(std::atoll(argv[i] + 7));
    } else {
      std::fprintf(stderr, "usage: %s [--side=N]\n", argv[0]);
      return 2;
    }
  }
  const Index n = kSide * kSide;

  const auto makeRegularRegular = [&](transport::Comm& c) {
    auto a = std::make_shared<parti::BlockDistArray<double>>(
        c, Shape::of({kSide, kSide}), /*ghost=*/1);
    auto b = std::make_shared<hpfrt::HpfArray<double>>(
        c, hpfrt::HpfDist::blockEveryDim(Shape::of({kSide, kSide}),
                                         c.size()));
    core::SetOfRegions srcSet, dstSet;
    srcSet.add(core::Region::section(
        RegularSection::box({0, 0}, {kSide - 1, kSide - 1})));
    dstSet.add(core::Region::section(
        RegularSection::box({0, 0}, {kSide - 1, kSide - 1})));
    auto holder = std::make_shared<std::pair<decltype(a), decltype(b)>>(a, b);
    return std::tuple{core::PartiAdapter::describe(*a), srcSet,
                      core::HpfAdapter::describe(*b), dstSet,
                      std::shared_ptr<void>(holder)};
  };

  const auto makeRegularIrregular = [&](transport::Comm& c) {
    auto a = std::make_shared<parti::BlockDistArray<double>>(
        c, Shape::of({kSide, kSide}), /*ghost=*/1);
    auto x = makeIrreg(c, n, 42);
    core::SetOfRegions srcSet, dstSet;
    srcSet.add(core::Region::section(
        RegularSection::box({0, 0}, {kSide - 1, kSide - 1})));
    dstSet.add(core::Region::indices(iotaIds(n)));
    auto holder = std::make_shared<std::pair<decltype(a), decltype(x)>>(a, x);
    return std::tuple{core::PartiAdapter::describe(*a), srcSet,
                      core::ChaosAdapter::describe(*x), dstSet,
                      std::shared_ptr<void>(holder)};
  };

  const auto makeIrregularIrregular = [&](transport::Comm& c) {
    auto x = makeIrreg(c, n, 7);
    auto y = makeIrreg(c, n, 8);
    core::SetOfRegions srcSet, dstSet;
    srcSet.add(core::Region::indices(shuffledIds(n, 5)));
    dstSet.add(core::Region::indices(shuffledIds(n, 6)));
    auto holder = std::make_shared<std::pair<decltype(x), decltype(y)>>(x, y);
    return std::tuple{core::ChaosAdapter::describe(*x), srcSet,
                      core::ChaosAdapter::describe(*y), dstSet,
                      std::shared_ptr<void>(holder)};
  };

  struct Result {
    const char* name;
    Measurement elem, runs;
  };
  std::vector<Result> results;
  results.push_back({"regular->regular",
                     measure(true, makeRegularRegular),
                     measure(false, makeRegularRegular)});
  results.push_back({"regular->irregular",
                     measure(true, makeRegularIrregular),
                     measure(false, makeRegularIrregular)});
  results.push_back({"irregular->irregular",
                     measure(true, makeIrregularIrregular),
                     measure(false, makeIrregularIrregular)});

  std::vector<std::string> cols;
  std::vector<double> elemT, runT;
  for (const Result& r : results) {
    cols.push_back(r.name);
    elemT.push_back(r.elem.buildSeconds);
    runT.push_back(r.runs.buildSeconds);
  }
  std::printf("%s\n",
              bench::renderTable(
                  strprintf("Cooperation schedule build, %lld elements, "
                            "%d processors [ms per build]",
                            static_cast<long long>(n), kProcs),
                  cols,
                  {
                      bench::Row{"element-wise reference", elemT, {}},
                      bench::Row{"run-native interval join", runT, {}},
                  })
                  .c_str());
  for (const Result& r : results) {
    std::printf(
        "%-22s build speedup %5.1fx   peak table bytes/rank: "
        "%9.0f -> %7.0f (%5.1fx smaller)\n",
        r.name, r.runs.buildSeconds > 0
                    ? r.elem.buildSeconds / r.runs.buildSeconds
                    : 0.0,
        r.elem.peakTableBytes, r.runs.peakTableBytes,
        r.runs.peakTableBytes > 0
            ? r.elem.peakTableBytes / r.runs.peakTableBytes
            : 0.0);
    std::printf(
        "%-22s run-native cold/warm: %s / %s ms   deref cache "
        "hits/misses: %.0f / %.0f\n",
        "", bench::fmtMs(r.runs.coldBuildSeconds).c_str(),
        bench::fmtMs(r.runs.warmBuildSeconds).c_str(), r.runs.derefHits,
        r.runs.derefMisses);
  }

  obs::BenchReport report("schedule_build");
  report.config("procs", kProcs);
  report.config("side", static_cast<double>(kSide));
  report.config("elements", static_cast<double>(n));
  report.config("reps", kReps);
  const char* jsonNames[] = {"regular_to_regular", "regular_to_irregular",
                             "irregular_to_irregular"};
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    obs::BenchReport::Case& cs = report.addCase(jsonNames[i]);
    cs.metric("elementwise.build_seconds", r.elem.buildSeconds);
    cs.metric("elementwise.cold_build_seconds", r.elem.coldBuildSeconds);
    cs.metric("elementwise.warm_build_seconds", r.elem.warmBuildSeconds);
    cs.metric("elementwise.peak_table_bytes", r.elem.peakTableBytes);
    cs.metric("elementwise.deref_cache_hits", r.elem.derefHits);
    cs.metric("elementwise.deref_cache_misses", r.elem.derefMisses);
    cs.metric("run_native.build_seconds", r.runs.buildSeconds);
    cs.metric("run_native.cold_build_seconds", r.runs.coldBuildSeconds);
    cs.metric("run_native.warm_build_seconds", r.runs.warmBuildSeconds);
    cs.metric("run_native.peak_table_bytes", r.runs.peakTableBytes);
    cs.metric("run_native.deref_cache_hits", r.runs.derefHits);
    cs.metric("run_native.deref_cache_misses", r.runs.derefMisses);
    cs.metric("build_speedup", r.runs.buildSeconds > 0
                                   ? r.elem.buildSeconds / r.runs.buildSeconds
                                   : 0.0);
    cs.metric("warm_build_speedup",
              r.runs.warmBuildSeconds > 0
                  ? r.elem.warmBuildSeconds / r.runs.warmBuildSeconds
                  : 0.0);
    cs.metric("table_bytes_ratio",
              r.runs.peakTableBytes > 0
                  ? r.elem.peakTableBytes / r.runs.peakTableBytes
                  : 0.0);
  }
  report.write("BENCH_schedule_build.json");
  std::printf("\nwrote BENCH_schedule_build.json\n");
  return 0;
}
