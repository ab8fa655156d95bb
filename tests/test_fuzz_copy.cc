// Randomized property suite: for dozens of seeded random configurations —
// library pair, processor count, distribution parameters, region structure,
// schedule method — a Meta-Chaos copy must equal the serial oracle implied
// by the two linearizations.  This is the broad-spectrum net behind the
// hand-picked cases in test_core_copy.
#include <gtest/gtest.h>

#include <map>

#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/tulip_adapter.h"
#include "core/data_move.h"
#include "core/schedule_cache.h"
#include "transport/world.h"
#include "util/rng.h"

namespace mc::core {
namespace {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::World;

double valueOf(Index g) { return 5000.0 + static_cast<double>(g); }

struct Instance {
  DistObject obj;
  SetOfRegions set;
  std::vector<Index> setGlobalIds;  // linearization position -> global id
  std::function<std::span<double>()> raw;
  std::function<std::vector<double>()> gather;
  std::shared_ptr<void> holder;
  std::function<void()> refill;  // restore the initial valueOf() contents
};

/// A random source-side instance: random distribution, random (possibly
/// multi-)region set.  Returns the set's element count via setGlobalIds.
Instance makeRandomSource(int lib, Comm& c, Rng& rng) {
  switch (lib) {
    case 0: {  // parti: 2-D array, random shape/ghost, 1-2 disjoint sections
      const Index rows = 6 + static_cast<Index>(rng.below(10));
      const Index cols = 6 + static_cast<Index>(rng.below(10));
      const int ghost = static_cast<int>(rng.below(2));
      auto arr = std::make_shared<parti::BlockDistArray<double>>(
          c, Shape::of({rows, cols}), ghost);
      arr->fillByPoint([&](const Point& p) { return valueOf(p[0] * cols + p[1]); });
      Instance inst{PartiAdapter::describe(*arr), SetOfRegions{}, {},
                    [arr] { return arr->raw(); },
                    [arr] { return arr->gatherGlobal(); }, arr, {}};
      // Split rows into two disjoint bands, strided sections within each.
      const Index mid = rows / 2;
      const auto addBand = [&](Index rLo, Index rHi) {
        if (rHi < rLo) return;
        const Index sr = 1 + static_cast<Index>(rng.below(2));
        const Index sc = 1 + static_cast<Index>(rng.below(3));
        const RegularSection s = RegularSection::of(
            {rLo, static_cast<Index>(rng.below(2))}, {rHi, cols - 1}, {sr, sc});
        if (s.empty()) return;
        inst.set.add(Region::section(s));
        s.forEach([&](const Point& p, Index) {
          inst.setGlobalIds.push_back(p[0] * cols + p[1]);
        });
      };
      addBand(0, mid - 1);
      if (rng.below(2) == 0) addBand(mid, rows - 1);
      if (inst.set.empty()) addBand(0, rows - 1);
      return inst;
    }
    case 1: {  // hpf: random per-dim distribution kinds
      const Index rows = 6 + static_cast<Index>(rng.below(8));
      const Index cols = 6 + static_cast<Index>(rng.below(12));
      auto kindOf = [&](int procs) {
        const auto k = rng.below(3);
        if (k == 0) return hpfrt::DimDist{hpfrt::DistKind::kBlock, procs, 1};
        if (k == 1) return hpfrt::DimDist{hpfrt::DistKind::kCyclic, procs, 1};
        return hpfrt::DimDist{hpfrt::DistKind::kBlockCyclic, procs,
                              1 + static_cast<Index>(rng.below(3))};
      };
      // Split processors over the two dims when possible.
      int p0 = c.size(), p1 = 1;
      if (c.size() % 2 == 0 && rng.below(2) == 0) {
        p0 = c.size() / 2;
        p1 = 2;
      }
      auto arr = std::make_shared<hpfrt::HpfArray<double>>(
          c, hpfrt::HpfDist(Shape::of({rows, cols}),
                            {kindOf(p0), kindOf(p1)}));
      arr->fillByPoint([&](const Point& p) { return valueOf(p[0] * cols + p[1]); });
      Instance inst{HpfAdapter::describe(*arr), SetOfRegions{}, {},
                    [arr] { return arr->raw(); },
                    [arr] { return arr->gatherGlobal(); }, arr, {}};
      const RegularSection s = RegularSection::of(
          {static_cast<Index>(rng.below(2)), static_cast<Index>(rng.below(3))},
          {rows - 1, cols - 1},
          {1 + static_cast<Index>(rng.below(2)), 1 + static_cast<Index>(rng.below(3))});
      inst.set.add(Region::section(s));
      s.forEach([&](const Point& p, Index) {
        inst.setGlobalIds.push_back(p[0] * cols + p[1]);
      });
      return inst;
    }
    case 2: {  // chaos: random partitioner, random index set
      const Index n = 30 + static_cast<Index>(rng.below(60));
      const auto part = rng.below(3);
      const std::uint64_t pseed = rng.next();
      std::vector<Index> mine;
      if (part == 0) {
        mine = chaos::blockPartition(n, c.size(), c.rank());
      } else if (part == 1) {
        mine = chaos::cyclicPartition(n, c.size(), c.rank());
      } else {
        mine = chaos::randomPartition(n, c.size(), c.rank(), pseed);
      }
      auto table = std::make_shared<const chaos::TranslationTable>(
          chaos::TranslationTable::build(
              c, mine, n, chaos::TranslationTable::Storage::kReplicated));
      auto arr = std::make_shared<chaos::IrregArray<double>>(c, table, mine);
      arr->fillByGlobal(valueOf);
      Instance inst{ChaosAdapter::describe(*arr), SetOfRegions{}, {},
                    [arr] { return arr->raw(); },
                    [arr] { return arr->gatherGlobal(); }, arr, {}};
      auto ids = rng.permutation(static_cast<std::uint64_t>(n));
      const size_t count = 1 + rng.below(static_cast<std::uint64_t>(n));
      std::vector<Index> pick;
      for (size_t k = 0; k < count; ++k) pick.push_back(static_cast<Index>(ids[k]));
      inst.set.add(Region::indices(pick));
      inst.setGlobalIds = pick;
      return inst;
    }
    default: {  // tulip
      const Index n = 40 + static_cast<Index>(rng.below(60));
      const auto placement =
          rng.below(2) == 0 ? tulip::Placement::kBlock : tulip::Placement::kCyclic;
      auto coll = std::make_shared<tulip::Collection<double>>(c, n, placement);
      coll->forEachOwned([](Index g, double& v) { v = valueOf(g); });
      Instance inst{TulipAdapter::describe(*coll), SetOfRegions{}, {},
                    [coll] { return coll->raw(); },
                    [coll] { return coll->gatherGlobal(); }, coll, {}};
      const Index stride = 1 + static_cast<Index>(rng.below(3));
      const Index lo = static_cast<Index>(rng.below(4));
      const Index hi = n - 1 - static_cast<Index>(rng.below(4));
      inst.set.add(Region::range(lo, hi, stride));
      for (Index g = lo; g <= hi; g += stride) inst.setGlobalIds.push_back(g);
      return inst;
    }
  }
}

/// A destination instance of library `lib` whose set has exactly `n`
/// elements (1-D shapes sized to fit).
Instance makeConformantDest(int lib, Comm& c, Rng& rng, Index n) {
  const Index stride = 1 + static_cast<Index>(rng.below(2));
  const Index lo = static_cast<Index>(rng.below(3));
  const Index size = lo + (n - 1) * stride + 1 + static_cast<Index>(rng.below(4));
  switch (lib) {
    case 0: {
      auto arr = std::make_shared<parti::BlockDistArray<double>>(
          c, Shape::of({size}), static_cast<int>(rng.below(2)));
      arr->fillByPoint([](const Point& p) { return valueOf(p[0]); });
      Instance inst{PartiAdapter::describe(*arr), SetOfRegions{}, {},
                    [arr] { return arr->raw(); },
                    [arr] { return arr->gatherGlobal(); }, arr, {}};
      inst.refill = [arr] {
        arr->fillByPoint([](const Point& p) { return valueOf(p[0]); });
      };
      inst.set.add(Region::section(
          RegularSection::of({lo}, {lo + (n - 1) * stride}, {stride})));
      for (Index k = 0; k < n; ++k) inst.setGlobalIds.push_back(lo + k * stride);
      return inst;
    }
    case 1: {
      auto kind = rng.below(2) == 0 ? hpfrt::DistKind::kCyclic
                                    : hpfrt::DistKind::kBlockCyclic;
      auto arr = std::make_shared<hpfrt::HpfArray<double>>(
          c, hpfrt::HpfDist(Shape::of({size}),
                            {hpfrt::DimDist{kind, c.size(),
                                            1 + static_cast<Index>(rng.below(3))}}));
      arr->fillByPoint([](const Point& p) { return valueOf(p[0]); });
      Instance inst{HpfAdapter::describe(*arr), SetOfRegions{}, {},
                    [arr] { return arr->raw(); },
                    [arr] { return arr->gatherGlobal(); }, arr, {}};
      inst.refill = [arr] {
        arr->fillByPoint([](const Point& p) { return valueOf(p[0]); });
      };
      inst.set.add(Region::section(
          RegularSection::of({lo}, {lo + (n - 1) * stride}, {stride})));
      for (Index k = 0; k < n; ++k) inst.setGlobalIds.push_back(lo + k * stride);
      return inst;
    }
    case 2: {
      const std::uint64_t pseed = rng.next();
      const auto mine = chaos::randomPartition(size, c.size(), c.rank(), pseed);
      auto table = std::make_shared<const chaos::TranslationTable>(
          chaos::TranslationTable::build(
              c, mine, size, chaos::TranslationTable::Storage::kReplicated));
      auto arr = std::make_shared<chaos::IrregArray<double>>(c, table, mine);
      arr->fillByGlobal(valueOf);
      Instance inst{ChaosAdapter::describe(*arr), SetOfRegions{}, {},
                    [arr] { return arr->raw(); },
                    [arr] { return arr->gatherGlobal(); }, arr, {}};
      inst.refill = [arr] { arr->fillByGlobal(valueOf); };
      auto ids = rng.permutation(static_cast<std::uint64_t>(size));
      std::vector<Index> pick;
      for (Index k = 0; k < n; ++k) pick.push_back(static_cast<Index>(ids[static_cast<size_t>(k)]));
      inst.set.add(Region::indices(pick));
      inst.setGlobalIds = pick;
      return inst;
    }
    default: {
      auto coll = std::make_shared<tulip::Collection<double>>(
          c, size, tulip::Placement::kCyclic);
      coll->forEachOwned([](Index g, double& v) { v = valueOf(g); });
      Instance inst{TulipAdapter::describe(*coll), SetOfRegions{}, {},
                    [coll] { return coll->raw(); },
                    [coll] { return coll->gatherGlobal(); }, coll, {}};
      inst.refill = [coll] {
        coll->forEachOwned([](Index g, double& v) { v = valueOf(g); });
      };
      inst.set.add(Region::range(lo, lo + (n - 1) * stride, stride));
      for (Index k = 0; k < n; ++k) inst.setGlobalIds.push_back(lo + k * stride);
      return inst;
    }
  }
}

class FuzzCopyP : public ::testing::TestWithParam<int> {};

TEST_P(FuzzCopyP, RandomConfigurationMatchesOracle) {
  const int seed = GetParam();
  Rng pick(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const int srcLib = static_cast<int>(pick.below(4));
  const int dstLib = static_cast<int>(pick.below(4));
  const int nprocs = 1 + static_cast<int>(pick.below(6));
  const Method method =
      pick.below(2) == 0 ? Method::kCooperation : Method::kDuplication;
  const std::uint64_t worldSeed = pick.next();

  World::runSPMD(nprocs, [&](Comm& c) {
    Rng rng(worldSeed);  // same stream on every rank: SPMD-consistent picks
    Instance src = makeRandomSource(srcLib, c, rng);
    const Index n = static_cast<Index>(src.setGlobalIds.size());
    ASSERT_GT(n, 0);
    Instance dst = makeConformantDest(dstLib, c, rng, n);

    const McSchedule sched =
        computeSchedule(c, src.obj, src.set, dst.obj, dst.set, method);
    dataMove<double>(c, sched, src.raw(), dst.raw());

    std::map<Index, double> expect;
    for (Index k = 0; k < n; ++k) {
      expect[dst.setGlobalIds[static_cast<size_t>(k)]] =
          valueOf(src.setGlobalIds[static_cast<size_t>(k)]);
    }
    const auto checkOracle = [&](const std::vector<double>& got,
                                 const char* pass) {
      for (size_t g = 0; g < got.size(); ++g) {
        const auto it = expect.find(static_cast<Index>(g));
        const double want =
            it != expect.end() ? it->second : valueOf(static_cast<Index>(g));
        ASSERT_DOUBLE_EQ(got[g], want)
            << pass << " seed " << seed << " libs " << srcLib << "->" << dstLib
            << " np " << nprocs << " global " << g;
      }
    };
    checkOracle(dst.gather(), "fresh");

    // Cached re-execution: restore the destination to its initial contents,
    // fetch the same schedule through a cache twice (the second lookup must
    // hit and return the identical — run-compressed — schedule), re-execute
    // and hold it to the same oracle.
    ScheduleCache cache;
    const auto cached =
        cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set, method);
    const auto cachedAgain =
        cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set, method);
    ASSERT_EQ(cached.get(), cachedAgain.get());
    ASSERT_EQ(cache.stats().hits, 1u);
    dst.refill();
    dataMove<double>(c, *cachedAgain, src.raw(), dst.raw());
    checkOracle(dst.gather(), "cached");
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCopyP, ::testing::Range(0, 48));

}  // namespace
}  // namespace mc::core
