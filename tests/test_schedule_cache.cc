// The schedule cache: its LRU bookkeeping, identical rebuilds hit, any key
// ingredient change misses, LRU eviction respects capacity, cached
// schedules move bytes exactly like freshly built ones for every adapter
// pair, the MC_* API surfaces the counters, a hit never combines entries
// from different builds, and a rank whose cache diverged drags every
// participant of both programs into one rebuild.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/tulip_adapter.h"
#include "core/copy_regions.h"
#include "core/mc_api.h"
#include "core/schedule_cache.h"
#include "sched/serialize.h"
#include "transport/world.h"

namespace mc::core {
namespace {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::ProgramSpec;
using transport::World;

// ---------------------------------------------------------------------------
// LRU bookkeeping through the snapshot hooks (no world needed).

using Key = HashStream::Digest;

Key keyOf(int salt) {
  HashStream h;
  h.pod(salt);
  return h.digest();
}

McSchedule scheduleOf(Index numElements) {
  McSchedule s;
  s.numElements = numElements;
  return s;
}

std::vector<Key> keysOldestFirst(const ScheduleCache& cache) {
  std::vector<Key> keys;
  cache.forEachEntryOldestFirst(
      [&](const Key& key, const Key&, const McSchedule&) {
        keys.push_back(key);
      });
  return keys;
}

TEST(ScheduleCache, VisitingEntriesLeavesStatsAndOrderAlone) {
  ScheduleCache cache(2);
  cache.insertEntry(keyOf(1), keyOf(10), scheduleOf(1));
  cache.insertEntry(keyOf(2), keyOf(20), scheduleOf(2));
  const std::vector<Key> order = {keyOf(1), keyOf(2)};
  EXPECT_EQ(keysOldestFirst(cache), order);
  EXPECT_EQ(keysOldestFirst(cache), order);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().insertions, 2u);
}

TEST(ScheduleCache, SetCapacityEvictsDown) {
  ScheduleCache cache(8);
  for (int i = 0; i < 6; ++i) {
    cache.insertEntry(keyOf(i), keyOf(i), scheduleOf(i));
  }
  cache.setCapacity(2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.capacity(), 2u);
  EXPECT_EQ(cache.stats().evictions, 4u);
  // The two most recently inserted survive.
  EXPECT_EQ(keysOldestFirst(cache), (std::vector<Key>{keyOf(4), keyOf(5)}));
}

TEST(ScheduleCache, InsertEntryReplacesUnderSameKey) {
  ScheduleCache cache(2);
  cache.insertEntry(keyOf(1), keyOf(10), scheduleOf(1));
  cache.insertEntry(keyOf(1), keyOf(11), scheduleOf(99));
  EXPECT_EQ(cache.size(), 1u);
  int visited = 0;
  cache.forEachEntryOldestFirst(
      [&](const Key& key, const Key& identity, const McSchedule& s) {
        ++visited;
        EXPECT_EQ(key, keyOf(1));
        EXPECT_EQ(identity, keyOf(11));
        EXPECT_EQ(s.numElements, 99);
      });
  EXPECT_EQ(visited, 1);
}

// ---------------------------------------------------------------------------
// ScheduleCache behaviour on live distributed objects.

enum class Lib { kParti, kHpf, kChaos, kTulip };
constexpr Index kElems = 16;

double valueOf(Index g) { return 2000.0 + static_cast<double>(g); }

struct Instance {
  DistObject obj;
  SetOfRegions set;
  std::vector<Index> setGlobalIds;
  std::function<std::span<double>()> raw;
  std::function<std::vector<double>()> gather;
  std::function<void(double)> refill;  // value base -> re-initialize
  std::shared_ptr<void> holder;
};

Instance makeParti(Comm& c) {
  auto arr = std::make_shared<parti::BlockDistArray<double>>(
      c, Shape::of({8, 8}), /*ghost=*/1);
  auto fill = [arr](double base) {
    arr->fillByPoint(
        [base](const Point& p) { return base + static_cast<double>(p[0] * 8 + p[1]); });
  };
  fill(2000.0);
  Instance inst{PartiAdapter::describe(*arr),
                SetOfRegions{},
                {},
                [arr]() { return arr->raw(); },
                [arr]() { return arr->gatherGlobal(); },
                fill,
                arr};
  const RegularSection r = RegularSection::box({2, 2}, {5, 5});
  inst.set.add(Region::section(r));
  r.forEach([&](const Point& p, Index) {
    inst.setGlobalIds.push_back(p[0] * 8 + p[1]);
  });
  return inst;
}

Instance makeHpf(Comm& c) {
  auto arr = std::make_shared<hpfrt::HpfArray<double>>(
      c, hpfrt::HpfDist(Shape::of({32}),
                        {hpfrt::DimDist{hpfrt::DistKind::kCyclic, c.size(), 1}}));
  auto fill = [arr](double base) {
    arr->fillByPoint([base](const Point& p) { return base + static_cast<double>(p[0]); });
  };
  fill(2000.0);
  Instance inst{HpfAdapter::describe(*arr),
                SetOfRegions{},
                {},
                [arr]() { return arr->raw(); },
                [arr]() { return arr->gatherGlobal(); },
                fill,
                arr};
  const RegularSection r = RegularSection::of({1}, {31}, {2});
  inst.set.add(Region::section(r));
  r.forEach([&](const Point& p, Index) { inst.setGlobalIds.push_back(p[0]); });
  return inst;
}

Instance makeChaos(Comm& c, bool replicated) {
  const Index n = 20;
  const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 5);
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(
          c, mine, n,
          replicated ? chaos::TranslationTable::Storage::kReplicated
                     : chaos::TranslationTable::Storage::kDistributed));
  auto arr = std::make_shared<chaos::IrregArray<double>>(c, table, mine);
  auto fill = [arr](double base) {
    arr->fillByGlobal([base](Index g) { return base + static_cast<double>(g); });
  };
  fill(2000.0);
  Instance inst{ChaosAdapter::describe(*arr),
                SetOfRegions{},
                {},
                [arr]() { return arr->raw(); },
                [arr]() { return arr->gatherGlobal(); },
                fill,
                arr};
  std::vector<Index> ids;
  for (Index k = 0; k < kElems; ++k) ids.push_back((3 * k + 1) % n);
  // (3k+1) mod 20 over k=0..15 yields 16 distinct indices.
  inst.set.add(Region::indices(ids));
  inst.setGlobalIds = ids;
  return inst;
}

Instance makeTulip(Comm& c) {
  const Index n = 40;
  auto coll = std::make_shared<tulip::Collection<double>>(
      c, n, tulip::Placement::kCyclic);
  auto fill = [coll](double base) {
    coll->forEachOwned([base](Index g, double& v) { v = base + static_cast<double>(g); });
  };
  fill(2000.0);
  Instance inst{TulipAdapter::describe(*coll),
                SetOfRegions{},
                {},
                [coll]() { return coll->raw(); },
                [coll]() { return coll->gatherGlobal(); },
                fill,
                coll};
  inst.set.add(Region::range(3, 33, 2));
  for (Index k = 0; k < kElems; ++k) inst.setGlobalIds.push_back(3 + 2 * k);
  return inst;
}

Instance makeInstance(Lib lib, Comm& c, bool chaosReplicated = false) {
  switch (lib) {
    case Lib::kParti: return makeParti(c);
    case Lib::kHpf: return makeHpf(c);
    case Lib::kChaos: return makeChaos(c, chaosReplicated);
    case Lib::kTulip: return makeTulip(c);
  }
  MC_CHECK(false);
  return makeParti(c);
}

TEST(ScheduleCache, IdenticalRebuildHitsAndSharesTheSchedule) {
  World::runSPMD(3, [](Comm& c) {
    ScheduleCache cache;
    Instance src = makeParti(c);
    Instance dst = makeHpf(c);
    const auto first =
        cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);
    const auto second =
        cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);
    EXPECT_EQ(first.get(), second.get());  // same cached object
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(first->plan.compressed());
  });
}

TEST(ScheduleCache, AnyKeyIngredientChangeMisses) {
  World::runSPMD(2, [](Comm& c) {
    ScheduleCache cache;
    Instance src = makeParti(c);
    Instance dst = makeTulip(c);
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);

    // Different destination regions (same element count).
    SetOfRegions otherSet;
    otherSet.add(Region::range(4, 34, 2));
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, otherSet);
    EXPECT_EQ(cache.stats().misses, 2u);

    // Different method.
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set,
                           Method::kDuplication);
    EXPECT_EQ(cache.stats().misses, 3u);

    // Different source distribution (ghost width changes the descriptor).
    auto arr2 = std::make_shared<parti::BlockDistArray<double>>(
        c, Shape::of({8, 8}), /*ghost=*/2);
    arr2->fillByPoint([](const Point& p) { return valueOf(p[0] * 8 + p[1]); });
    (void)cache.getOrBuild(c, PartiAdapter::describe(*arr2), src.set, dst.obj,
                           dst.set);
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().hits, 0u);

    // The original key still hits.
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);
    EXPECT_EQ(cache.stats().hits, 1u);
  });
}

TEST(ScheduleCache, EqualIndexRegionsAndTablesHitAndOneChangedIndexMisses) {
  // Index regions and translation tables digest their contents once, when
  // they are constructed, and keys feed those digests: separately built
  // equal regions over a separately built equal table hit, and changing
  // one index misses.
  World::runSPMD(3, [](Comm& c) {
    ScheduleCache cache;
    Instance src = makeHpf(c);
    Instance dst = makeChaos(c, /*replicated=*/true);
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);

    Instance twin = makeChaos(c, /*replicated=*/true);
    SetOfRegions equal;
    equal.add(Region::indices(std::vector<Index>(dst.setGlobalIds)));
    (void)cache.getOrBuild(c, src.obj, src.set, twin.obj, equal);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    std::vector<Index> changed = dst.setGlobalIds;
    changed.back() = 9;  // (3k+1) mod 20 never yields 9
    SetOfRegions oneOff;
    oneOff.add(Region::indices(changed));
    (void)cache.getOrBuild(c, src.obj, src.set, twin.obj, oneOff);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
  });
}

TEST(ScheduleCache, EvictionRespectsCapacity) {
  World::runSPMD(2, [](Comm& c) {
    ScheduleCache cache(/*capacity=*/1);
    Instance src = makeParti(c);
    Instance dst = makeTulip(c);
    SetOfRegions setB;
    setB.add(Region::range(4, 34, 2));

    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, setB);  // evicts
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 1u);
    // The first schedule was evicted: rebuilding it misses again.
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 0u);
  });
}

TEST(ScheduleCache, HitMakesTheEntryMostRecentlyUsed) {
  World::runSPMD(2, [](Comm& c) {
    ScheduleCache cache(/*capacity=*/2);
    Instance src = makeParti(c);
    Instance dst = makeTulip(c);
    SetOfRegions setB, setC;
    setB.add(Region::range(4, 34, 2));
    setC.add(Region::range(5, 35, 2));

    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, setB);
    const std::vector<Key> ab = keysOldestFirst(cache);
    ASSERT_EQ(ab.size(), 2u);
    // Touch A so B becomes the LRU victim.
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);
    EXPECT_EQ(keysOldestFirst(cache), (std::vector<Key>{ab[1], ab[0]}));
    (void)cache.getOrBuild(c, src.obj, src.set, dst.obj, setC);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    const std::vector<Key> ac = keysOldestFirst(cache);
    ASSERT_EQ(ac.size(), 2u);
    EXPECT_EQ(ac[0], ab[0]);  // A survives, B was evicted
    EXPECT_NE(ac[1], ab[1]);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 3u);
  });
}

TEST(ScheduleCache, DivergentRanksAgreeOnMissWithoutDeadlock) {
  // If one rank lost its cached copy (here: forced clear), the collective
  // agreement must make every rank rebuild together instead of deadlocking.
  World::runSPMD(3, [](Comm& c) {
    ScheduleCache cache;
    Instance src = makeHpf(c);
    Instance dst = makeChaos(c, /*replicated=*/false);
    const auto first = cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);
    if (c.rank() == 0) cache.clear();
    const auto second = cache.getOrBuild(c, src.obj, src.set, dst.obj, dst.set);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(cache.stats().misses, 2u);  // all ranks rebuild in lockstep
    // The rebuilt schedule matches the original plan.
    ASSERT_EQ(second->plan.sends.size(), first->plan.sends.size());
    for (size_t i = 0; i < second->plan.sends.size(); ++i) {
      EXPECT_EQ(second->plan.sends[i].peer, first->plan.sends[i].peer);
      EXPECT_TRUE(second->plan.sends[i].runs == first->plan.sends[i].runs);
    }
  });
}

struct CachePairCase {
  Lib src;
  Lib dst;
};

class CachedCopyPairP : public ::testing::TestWithParam<CachePairCase> {};

TEST_P(CachedCopyPairP, CachedEqualsFreshBitwise) {
  const CachePairCase tc = GetParam();
  World::runSPMD(3, [&](Comm& c) {
    Instance src = makeInstance(tc.src, c);
    Instance dst = makeInstance(tc.dst, c);

    // Fresh (uncached, uncompressed) schedule and copy.
    const McSchedule fresh =
        computeSchedule(c, src.obj, src.set, dst.obj, dst.set);
    dst.refill(4000.0);
    dataMove<double>(c, fresh, src.raw(), dst.raw());
    const auto wantDst = dst.gather();

    // Reset the destination to the same pre-copy state, then copy through
    // the cache twice; the second pass must be a hit and reproduce the
    // same bytes (set elements carry source values, so a dropped copy
    // would leave the refill value behind and fail the comparison).
    ScheduleCache cache;
    dst.refill(4000.0);
    copyRegions<double>(c, src.obj, src.set, src.raw(), dst.obj, dst.set,
                        dst.raw(), Method::kCooperation, &cache);
    EXPECT_EQ(dst.gather(), wantDst);

    dst.refill(4000.0);
    copyRegions<double>(c, src.obj, src.set, src.raw(), dst.obj, dst.set,
                        dst.raw(), Method::kCooperation, &cache);
    EXPECT_EQ(dst.gather(), wantDst);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
  });
}

std::vector<CachePairCase> cachePairs() {
  std::vector<CachePairCase> cases;
  for (Lib s : {Lib::kParti, Lib::kHpf, Lib::kChaos, Lib::kTulip}) {
    for (Lib d : {Lib::kParti, Lib::kHpf, Lib::kChaos, Lib::kTulip}) {
      cases.push_back(CachePairCase{s, d});
    }
  }
  return cases;
}

const char* libName(Lib l) {
  switch (l) {
    case Lib::kParti: return "parti";
    case Lib::kHpf: return "hpf";
    case Lib::kChaos: return "chaos";
    case Lib::kTulip: return "tulip";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CachedCopyPairP, ::testing::ValuesIn(cachePairs()),
    [](const ::testing::TestParamInfo<CachePairCase>& info) {
      return std::string(libName(info.param.src)) + "_to_" +
             libName(info.param.dst);
    });

TEST(ScheduleCache, InterProgramHalvesHitInLockstep) {
  const int kClient = 0, kServer = 1;
  auto clientMain = [&](Comm& c) {
    ScheduleCache cache;
    Instance src = makeParti(c);
    const auto first =
        cache.getOrBuildSend(c, src.obj, src.set, kServer);
    const auto second =
        cache.getOrBuildSend(c, src.obj, src.set, kServer);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    core::dataMoveSend<double>(c, *second, src.raw());
  };
  auto serverMain = [&](Comm& c) {
    ScheduleCache cache;
    Instance dst = makeHpf(c);
    const auto first = cache.getOrBuildRecv(c, dst.obj, dst.set, kClient);
    const auto second = cache.getOrBuildRecv(c, dst.obj, dst.set, kClient);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    core::dataMoveRecv<double>(c, *second, dst.raw());
    // The transfer pairs elements in set order across the programs.
    const auto got = dst.gather();
    for (Index k = 0; k < kElems; ++k) {
      const Index g = dst.setGlobalIds[static_cast<size_t>(k)];
      // Client's parti source global id at position k, over an 8x8 mesh.
      EXPECT_DOUBLE_EQ(got[static_cast<size_t>(g)],
                       2000.0 + static_cast<double>(
                                    18 + (k / 4) * 8 + (k % 4)));
    }
  };
  World::run({ProgramSpec{"client", 2, clientMain},
              ProgramSpec{"server", 2, serverMain}});
}

TEST(ScheduleCache, McApiSurfacesCounters) {
  World::runSPMD(2, [](Comm& c) {
    api::MC_Reset();
    api::MC_SchedCacheClear();
    auto arr = std::make_shared<parti::BlockDistArray<double>>(
        c, Shape::of({8, 8}), 1);
    arr->fillByPoint([](const Point& p) { return valueOf(p[0] * 8 + p[1]); });
    auto coll = std::make_shared<tulip::Collection<double>>(
        c, 40, tulip::Placement::kCyclic);
    coll->forEachOwned([](Index, double& v) { v = 0.0; });

    const layout::Index lo[2] = {2, 2}, hi[2] = {5, 5};
    const api::RegionId r1 = api::CreateRegion_Parti(2, lo, hi);
    const api::SetId s1 = api::MC_NewSetOfRegion();
    api::MC_AddRegion2Set(r1, s1);
    const api::RegionId r2 = api::CreateRegion_PCXX(3, 33, 2);
    const api::SetId s2 = api::MC_NewSetOfRegion();
    api::MC_AddRegion2Set(r2, s2);
    const api::ObjectId o1 = api::MC_RegisterParti(*arr);
    const api::ObjectId o2 = api::MC_RegisterPCXX(*coll);

    const api::SchedId h1 = api::MC_ComputeSched(c, o1, s1, o2, s2);
    const api::SchedId h2 = api::MC_ComputeSched(c, o1, s1, o2, s2);
    EXPECT_NE(h1, h2);  // fresh handle...
    EXPECT_EQ(&api::MC_GetSched(h1), &api::MC_GetSched(h2));  // ...same schedule
    EXPECT_EQ(api::MC_SchedCacheStats().misses, 1u);
    EXPECT_EQ(api::MC_SchedCacheStats().hits, 1u);

    api::MC_SchedCacheResetStats();
    EXPECT_EQ(api::MC_SchedCacheStats().hits, 0u);
    // Entries survive a stats reset.
    (void)api::MC_ComputeSched(c, o1, s1, o2, s2);
    EXPECT_EQ(api::MC_SchedCacheStats().hits, 1u);

    api::MC_SchedCacheClear();
    (void)api::MC_ComputeSched(c, o1, s1, o2, s2);
    EXPECT_EQ(api::MC_SchedCacheStats().misses, 1u);
    api::MC_Reset();
    api::MC_SchedCacheClear();
  });
}

// ---------------------------------------------------------------------------
// Stale hits.  A rank's key covers only the state that rank holds, so one
// configuration's build can overwrite the entry of a rank whose key did not
// change while the other ranks keep the previous configuration's entries.
// A hit must therefore require every participant's entry to come from a
// build of the *current* configuration; in each case below, a hit that
// only checked that every rank holds an entry would combine two builds.

hpfrt::HpfArray<double> cyclicHpf(Comm& c, Index n) {
  hpfrt::HpfArray<double> a(
      c, hpfrt::HpfDist(Shape::of({n}), {hpfrt::DimDist{
                                            hpfrt::DistKind::kCyclic,
                                            c.size(), 1}}));
  a.fillByPoint([](const Point& p) { return valueOf(p[0]); });
  return a;
}

SetOfRegions wholeSection(Index lo, Index hi) {
  SetOfRegions set;
  set.add(Region::section(RegularSection::box({lo}, {hi})));
  return set;
}

SetOfRegions allIndices(Index n) {
  std::vector<Index> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), Index{0});
  SetOfRegions set;
  set.add(Region::indices(ids));
  return set;
}

/// A Chaos array over `n` globals holding `mine` in this local order.
std::shared_ptr<chaos::IrregArray<double>> chaosArray(
    Comm& c, Index n, chaos::TranslationTable::Storage storage,
    const std::vector<Index>& mine) {
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(c, mine, n, storage));
  auto arr = std::make_shared<chaos::IrregArray<double>>(c, table, mine);
  arr->fillByGlobal([](Index) { return -1.0; });
  return arr;
}

void expectCopied(const std::vector<double>& got, Index n) {
  for (Index g = 0; g < n; ++g) {
    EXPECT_EQ(got[static_cast<size_t>(g)], valueOf(g)) << "global " << g;
  }
}

TEST(ScheduleCache, UnchangedShardDoesNotRevivePreviousBuild) {
  // HPF CYCLIC [0..29] -> Chaos indices(0..29) over a distributed table.
  // X: rank g/10 owns g.  Y: X with the owners of 12 and 21 swapped.
  // Rank 0's shard is the same under both, so Y's build replaces rank 0's
  // X entry while ranks 1-2 keep theirs; going back to X must rebuild.
  constexpr Index n = 30;
  World::runSPMD(3, [](Comm& c) {
    const hpfrt::HpfArray<double> src = cyclicHpf(c, n);
    const SetOfRegions srcSet = wholeSection(0, n - 1);
    const SetOfRegions dstSet = allIndices(n);
    ScheduleCache cache;
    for (const bool swapped : {false, true, false, false}) {
      std::vector<Index> mine;
      for (Index g = 0; g < n; ++g) {
        int owner = static_cast<int>(g / 10);
        if (swapped && g == 12) owner = 2;
        if (swapped && g == 21) owner = 1;
        if (owner == c.rank()) mine.push_back(g);
      }
      auto dst = chaosArray(c, n, chaos::TranslationTable::Storage::kDistributed,
                            mine);
      const auto sched = cache.getOrBuild(c, HpfAdapter::describe(src),
                                          srcSet, ChaosAdapter::describe(*dst),
                                          dstSet);
      dataMove<double>(c, *sched, src.raw(), dst->raw());
      expectCopied(dst->gatherGlobal(), n);
    }
    // X, Y and X again miss; the unchanged fourth lookup hits.
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
  });
}

TEST(ScheduleCache, InterProgramHalfHitsOnlyWithItsPartnersBuild) {
  // Program A sends HPF CYCLIC [0..9] every round; program B receives into
  // [0..9], [10..19], [0..9], [0..9] of an HPF BLOCK array of 20.  A's key
  // never changes, so round 2 replaces A's entry; round 3 must not pair it
  // with B's round-1 entry.
  const int kA = 0, kB = 1;
  const std::vector<Index> rounds = {0, 10, 0, 0};  // B's section start
  auto aMain = [&](Comm& c) {
    const hpfrt::HpfArray<double> x = cyclicHpf(c, 10);
    const SetOfRegions set = wholeSection(0, 9);
    ScheduleCache cache;
    for (size_t round = 0; round < rounds.size(); ++round) {
      const auto s =
          cache.getOrBuildSend(c, HpfAdapter::describe(x), set, kB);
      dataMoveSend<double>(c, *s, x.raw());
    }
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
  };
  auto bMain = [&](Comm& c) {
    hpfrt::HpfArray<double> y(
        c, hpfrt::HpfDist(Shape::of({20}), {hpfrt::DimDist{
                                               hpfrt::DistKind::kBlock,
                                               c.size(), 1}}));
    ScheduleCache cache;
    for (const Index lo : rounds) {
      y.fillByPoint([](const Point&) { return -1.0; });
      const auto s = cache.getOrBuildRecv(c, HpfAdapter::describe(y),
                                          wholeSection(lo, lo + 9), kA);
      dataMoveRecv<double>(c, *s, y.raw());
      const auto got = y.gatherGlobal();
      for (Index g = 0; g < 20; ++g) {
        const double want = g >= lo && g < lo + 10 ? valueOf(g - lo) : -1.0;
        EXPECT_EQ(got[static_cast<size_t>(g)], want)
            << "round from " << lo << ", global " << g;
      }
    }
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
  };
  World::run({ProgramSpec{"a", 2, aMain}, ProgramSpec{"b", 2, bMain}});
}

TEST(ScheduleCache, InterProgramLookupAgreesUnderMixedCacheState) {
  // When one rank's cache diverges (here: the receiver's rank 0 clears it
  // between two lookups), every participant of both programs must rebuild
  // together instead of deadlocking half-hit, and the rebuild must
  // reproduce byte-identical plans on both sides.
  const Index n = 24;
  std::vector<std::vector<std::byte>> firstPlan(2), secondPlan(2);
  auto senderMain = [&](Comm& c) {
    parti::BlockDistArray<double> x(
        c, layout::BlockDecomp(Shape::of({n}), {c.size()}), 0);
    x.fillByPoint([](const Point& p) { return valueOf(p[0]); });
    const SetOfRegions set = wholeSection(0, n - 1);
    ScheduleCache cache(8);
    const auto s1 =
        cache.getOrBuildSend(c, PartiAdapter::describe(x), set, 1);
    if (c.rank() == 0) firstPlan[0] = sched::serializeSchedule(s1->plan);
    EXPECT_EQ(cache.stats().misses, 1u);
    // The receiver's rank 0 forgot its entry: the vote must drag this
    // (locally hitting) side into the rebuild.
    const auto s2 =
        cache.getOrBuildSend(c, PartiAdapter::describe(x), set, 1);
    if (c.rank() == 0) secondPlan[0] = sched::serializeSchedule(s2->plan);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    // The rebuilt schedule still moves the data.
    dataMoveSend<double>(c, *s2, x.raw());
  };
  auto receiverMain = [&](Comm& c) {
    parti::BlockDistArray<double> y(
        c, layout::BlockDecomp(Shape::of({n}), {c.size()}), 0);
    const SetOfRegions set = wholeSection(0, n - 1);
    ScheduleCache cache(8);
    const auto r1 =
        cache.getOrBuildRecv(c, PartiAdapter::describe(y), set, 0);
    if (c.rank() == 0) {
      firstPlan[1] = sched::serializeSchedule(r1->plan);
      cache.clear();  // diverge: this rank alone forgets the entry
    }
    const auto r2 =
        cache.getOrBuildRecv(c, PartiAdapter::describe(y), set, 0);
    if (c.rank() == 0) secondPlan[1] = sched::serializeSchedule(r2->plan);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    dataMoveRecv<double>(c, *r2, y.raw());
    expectCopied(y.gatherGlobal(), n);
  };
  World::run({ProgramSpec{"sender", 2, senderMain},
              ProgramSpec{"receiver", 2, receiverMain}});
  EXPECT_FALSE(firstPlan[0].empty());
  EXPECT_FALSE(firstPlan[1].empty());
  EXPECT_EQ(firstPlan[0], secondPlan[0]);
  EXPECT_EQ(firstPlan[1], secondPlan[1]);
}

TEST(ScheduleCache, PatchDeltaKeyServesOnlyItsOwnTarget) {
  // HPF CYCLIC [0..29] -> Chaos indices(0..29), replicated table.  From X
  // (rank g/10 owns g), patch to Y1 (global 19 appended on rank 2), then
  // from X again to Y2 (19 appended on rank 0) with the same delta.  The
  // delta key names only *which* positions migrated, so it must not hand
  // Y1's schedule to Y2.
  constexpr Index n = 30;
  World::runSPMD(3, [](Comm& c) {
    const hpfrt::HpfArray<double> src = cyclicHpf(c, n);
    const DistObject srcObj = HpfAdapter::describe(src);
    const SetOfRegions srcSet = wholeSection(0, n - 1);
    const SetOfRegions dstSet = allIndices(n);
    const auto with19On = [&](int owner19) {
      std::vector<Index> mine;
      for (Index g = 0; g < n; ++g) {
        if (g != 19 && g / 10 == c.rank()) mine.push_back(g);
      }
      if (owner19 == c.rank()) mine.push_back(19);
      return chaosArray(c, n, chaos::TranslationTable::Storage::kReplicated,
                        mine);
    };
    const auto x = with19On(1);  // X: 19 is last on rank 1 either way
    ScheduleCache cache;
    (void)cache.getOrBuild(c, srcObj, srcSet, ChaosAdapter::describe(*x),
                           dstSet);
    const std::vector<Index> migrated = {19};
    const layout::DistDelta delta = deltaFromMigratedIndices(dstSet, migrated);
    for (const int owner19 : {2, 0, 0}) {
      const auto y = with19On(owner19);
      const auto sched = cache.getOrPatch(c, srcObj, srcObj, srcSet,
                                          ChaosAdapter::describe(*x),
                                          ChaosAdapter::describe(*y), dstSet,
                                          delta);
      dataMove<double>(c, *sched, src.raw(), y->raw());
      expectCopied(y->gatherGlobal(), n);
    }
    // Y1 and Y2 are patched from X; the repeated Y2 hits.
    EXPECT_EQ(cache.patches(), 2u);
    EXPECT_EQ(cache.patchFallbacks(), 0u);
    EXPECT_EQ(cache.stats().hits, 1u);
  });
}

}  // namespace
}  // namespace mc::core
