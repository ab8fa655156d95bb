// Incremental delta schedules: DistDelta bookkeeping, computeDelta
// exactness, and the load-bearing property of patchSchedule — a patched
// schedule is bit-identical (plans AND provenance) to a full inspector
// rebuild of the new distributions, so its data movement is bitwise equal
// too.  Also covers the satellite machinery: deltaFromMigratedIndices /
// chaos::migratedGlobals / stableRemapOrder, the redistribution move,
// ScheduleCache::getOrPatch, Executor::rebind buffer reuse, and the
// dereference cache's selective retarget across a remap.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "chaos/migration.h"
#include "chaos/partition.h"
#include "chaos/remap.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/schedule_cache.h"
#include "hpfrt/hpf_array.h"
#include "layout/dist_delta.h"
#include "oracle/elementwise_builder.h"
#include "oracle/repartition_oracle.h"
#include "transport/world.h"
#include "util/rng.h"

namespace mc::core {
namespace {

using chaos::IrregArray;
using chaos::TranslationTable;
using layout::DistDelta;
using layout::Index;
using layout::LinInterval;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::World;

// ---------------------------------------------------------------------------
// DistDelta unit tests (no world needed).

TEST(DistDelta, MergesAdjacentAndOverlapping) {
  DistDelta d;
  d.add(0, 4);
  d.add(4, 6);   // adjacent: merges
  d.add(2, 5);   // overlapping: already covered
  d.add(10, 12);
  ASSERT_EQ(d.intervals().size(), 2u);
  EXPECT_EQ(d.intervals()[0], (LinInterval{0, 6}));
  EXPECT_EQ(d.intervals()[1], (LinInterval{10, 12}));
  EXPECT_EQ(d.migratedElements(), 8);
}

TEST(DistDelta, OutOfOrderAddsNormalize) {
  DistDelta d;
  d.add(10, 12);
  d.add(0, 2);
  d.add(11, 15);
  ASSERT_EQ(d.intervals().size(), 2u);
  EXPECT_EQ(d.intervals()[0], (LinInterval{0, 2}));
  EXPECT_EQ(d.intervals()[1], (LinInterval{10, 15}));
  EXPECT_TRUE(d.contains(0));
  EXPECT_FALSE(d.contains(2));
  EXPECT_TRUE(d.contains(14));
  EXPECT_FALSE(d.contains(15));
}

TEST(DistDelta, EmptyAndInvertedIntervalsIgnored) {
  DistDelta d;
  d.add(5, 5);
  d.add(7, 3);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.migratedElements(), 0);
}

TEST(DistDelta, AddRunStrided) {
  DistDelta d;
  d.addRun(0, 3, 4);  // positions 0, 4, 8
  ASSERT_EQ(d.intervals().size(), 3u);
  EXPECT_TRUE(d.contains(4));
  EXPECT_FALSE(d.contains(5));
  DistDelta e;
  e.addRun(2, 5, 1);  // contiguous block [2, 7)
  ASSERT_EQ(e.intervals().size(), 1u);
  EXPECT_EQ(e.intervals()[0], (LinInterval{2, 7}));
}

TEST(DistDelta, UnionWith) {
  DistDelta a;
  a.add(0, 4);
  DistDelta b;
  b.add(2, 8);
  b.add(20, 22);
  a.unionWith(b);
  ASSERT_EQ(a.intervals().size(), 2u);
  EXPECT_EQ(a.intervals()[0], (LinInterval{0, 8}));
  EXPECT_EQ(a.intervals()[1], (LinInterval{20, 22}));
}

// ---------------------------------------------------------------------------
// stableRemapOrder (local, no world).

TEST(Migration, StableRemapOrderKeepsSurvivorSlots) {
  const std::vector<Index> oldMine = {4, 9, 1, 7};
  // 9 departs, 3 and 12 arrive: 9's slot is reused, the extra appends.
  const std::vector<Index> newAny = {12, 1, 3, 4, 7};
  const auto out = chaos::stableRemapOrder(oldMine, newAny);
  EXPECT_EQ(out, (std::vector<Index>{4, 3, 1, 7, 12}));
}

TEST(Migration, StableRemapOrderShrinkCompacts) {
  const std::vector<Index> oldMine = {4, 9, 1, 7};
  const std::vector<Index> newAny = {7, 4};
  const auto out = chaos::stableRemapOrder(oldMine, newAny);
  EXPECT_EQ(out, (std::vector<Index>{4, 7}));
}

TEST(Migration, StableRemapOrderMatchesOracleAcrossChainedEpochs) {
  // The adaptive loop: a jittered 64^2 cloud shears a little each epoch,
  // RCB reassigns it, and each rank re-orders against its previous order.
  // Every third epoch hands the raw assignment over shuffled.
  const Index side = 64;
  const int np = 4;
  Rng rng(7);
  std::vector<double> jx, jy;
  for (Index g = 0; g < side * side; ++g) {
    jx.push_back(0.5 * rng.uniform());
    jy.push_back(0.5 * rng.uniform());
  }
  const auto cloud = [&](double shear, std::vector<double>& x,
                         std::vector<double>& y) {
    x.clear();
    y.clear();
    for (Index g = 0; g < side * side; ++g) {
      const auto i = static_cast<std::size_t>(g);
      const double row = static_cast<double>(g / side) + jy[i];
      x.push_back(static_cast<double>(g % side) + jx[i] +
                  shear * (row / static_cast<double>(side)));
      y.push_back(row);
    }
  };
  std::vector<double> x, y;
  cloud(18.0, x, y);
  std::vector<std::vector<Index>> cur;
  for (int r = 0; r < np; ++r) cur.push_back(chaos::rcbPartition(x, y, np, r));
  std::size_t moved = 0;
  for (int epoch = 1; epoch <= 40; ++epoch) {
    cloud(18.0 + 1.5 * epoch, x, y);
    for (int r = 0; r < np; ++r) {
      std::vector<Index> raw = chaos::rcbPartition(x, y, np, r);
      if (epoch % 3 == 0) rng.shuffle(raw);
      auto& lane = cur[static_cast<std::size_t>(r)];
      const std::vector<Index> got = chaos::stableRemapOrder(lane, raw);
      ASSERT_EQ(got, chaos::oracle::stableRemapOrder(lane, raw))
          << "epoch " << epoch << " rank " << r;
      for (std::size_t i = 0; i < std::min(got.size(), lane.size()); ++i) {
        moved += got[i] != lane[i] ? 1 : 0;
      }
      lane = got;
    }
  }
  EXPECT_GT(moved, 0u);  // the drift really moved points
}

TEST(Migration, StableRemapOrderMatchesOracleOnRandomGrowAndShrink) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const Index universe = 1 + static_cast<Index>(rng.below(400));
    std::vector<Index> all(static_cast<std::size_t>(universe));
    std::iota(all.begin(), all.end(), Index{0});
    rng.shuffle(all);
    // Old: a random subset in random local order.  New: keep a random
    // share of it and add a random number of outsiders, so the
    // assignment grows, shrinks, empties or is replaced outright.
    const auto oldCount = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(universe) + 1));
    std::vector<Index> oldMine(all.begin(),
                               all.begin() + static_cast<long>(oldCount));
    const std::uint64_t keepPct = rng.below(101);
    std::vector<Index> newMine;
    for (const Index g : oldMine) {
      if (rng.below(100) < keepPct) newMine.push_back(g);
    }
    const std::size_t outsiders = all.size() - oldCount;
    const auto add = static_cast<std::size_t>(rng.below(outsiders + 1));
    newMine.insert(newMine.end(), all.begin() + static_cast<long>(oldCount),
                   all.begin() + static_cast<long>(oldCount + add));
    if (trial % 2 == 0) {
      rng.shuffle(newMine);
    } else {
      std::sort(newMine.begin(), newMine.end());
    }
    EXPECT_EQ(chaos::stableRemapOrder(oldMine, newMine),
              chaos::oracle::stableRemapOrder(oldMine, newMine))
        << "trial " << trial << ": " << oldMine.size() << " -> "
        << newMine.size();
  }
}

// ---------------------------------------------------------------------------
// Deterministic assignment fixtures for the distributed tests.

constexpr int kProcs = 4;

struct Assignment {
  std::vector<std::vector<Index>> mine;  // per rank, local order
};

Assignment basePartition(Index n, unsigned seed) {
  Assignment a;
  for (int r = 0; r < kProcs; ++r) {
    a.mine.push_back(chaos::randomPartition(n, kProcs, r, seed));
  }
  return a;
}

/// Moves `moves` deterministic elements to a different owner and re-stables
/// every rank's local order so survivors keep their offsets.
Assignment mutate(const Assignment& oldA, Index n, int moves, unsigned salt) {
  std::vector<int> owner(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < kProcs; ++r) {
    for (const Index g : oldA.mine[static_cast<std::size_t>(r)]) {
      owner[static_cast<std::size_t>(g)] = r;
    }
  }
  for (int k = 0; k < moves; ++k) {
    const auto g = static_cast<std::size_t>(
        (static_cast<Index>(k) * 131 + static_cast<Index>(salt) * 17) % n);
    owner[g] = (owner[g] + 1 + k % (kProcs - 1)) % kProcs;
  }
  Assignment newA;
  newA.mine.resize(kProcs);
  for (Index g = 0; g < n; ++g) {
    newA.mine[static_cast<std::size_t>(owner[static_cast<std::size_t>(g)])]
        .push_back(g);
  }
  for (int r = 0; r < kProcs; ++r) {
    auto& lane = newA.mine[static_cast<std::size_t>(r)];
    lane = chaos::stableRemapOrder(oldA.mine[static_cast<std::size_t>(r)],
                                   lane);
  }
  return newA;
}

std::shared_ptr<IrregArray<double>> makeChaosArray(Comm& c, Index n,
                                                   const Assignment& a,
                                                   double base) {
  auto table = std::make_shared<const TranslationTable>(
      TranslationTable::build(c, a.mine[static_cast<std::size_t>(c.rank())],
                              n, TranslationTable::Storage::kReplicated));
  auto arr = std::make_shared<IrregArray<double>>(
      c, table, a.mine[static_cast<std::size_t>(c.rank())]);
  arr->fillByGlobal(
      [base](Index g) { return base + static_cast<double>(g); });
  return arr;
}

void expectSchedEqual(const McSchedule& a, const McSchedule& b) {
  ASSERT_EQ(a.plan.sends.size(), b.plan.sends.size());
  for (std::size_t i = 0; i < a.plan.sends.size(); ++i) {
    EXPECT_EQ(a.plan.sends[i].peer, b.plan.sends[i].peer);
    EXPECT_EQ(a.plan.sends[i].runs, b.plan.sends[i].runs);
  }
  ASSERT_EQ(a.plan.recvs.size(), b.plan.recvs.size());
  for (std::size_t i = 0; i < a.plan.recvs.size(); ++i) {
    EXPECT_EQ(a.plan.recvs[i].peer, b.plan.recvs[i].peer);
    EXPECT_EQ(a.plan.recvs[i].runs, b.plan.recvs[i].runs);
  }
  EXPECT_EQ(a.plan.localRuns, b.plan.localRuns);
  EXPECT_EQ(a.sendSegs, b.sendSegs);
  EXPECT_EQ(a.recvSegs, b.recvSegs);
  EXPECT_EQ(a.numElements, b.numElements);
  EXPECT_EQ(a.hasProvenance, b.hasProvenance);
}

/// The fuzz scenario: chaos source (replicated table) copied into an HPF
/// cyclic array; the chaos side repartitions with a bounded number of
/// migrations.
struct Scenario {
  static constexpr Index kN = 48;  // chaos array size
  static constexpr Index kM = 32;  // elements copied

  std::shared_ptr<IrregArray<double>> oldArr;
  std::shared_ptr<IrregArray<double>> newArr;
  std::shared_ptr<hpfrt::HpfArray<double>> dstArr;
  DistObject oldSrc;
  DistObject newSrc;
  DistObject dst;
  SetOfRegions srcSet;
  SetOfRegions dstSet;

  Scenario(Comm& c, unsigned seed, int moves)
      : Scenario(c, basePartition(kN, seed), moves, seed) {}

  Scenario(Comm& c, const Assignment& oldA, int moves, unsigned salt)
      : oldArr(makeChaosArray(c, kN, oldA, 100.0)),
        newArr(makeChaosArray(c, kN, mutate(oldA, kN, moves, salt), 100.0)),
        dstArr(std::make_shared<hpfrt::HpfArray<double>>(
            c, hpfrt::HpfDist(Shape::of({kM}),
                              {hpfrt::DimDist{hpfrt::DistKind::kCyclic,
                                              c.size(), 1}}))),
        oldSrc(ChaosAdapter::describe(*oldArr)),
        newSrc(ChaosAdapter::describe(*newArr)),
        dst(HpfAdapter::describe(*dstArr)) {
    // 5 is coprime to 48: kM distinct global indices, non-monotone order.
    std::vector<Index> ids;
    for (Index k = 0; k < kM; ++k) ids.push_back((5 * k + 2) % kN);
    srcSet.add(Region::indices(ids));
    dstSet.add(Region::section(RegularSection::of({0}, {kM - 1}, {1})));
  }

  std::vector<double> executed(Comm& c, const McSchedule& sched) {
    dstArr->fillByPoint([](const Point&) { return -1.0; });
    sched::execute<double>(c, sched.plan, newArr->raw(), dstArr->raw(),
                           c.nextUserTag());
    return dstArr->gatherGlobal();
  }
};

// ---------------------------------------------------------------------------
// The tentpole property: patched == fresh rebuild, bit for bit.

void runDifferentialFuzz(Method method) {
  World::runSPMD(kProcs, [&](Comm& c) {
    for (const unsigned seed : {7u, 21u}) {
      for (const int moves : {0, 1, 5, 16}) {
        Scenario s(c, seed, moves);
        const McSchedule old = computeSchedule(c, s.oldSrc, s.srcSet, s.dst,
                                               s.dstSet, method);
        ASSERT_TRUE(old.hasProvenance);
        const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
        const McSchedule patched = patchSchedule(
            c, old, delta, s.newSrc, s.srcSet, s.dst, s.dstSet);
        const McSchedule fresh = computeSchedule(c, s.newSrc, s.srcSet,
                                                 s.dst, s.dstSet, method);
        expectSchedEqual(patched, fresh);
        EXPECT_EQ(s.executed(c, patched), s.executed(c, fresh));
        if (moves == 0) {
          EXPECT_TRUE(delta.empty());
          expectSchedEqual(patched, old);
        }
        // Over-approximation is harmless: widen the delta arbitrarily.
        DistDelta over = delta;
        over.add(1, 6);
        over.add(Scenario::kM - 3, Scenario::kM);
        expectSchedEqual(patchSchedule(c, old, over, s.newSrc, s.srcSet,
                                       s.dst, s.dstSet),
                         fresh);
      }
    }
  });
}

TEST(ScheduleDelta, PatchedEqualsFreshCooperation) {
  runDifferentialFuzz(Method::kCooperation);
}

TEST(ScheduleDelta, PatchedEqualsFreshDuplication) {
  runDifferentialFuzz(Method::kDuplication);
}

TEST(ScheduleDelta, FullDeltaEqualsFresh) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 11u, 9);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    DistDelta all;
    all.add(0, Scenario::kM);
    const McSchedule patched =
        patchSchedule(c, old, all, s.newSrc, s.srcSet, s.dst, s.dstSet);
    const McSchedule fresh =
        computeSchedule(c, s.newSrc, s.srcSet, s.dst, s.dstSet);
    expectSchedEqual(patched, fresh);
    const auto& ps = lastPatchStats();
    EXPECT_EQ(ps.segmentsReused, 0u);
    EXPECT_EQ(ps.elementsPatched, Scenario::kM);
  });
}

TEST(ScheduleDelta, PatchStatsCountReuse) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 3u, 2);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    EXPECT_LT(delta.migratedElements(), Scenario::kM);
    (void)patchSchedule(c, old, delta, s.newSrc, s.srcSet, s.dst, s.dstSet);
    const auto& ps = lastPatchStats();
    EXPECT_EQ(ps.elementsPatched, delta.migratedElements());
    // Somebody in the program reuses segments (a rank whose elements all
    // migrated may not — check the aggregate).
    const auto reused = c.allreduceValue(
        static_cast<Index>(ps.segmentsReused),
        [](Index a, Index b) { return a + b; });
    EXPECT_GT(reused, 0);
  });
}

// The destination side repartitions too: an HPF redistribution (cyclic ->
// block) patched against a mostly-full delta still matches the rebuild.
TEST(ScheduleDelta, DstSideRepartition) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 5u, 0);
    hpfrt::HpfArray<double> blockDst(
        c, hpfrt::HpfDist(Shape::of({Scenario::kM}),
                          {hpfrt::DimDist{hpfrt::DistKind::kBlock, c.size(),
                                          1}}));
    const DistObject newDst = HpfAdapter::describe(blockDst);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.dst, newDst, s.dstSet);
    const McSchedule patched =
        patchSchedule(c, old, delta, s.oldSrc, s.srcSet, newDst, s.dstSet);
    const McSchedule fresh =
        computeSchedule(c, s.oldSrc, s.srcSet, newDst, s.dstSet);
    expectSchedEqual(patched, fresh);
  });
}

TEST(ScheduleDelta, ReversedSchedulesAreNotPatchable) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 2u, 0);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    EXPECT_TRUE(patchableSchedule(old, s.newSrc, s.dst));
    const McSchedule rev = reverseSchedule(old);
    EXPECT_FALSE(patchableSchedule(rev, s.newSrc, s.dst));
  });
}

// Execution equality: a patched schedule moves the fresh one's bits.
TEST(ScheduleDelta, ExecutionBitwise) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 13u, 6);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    const McSchedule patched = patchSchedule(c, old, delta, s.newSrc,
                                             s.srcSet, s.dst, s.dstSet);
    const McSchedule fresh =
        computeSchedule(c, s.newSrc, s.srcSet, s.dst, s.dstSet);
    EXPECT_EQ(s.executed(c, patched), s.executed(c, fresh));
  });
}

// The element-wise reference builder records the same provenance as the
// run-native one (both re-coalesce through the same canonical greedy).
TEST(ScheduleDelta, ElementwiseProvenanceParity) {
  std::vector<McSchedule> runNative(kProcs);
  std::vector<McSchedule> reference(kProcs);
  const auto build = [](std::vector<McSchedule>& out, bool oracle) {
    World::runSPMD(kProcs, [&](Comm& c) {
      Scenario s(c, 17u, 4);
      out[static_cast<std::size_t>(c.rank())] =
          oracle ? elementwise::computeSchedule(c, s.oldSrc, s.srcSet, s.dst,
                                                s.dstSet)
                 : computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    });
  };
  build(runNative, /*oracle=*/false);
  build(reference, /*oracle=*/true);
  for (int r = 0; r < kProcs; ++r) {
    const McSchedule& a = runNative[static_cast<std::size_t>(r)];
    const McSchedule& b = reference[static_cast<std::size_t>(r)];
    // Provenance is identical bit for bit, and so are the plans' runs.
    EXPECT_EQ(a.sendSegs, b.sendSegs);
    EXPECT_EQ(a.recvSegs, b.recvSegs);
    EXPECT_TRUE(a.hasProvenance);
    EXPECT_TRUE(b.hasProvenance);
    ASSERT_EQ(a.plan.sends.size(), b.plan.sends.size());
    for (std::size_t i = 0; i < a.plan.sends.size(); ++i) {
      EXPECT_EQ(a.plan.sends[i].peer, b.plan.sends[i].peer);
      EXPECT_EQ(a.plan.sends[i].runs, b.plan.sends[i].runs);
    }
    ASSERT_EQ(a.plan.recvs.size(), b.plan.recvs.size());
    for (std::size_t i = 0; i < a.plan.recvs.size(); ++i) {
      EXPECT_EQ(a.plan.recvs[i].peer, b.plan.recvs[i].peer);
      EXPECT_EQ(a.plan.recvs[i].runs, b.plan.recvs[i].runs);
    }
  }
}

// ---------------------------------------------------------------------------
// computeDelta exactness against a brute-force enumerateAll diff.

TEST(ScheduleDelta, ComputeDeltaMatchesBruteForce) {
  World::runSPMD(kProcs, [](Comm& c) {
    for (const int moves : {0, 2, 7}) {
      Scenario s(c, 23u, moves);
      const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
      const LibraryAdapter& lib = Registry::instance().get("chaos");
      std::vector<std::pair<int, Index>> oldMap(
          static_cast<std::size_t>(Scenario::kM));
      std::vector<std::pair<int, Index>> newMap(
          static_cast<std::size_t>(Scenario::kM));
      lib.enumerateAll(s.oldSrc, s.srcSet, [&](Index lin, int owner,
                                               Index off) {
        oldMap[static_cast<std::size_t>(lin)] = {owner, off};
      });
      lib.enumerateAll(s.newSrc, s.srcSet, [&](Index lin, int owner,
                                               Index off) {
        newMap[static_cast<std::size_t>(lin)] = {owner, off};
      });
      // Soundness: every genuinely changed position is marked.  (The
      // converse does not hold exactly — a stride-mismatched joined
      // segment is marked whole even when some of its positions coincide;
      // that over-approximation is part of the DistDelta contract.)
      Index changed = 0;
      for (Index lin = 0; lin < Scenario::kM; ++lin) {
        if (oldMap[static_cast<std::size_t>(lin)] !=
            newMap[static_cast<std::size_t>(lin)]) {
          EXPECT_TRUE(delta.contains(lin)) << "lin " << lin;
          ++changed;
        }
      }
      EXPECT_GE(delta.migratedElements(), changed);
      EXPECT_LE(delta.migratedElements(), Scenario::kM);
      if (moves == 0) {
        EXPECT_TRUE(delta.empty());
      }
    }
  });
}

// deltaFromMigratedIndices agrees with computeDelta on an index-list set
// (its elements ARE global indices), given the exact migrated set.
TEST(ScheduleDelta, DeltaFromMigratedIndicesAgrees) {
  World::runSPMD(kProcs, [](Comm& c) {
    const Index n = Scenario::kN;
    const Assignment oldA = basePartition(n, 31u);
    const Assignment newA = mutate(oldA, n, 6, 31u);
    auto oldArr = makeChaosArray(c, n, oldA, 0.0);
    auto newArr = makeChaosArray(c, n, newA, 0.0);
    const auto migrated = chaos::migratedGlobals(
        c, oldArr->myGlobals(), newArr->myGlobals(), n);
    EXPECT_FALSE(migrated.empty());
    EXPECT_TRUE(std::is_sorted(migrated.begin(), migrated.end()));
    // Identity set: lin == global index.
    SetOfRegions set;
    std::vector<Index> iota(static_cast<std::size_t>(n));
    std::iota(iota.begin(), iota.end(), Index{0});
    set.add(Region::indices(iota));
    const DistDelta fromIdx = deltaFromMigratedIndices(set, migrated);
    const DistDelta fromCmp = computeDelta(ChaosAdapter::describe(*oldArr),
                                           ChaosAdapter::describe(*newArr),
                                           set);
    EXPECT_EQ(fromIdx.intervals(), fromCmp.intervals());
  });
}

// ---------------------------------------------------------------------------
// The redistribution move migrates exactly the delta-marked payloads.

TEST(ScheduleDelta, RedistMoveMigratesPayloads) {
  World::runSPMD(kProcs, [](Comm& c) {
    const Index n = Scenario::kN;
    const Assignment oldA = basePartition(n, 41u);
    const Assignment newA = mutate(oldA, n, 8, 41u);
    auto oldArr = makeChaosArray(c, n, oldA, 700.0);
    auto newArr = makeChaosArray(c, n, newA, 0.0);
    const auto migrated = chaos::migratedGlobals(
        c, oldArr->myGlobals(), newArr->myGlobals(), n);
    SetOfRegions set;
    std::vector<Index> iota(static_cast<std::size_t>(n));
    std::iota(iota.begin(), iota.end(), Index{0});
    set.add(Region::indices(iota));
    const DistDelta delta = deltaFromMigratedIndices(set, migrated);
    const sched::Schedule move =
        buildRedistMove(c, ChaosAdapter::describe(*oldArr),
                        ChaosAdapter::describe(*newArr), set, delta);
    // Unmigrated elements keep (owner, offset): carry them by straight
    // copy, then let the move overwrite the migrated positions.
    newArr->fillByGlobal([](Index) { return -1.0; });
    const auto src = oldArr->raw();
    auto dst = newArr->raw();
    for (std::size_t i = 0; i < std::min(src.size(), dst.size()); ++i) {
      dst[i] = src[i];
    }
    sched::execute<double>(c, move, src, dst, c.nextUserTag());
    const auto gathered = newArr->gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(g)],
                700.0 + static_cast<double>(g))
          << "global " << g;
    }
  });
}

/// The move's plans must equal the element-wise reference's: the same runs
/// per peer on both lanes and the same local runs.
void expectMoveMatchesOracle(Comm& c, const DistObject& oldObj,
                             const DistObject& newObj,
                             const SetOfRegions& set, const DistDelta& delta) {
  const sched::Schedule got = buildRedistMove(c, oldObj, newObj, set, delta);
  const sched::Schedule want =
      elementwise::buildRedistMove(c, oldObj, newObj, set, delta);
  const auto expectLanes = [](const std::vector<sched::OffsetPlan>& g,
                              const std::vector<sched::OffsetPlan>& w) {
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i].peer, w[i].peer);
      EXPECT_EQ(g[i].runs, w[i].runs);
    }
  };
  expectLanes(got.sends, want.sends);
  expectLanes(got.recvs, want.recvs);
  EXPECT_EQ(got.localRuns, want.localRuns);
}

TEST(ScheduleDelta, RedistMoveMatchesElementwiseOracle) {
  World::runSPMD(kProcs, [](Comm& c) {
    // Chained RCB epochs over a Chaos array (replicated tables): a
    // jittered 24^2 cloud shears a little each epoch and every rank
    // re-orders its new points against its old ones.  The set visits the
    // globals shuffled; each move is checked under both delta sources.
    const Index side = 24;
    const Index n = side * side;
    Rng rng(5);
    std::vector<double> jx, jy;
    for (Index g = 0; g < n; ++g) {
      jx.push_back(0.5 * rng.uniform());
      jy.push_back(0.5 * rng.uniform());
    }
    const auto partition = [&](double shear, const Assignment* prev) {
      std::vector<double> x, y;
      for (Index g = 0; g < n; ++g) {
        const auto i = static_cast<std::size_t>(g);
        const double row = static_cast<double>(g / side) + jy[i];
        x.push_back(static_cast<double>(g % side) + jx[i] +
                    shear * (row / static_cast<double>(side)));
        y.push_back(row);
      }
      Assignment a;
      for (int r = 0; r < kProcs; ++r) {
        std::vector<Index> mine = chaos::rcbPartition(x, y, kProcs, r);
        if (prev != nullptr) {
          mine = chaos::stableRemapOrder(
              prev->mine[static_cast<std::size_t>(r)], mine);
        }
        a.mine.push_back(std::move(mine));
      }
      return a;
    };
    std::vector<Index> ids(static_cast<std::size_t>(n));
    std::iota(ids.begin(), ids.end(), Index{0});
    rng.shuffle(ids);
    SetOfRegions set;
    set.add(Region::indices(ids));
    Assignment cur = partition(6.0, nullptr);
    std::size_t migratedTotal = 0;
    for (int epoch = 1; epoch <= 12; ++epoch) {
      const Assignment next = partition(6.0 + 1.5 * epoch, &cur);
      auto oldArr = makeChaosArray(c, n, cur, 0.0);
      auto newArr = makeChaosArray(c, n, next, 0.0);
      const DistObject oldObj = ChaosAdapter::describe(*oldArr);
      const DistObject newObj = ChaosAdapter::describe(*newArr);
      const auto migrated = chaos::migratedGlobals(
          c, oldArr->myGlobals(), newArr->myGlobals(), n);
      migratedTotal += migrated.size();
      expectMoveMatchesOracle(c, oldObj, newObj, set,
                              deltaFromMigratedIndices(set, migrated));
      expectMoveMatchesOracle(c, oldObj, newObj, set,
                              computeDelta(oldObj, newObj, set));
      cur = next;
    }
    EXPECT_GT(migratedTotal, 0u);

    // HPF BLOCK -> CYCLIC, over the whole array and a strided section.
    const Index m = 50;
    hpfrt::HpfArray<double> block(
        c, hpfrt::HpfDist(Shape::of({m}), {hpfrt::DimDist{
                                              hpfrt::DistKind::kBlock,
                                              c.size(), 1}}));
    hpfrt::HpfArray<double> cyclic(
        c, hpfrt::HpfDist(Shape::of({m}), {hpfrt::DimDist{
                                              hpfrt::DistKind::kCyclic,
                                              c.size(), 1}}));
    const DistObject from = HpfAdapter::describe(block);
    const DistObject to = HpfAdapter::describe(cyclic);
    for (const RegularSection& sec : {RegularSection::of({0}, {m - 1}, {1}),
                                      RegularSection::of({3}, {47}, {2})}) {
      SetOfRegions hset;
      hset.add(Region::section(sec));
      const DistDelta delta = computeDelta(from, to, hset);
      EXPECT_FALSE(delta.empty());
      expectMoveMatchesOracle(c, from, to, hset, delta);
    }
  });
}

// ---------------------------------------------------------------------------
// ScheduleCache::getOrPatch — patch on miss, delta-keyed secondary hits.

TEST(ScheduleDelta, GetOrPatchPatchesThenHits) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 29u, 4);
    ScheduleCache cache;
    const auto old =
        cache.getOrBuild(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    const auto patched =
        cache.getOrPatch(c, s.oldSrc, s.newSrc, s.srcSet, s.dst, s.dst,
                         s.dstSet, delta);
    EXPECT_EQ(cache.patches(), 1u);
    EXPECT_EQ(cache.patchFallbacks(), 0u);
    expectSchedEqual(*patched,
                     computeSchedule(c, s.newSrc, s.srcSet, s.dst, s.dstSet));
    // Second call: straight hit on the new-distributions key.
    const auto again =
        cache.getOrPatch(c, s.oldSrc, s.newSrc, s.srcSet, s.dst, s.dst,
                         s.dstSet, delta);
    EXPECT_EQ(again.get(), patched.get());
    EXPECT_EQ(cache.patches(), 1u);
    // getOrBuild of the new pair also hits — the patched entry was inserted
    // under the new distributions' primary key.
    const auto viaBuild =
        cache.getOrBuild(c, s.newSrc, s.srcSet, s.dst, s.dstSet);
    EXPECT_EQ(viaBuild.get(), patched.get());
    (void)old;
  });
}

TEST(ScheduleDelta, GetOrPatchFallsBackWithoutCachedOld) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 37u, 3);
    ScheduleCache cache;  // empty: nothing to patch from
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    const auto built =
        cache.getOrPatch(c, s.oldSrc, s.newSrc, s.srcSet, s.dst, s.dst,
                         s.dstSet, delta);
    EXPECT_EQ(cache.patches(), 0u);
    EXPECT_EQ(cache.patchFallbacks(), 1u);
    expectSchedEqual(*built,
                     computeSchedule(c, s.newSrc, s.srcSet, s.dst, s.dstSet));
  });
}

// ---------------------------------------------------------------------------
// Executor::rebind — same results as a fresh executor, buffers retained.

TEST(ScheduleDelta, RebindMatchesFreshExecutorAndKeepsBuffers) {
  World::runSPMD(kProcs, [](Comm& c) {
    Scenario s(c, 43u, 5);
    const McSchedule old =
        computeSchedule(c, s.oldSrc, s.srcSet, s.dst, s.dstSet);
    const DistDelta delta = computeDelta(s.oldSrc, s.newSrc, s.srcSet);
    const McSchedule patched =
        patchSchedule(c, old, delta, s.newSrc, s.srcSet, s.dst, s.dstSet);

    sched::Executor<double> ex(c, old.plan);
    s.dstArr->fillByPoint([](const Point&) { return -1.0; });
    ex.run(s.oldArr->raw(), s.dstArr->raw(), c.nextUserTag());

    ex.rebind(patched.plan);
    s.dstArr->fillByPoint([](const Point&) { return -1.0; });
    ex.run(s.newArr->raw(), s.dstArr->raw(), c.nextUserTag());
    const auto viaRebind = s.dstArr->gatherGlobal();

    // Warm steady state reached within one step: the next run performs no
    // payload allocations on any rank.
    const auto before = c.stats();
    s.dstArr->fillByPoint([](const Point&) { return -1.0; });
    ex.run(s.newArr->raw(), s.dstArr->raw(), c.nextUserTag());
    const auto diff = c.stats() - before;
    EXPECT_EQ(diff.allocations, 0u);

    // Bitwise identical to a never-rebound executor.
    sched::Executor<double> fresh(c, patched.plan);
    s.dstArr->fillByPoint([](const Point&) { return -1.0; });
    fresh.run(s.newArr->raw(), s.dstArr->raw(), c.nextUserTag());
    EXPECT_EQ(viaRebind, s.dstArr->gatherGlobal());
  });
}

// ---------------------------------------------------------------------------
// DerefCache::retarget — survivors carry across a remap.

TEST(ScheduleDelta, DerefCacheRetargetKeepsSurvivors) {
  chaos::DerefCache cache;
  const std::vector<Index> keys = {2, 5, 9, 14};
  const std::vector<chaos::ElementLoc> locs = {
      {0, 10}, {1, 20}, {2, 30}, {3, 40}};
  cache.insertSorted(9001, keys, locs);
  const std::vector<Index> migrated = {5, 11, 14};
  EXPECT_TRUE(cache.retarget(9001, 9002, migrated));
  EXPECT_EQ(cache.entryCount(), 2u);
  // Old uid: everything misses (the shard was rekeyed).
  std::vector<chaos::ElementLoc> out(keys.size());
  std::vector<std::uint8_t> hit(keys.size());
  EXPECT_EQ(cache.lookupSorted(9001, keys, out.data(), hit.data()), 0u);
  // New uid: survivors hit with their carried locations, migrated miss.
  EXPECT_EQ(cache.lookupSorted(9002, keys, out.data(), hit.data()), 2u);
  EXPECT_TRUE(hit[0] && !hit[1] && hit[2] && !hit[3]);
  EXPECT_EQ(out[0], (chaos::ElementLoc{0, 10}));
  EXPECT_EQ(out[2], (chaos::ElementLoc{2, 30}));
}

// Stats-diff regression: the remap's OWN copy-schedule build dereferences
// every old-owned global against the NEW table.  With selective retarget,
// the warm entries for unmigrated elements carry over and hit; only the
// actually-migrated references miss.  (The old behaviour dropped the whole
// shard, so the remap build started cold — every reference missed.)
TEST(ScheduleDelta, RemapKeepsDerefCacheHitsForSurvivors) {
  World::runSPMD(kProcs, [](Comm& c) {
    const Index n = 64;
    const Assignment oldA = basePartition(n, 53u);
    const auto& myOld = oldA.mine[static_cast<std::size_t>(c.rank())];
    auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, myOld, n,
                                TranslationTable::Storage::kDistributed));
    IrregArray<double> arr(c, table, myOld);
    arr.fillByGlobal([](Index g) { return static_cast<double>(g); });

    // Warm the cache with exactly the references the remap build will
    // dereference: this rank's own (old) globals.
    (void)table->dereferenceCached(c, myOld);

    // Remap with a small migration, slots kept stable.
    const Assignment newA = mutate(oldA, n, 4, 53u);
    std::vector<Index> migrated;
    const auto before = chaos::derefCacheStats();
    IrregArray<double> fresh =
        chaos::remap(arr, newA.mine[static_cast<std::size_t>(c.rank())],
                     TranslationTable::Storage::kDistributed, &migrated);
    const auto after = chaos::derefCacheStats();
    EXPECT_FALSE(migrated.empty());
    // A rank that shrank shifts its tail survivors, so the migrated set can
    // exceed the moved count — but stays well under the whole array.
    EXPECT_LT(static_cast<Index>(migrated.size()), n / 2);

    std::size_t myMigrated = 0;
    for (const Index g : myOld) {
      if (std::binary_search(migrated.begin(), migrated.end(), g)) {
        ++myMigrated;
      }
    }
    EXPECT_EQ(after.retargets - before.retargets, 1u);
    EXPECT_EQ(after.misses - before.misses, myMigrated);
    EXPECT_EQ(after.hits - before.hits, myOld.size() - myMigrated);
    // The moved data arrived intact.
    const auto gathered = fresh.gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(g)],
                static_cast<double>(g));
    }
  });
}

}  // namespace
}  // namespace mc::core
