// Tests for the Chaos-like library: partitioners, translation tables,
// localize inspector, gather/scatter-add executors, native copies, and the
// Figure-1 edge sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>

#include "chaos/irreg_array.h"
#include "chaos/irreg_copy.h"
#include "chaos/irregular_loop.h"
#include "chaos/localize.h"
#include "chaos/partition.h"
#include "chaos/ttable.h"
#include "transport/world.h"
#include "util/hash.h"

namespace mc::chaos {
namespace {

using layout::Index;
using transport::Comm;
using transport::World;

using PartitionFn = std::vector<Index> (*)(Index, int, int);

std::vector<Index> randomPart(Index n, int np, int r) {
  return randomPartition(n, np, r, 42);
}

// --- partitioners -----------------------------------------------------------

class PartitionP
    : public ::testing::TestWithParam<std::tuple<PartitionFn, Index, int>> {};

TEST_P(PartitionP, CoversExactlyOnce) {
  const auto [fn, n, np] = GetParam();
  std::set<Index> seen;
  for (int r = 0; r < np; ++r) {
    for (Index g : fn(n, np, r)) {
      EXPECT_TRUE(seen.insert(g).second) << "duplicate " << g;
      EXPECT_GE(g, 0);
      EXPECT_LT(g, n);
    }
  }
  EXPECT_EQ(static_cast<Index>(seen.size()), n);
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, PartitionP,
    ::testing::Combine(
        ::testing::Values(static_cast<PartitionFn>(blockPartition),
                          static_cast<PartitionFn>(cyclicPartition),
                          static_cast<PartitionFn>(randomPart)),
        ::testing::Values<Index>(1, 17, 256),
        ::testing::Values(1, 3, 8)));

TEST(Partition, BlockIsContiguous) {
  const auto p = blockPartition(10, 3, 1);
  ASSERT_EQ(p.size(), 4u);  // ceil(10/3)=4 -> proc1 owns 4..7
  EXPECT_EQ(p.front(), 4);
  EXPECT_EQ(p.back(), 7);
}

TEST(Partition, CyclicStridesByP) {
  const auto p = cyclicPartition(10, 4, 2);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 2);
  EXPECT_EQ(p[1], 6);
}

TEST(Partition, RandomDiffersFromBlock) {
  const auto r = randomPartition(64, 4, 0, 7);
  const auto b = blockPartition(64, 4, 0);
  EXPECT_NE(r, b);
}

TEST(Partition, RandomIsSeedStable) {
  EXPECT_EQ(randomPartition(100, 4, 2, 5), randomPartition(100, 4, 2, 5));
  EXPECT_NE(randomPartition(100, 4, 2, 5), randomPartition(100, 4, 2, 6));
}

// --- translation tables -----------------------------------------------------

class TTableP : public ::testing::TestWithParam<
                    std::tuple<TranslationTable::Storage, PartitionFn, int>> {};

TEST_P(TTableP, DereferenceAgreesWithPartition) {
  const auto [storage, fn, np] = GetParam();
  const Index n = 97;
  World::runSPMD(np, [&, storage, fn](Comm& c) {
    const auto mine = fn(n, c.size(), c.rank());
    const auto table = TranslationTable::build(c, mine, n, storage);
    EXPECT_EQ(table.globalSize(), n);
    EXPECT_EQ(table.localCount(c.rank()), static_cast<Index>(mine.size()));
    // Every processor queries every global index.
    std::vector<Index> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    const auto locs = table.dereference(c, all);
    // Verify against the partitioner ground truth.
    for (int r = 0; r < c.size(); ++r) {
      const auto owned = fn(n, c.size(), r);
      for (size_t i = 0; i < owned.size(); ++i) {
        const ElementLoc& loc = locs[static_cast<size_t>(owned[i])];
        EXPECT_EQ(loc.proc, r);
        EXPECT_EQ(loc.offset, static_cast<Index>(i));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    StorageAndPartition, TTableP,
    ::testing::Combine(
        ::testing::Values(TranslationTable::Storage::kReplicated,
                          TranslationTable::Storage::kDistributed),
        ::testing::Values(static_cast<PartitionFn>(blockPartition),
                          static_cast<PartitionFn>(cyclicPartition),
                          static_cast<PartitionFn>(randomPart)),
        ::testing::Values(1, 2, 5)));

TEST(TTable, RejectsIncompleteCover) {
  EXPECT_THROW(World::runSPMD(2,
                              [](Comm& c) {
                                // Both procs claim the same block; coverage
                                // check must fire.
                                auto mine = blockPartition(10, 2, 0);
                                TranslationTable::build(
                                    c, mine, 10,
                                    TranslationTable::Storage::kDistributed);
                              }),
               Error);
}

TEST(TTable, RejectsOutOfRangeIndex) {
  EXPECT_THROW(World::runSPMD(1,
                              [](Comm& c) {
                                std::vector<Index> mine{0, 1, 99};
                                TranslationTable::build(
                                    c, mine, 3,
                                    TranslationTable::Storage::kReplicated);
                              }),
               Error);
}

TEST(TTable, LocalDereferenceRequiresReplicated) {
  World::runSPMD(2, [](Comm& c) {
    const auto mine = blockPartition(8, 2, c.rank());
    const auto dist = TranslationTable::build(
        c, mine, 8, TranslationTable::Storage::kDistributed);
    EXPECT_THROW(dist.dereferenceLocal(0), Error);
    const auto repl = TranslationTable::build(
        c, mine, 8, TranslationTable::Storage::kReplicated);
    EXPECT_EQ(repl.dereferenceLocal(5).proc, 1);
    EXPECT_EQ(repl.dereferenceLocal(5).offset, 1);
  });
}

TEST(TTable, GatherFullMatchesBothStorages) {
  World::runSPMD(4, [](Comm& c) {
    const auto mine = randomPartition(50, c.size(), c.rank(), 3);
    const auto dist = TranslationTable::build(
        c, mine, 50, TranslationTable::Storage::kDistributed);
    const auto repl = TranslationTable::build(
        c, mine, 50, TranslationTable::Storage::kReplicated);
    const auto fullD = dist.gatherFull(c);
    const auto fullR = repl.gatherFull(c);
    ASSERT_EQ(fullD.size(), 50u);
    EXPECT_EQ(fullD, fullR);
  });
}

TEST(TTable, DereferenceEmptyQuery) {
  World::runSPMD(2, [](Comm& c) {
    const auto mine = blockPartition(8, 2, c.rank());
    const auto t = TranslationTable::build(
        c, mine, 8, TranslationTable::Storage::kDistributed);
    EXPECT_TRUE(t.dereference(c, {}).empty());
  });
}

/// The fingerprint recipe, recomputed from a table's public state: storage
/// policy, extents, owner counts, rank, query cost and the held entry
/// shard.  Every factory's stored digest must keep exactly these bits.
std::uint64_t recipeFingerprint(const TranslationTable& t, int nprocs,
                                int rank, std::span<const ElementLoc> shard) {
  HashStream h;
  h.pod(static_cast<int>(t.storage()));
  h.pod(t.globalSize());
  h.pod((t.globalSize() + nprocs - 1) / nprocs);
  std::vector<Index> counts;
  for (int p = 0; p < nprocs; ++p) counts.push_back(t.localCount(p));
  h.podSpan(std::span<const Index>(counts));
  h.pod(rank);
  h.pod(t.modeledQueryCost());
  h.pod(shard.size());
  for (const ElementLoc& e : shard) {
    h.pod(e.proc);
    h.pod(e.offset);
  }
  return h.digest()[0];
}

TEST(TTable, FingerprintIsFixedAtConstructionWithUnchangedBits) {
  World::runSPMD(3, [](Comm& c) {
    const Index n = 40;
    const auto mine = randomPartition(n, c.size(), c.rank(), 9);
    for (const auto storage : {TranslationTable::Storage::kReplicated,
                               TranslationTable::Storage::kDistributed}) {
      const auto a = TranslationTable::build(c, mine, n, storage, 1.5e-5);
      const auto b = TranslationTable::build(c, mine, n, storage, 1.5e-5);
      // Two separately built identical tables: equal digests, distinct
      // identities.
      EXPECT_EQ(a.localFingerprint(), b.localFingerprint());
      EXPECT_NE(a.uid(), b.uid());
      // The digest survives serialize/deserialize (which remints the uid).
      const auto back = TranslationTable::deserialize(a.serialize());
      EXPECT_EQ(back.localFingerprint(), a.localFingerprint());
      // And it is the recipe's value over the shard this rank holds.
      const std::vector<ElementLoc> full = a.gatherFull(c);
      std::span<const ElementLoc> shard(full);
      if (storage == TranslationTable::Storage::kDistributed) {
        const Index block = (n + c.size() - 1) / c.size();
        const Index lo = std::min(n, block * c.rank());
        shard = shard.subspan(static_cast<std::size_t>(lo),
                              static_cast<std::size_t>(
                                  std::min(n, lo + block) - lo));
      }
      EXPECT_EQ(a.localFingerprint(),
                recipeFingerprint(a, c.size(), c.rank(), shard));
    }
    // Another assignment gives another replicated table and digest.
    const auto a = TranslationTable::build(
        c, mine, n, TranslationTable::Storage::kReplicated, 1.5e-5);
    const auto other = TranslationTable::build(
        c, randomPartition(n, c.size(), c.rank(), 10), n,
        TranslationTable::Storage::kReplicated, 1.5e-5);
    EXPECT_NE(other.localFingerprint(), a.localFingerprint());
  });
  // The third factory: a table rebuilt from a shipped entry list.
  std::vector<ElementLoc> entries;
  std::vector<Index> next(3, 0);
  for (Index g = 0; g < 20; ++g) {
    const auto p = static_cast<std::size_t>((g * 7) % 3);
    entries.push_back(ElementLoc{static_cast<int>(p), next[p]++});
  }
  const auto t = TranslationTable::replicatedFromEntries(entries, 3, 2e-6);
  EXPECT_EQ(t.localFingerprint(), recipeFingerprint(t, 3, 0, entries));
  EXPECT_EQ(TranslationTable::deserialize(t.serialize()).localFingerprint(),
            t.localFingerprint());
}

// --- irregular arrays -------------------------------------------------------

TEST(IrregArray, FillAndGatherGlobal) {
  World::runSPMD(3, [](Comm& c) {
    const Index n = 31;
    const auto mine = randomPartition(n, c.size(), c.rank(), 9);
    auto table = std::make_shared<TranslationTable>(TranslationTable::build(
        c, mine, n, TranslationTable::Storage::kDistributed));
    IrregArray<double> x(c, table, mine);
    x.fillByGlobal([](Index g) { return 10.0 * static_cast<double>(g); });
    const auto global = x.gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(global[static_cast<size_t>(g)], 10.0 * static_cast<double>(g));
    }
  });
}

TEST(IrregArray, RejectsMismatchedAssignment) {
  EXPECT_THROW(
      World::runSPMD(2,
                     [](Comm& c) {
                       const auto mine = blockPartition(10, 2, c.rank());
                       auto table = std::make_shared<TranslationTable>(
                           TranslationTable::build(
                               c, mine, 10,
                               TranslationTable::Storage::kReplicated));
                       auto wrong = mine;
                       wrong.pop_back();
                       IrregArray<double> x(c, table, wrong);
                     }),
      Error);
}

// --- localize + gather/scatter ----------------------------------------------

TEST(Localize, LocalIndicesResolveReferences) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 40;
    const auto mine = cyclicPartition(n, c.size(), c.rank());
    const auto table = TranslationTable::build(
        c, mine, n, TranslationTable::Storage::kDistributed);
    auto tablePtr = std::make_shared<TranslationTable>(table);
    IrregArray<double> x(c, tablePtr, mine);
    x.fillByGlobal([](Index g) { return static_cast<double>(g) + 0.5; });

    // Each proc references a window of globals, with repeats.
    std::vector<Index> refs;
    for (Index k = 0; k < 20; ++k) refs.push_back((c.rank() * 7 + k) % n);
    refs.push_back(refs[0]);  // duplicate
    const Localized loc = localize(c, table, refs);

    ASSERT_EQ(loc.localIndices.size(), refs.size());
    // Duplicates share a slot.
    EXPECT_EQ(loc.localIndices.front(), loc.localIndices.back());

    std::vector<double> ghost(static_cast<size_t>(loc.ghostCount));
    gatherGhosts<double>(c, loc, x.raw(), ghost);
    const Index owned = x.localCount();
    for (size_t i = 0; i < refs.size(); ++i) {
      const Index li = loc.localIndices[i];
      const double v = li < owned
                           ? x.raw()[static_cast<size_t>(li)]
                           : ghost[static_cast<size_t>(li - owned)];
      EXPECT_DOUBLE_EQ(v, static_cast<double>(refs[i]) + 0.5);
    }
  });
}

TEST(Localize, NoGhostsForAllLocalRefs) {
  World::runSPMD(2, [](Comm& c) {
    const Index n = 16;
    const auto mine = blockPartition(n, c.size(), c.rank());
    const auto table = TranslationTable::build(
        c, mine, n, TranslationTable::Storage::kDistributed);
    const Localized loc = localize(c, table, mine);
    EXPECT_EQ(loc.ghostCount, 0);
    EXPECT_TRUE(loc.gatherSched.sends.empty() || c.size() == 1);
    EXPECT_TRUE(loc.gatherSched.recvs.empty());
  });
}

TEST(Localize, ScatterAddAccumulatesToOwners) {
  World::runSPMD(3, [](Comm& c) {
    const Index n = 12;
    const auto mine = cyclicPartition(n, c.size(), c.rank());
    const auto table = TranslationTable::build(
        c, mine, n, TranslationTable::Storage::kReplicated);
    auto tablePtr = std::make_shared<TranslationTable>(table);
    IrregArray<double> y(c, tablePtr, mine);
    y.fillByGlobal([](Index) { return 1.0; });

    // Every proc contributes +g to every global element.
    std::vector<Index> refs(static_cast<size_t>(n));
    std::iota(refs.begin(), refs.end(), 0);
    const Localized loc = localize(c, table, refs);
    std::vector<double> ghost(static_cast<size_t>(loc.ghostCount), 0.0);
    const Index owned = y.localCount();
    for (size_t i = 0; i < refs.size(); ++i) {
      const Index li = loc.localIndices[i];
      const double v = static_cast<double>(refs[i]);
      if (li < owned) {
        y.raw()[static_cast<size_t>(li)] += v;
      } else {
        ghost[static_cast<size_t>(li - owned)] += v;
      }
    }
    scatterAddGhosts<double>(c, loc, ghost, y.raw());
    const auto global = y.gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      // 1 + 3 procs x g
      EXPECT_DOUBLE_EQ(global[static_cast<size_t>(g)],
                       1.0 + 3.0 * static_cast<double>(g));
    }
  });
}

TEST(Localize, MessageAggregation) {
  // All off-proc references to one owner travel in a single message.
  World::runSPMD(2, [](Comm& c) {
    const Index n = 100;
    const auto mine = blockPartition(n, c.size(), c.rank());
    const auto table = TranslationTable::build(
        c, mine, n, TranslationTable::Storage::kReplicated);
    // Proc 0 references 30 elements owned by proc 1 and vice versa.
    std::vector<Index> refs;
    for (Index k = 0; k < 30; ++k) {
      refs.push_back(c.rank() == 0 ? 50 + k : k);
    }
    const Localized loc = localize(c, table, refs);
    auto tablePtr = std::make_shared<TranslationTable>(table);
    IrregArray<double> x(c, tablePtr, mine);
    std::vector<double> ghost(static_cast<size_t>(loc.ghostCount));
    c.resetStats();
    gatherGhosts<double>(c, loc, x.raw(), ghost);
    EXPECT_EQ(c.stats().messagesSent, 1u);
    EXPECT_EQ(c.stats().messagesReceived, 1u);
    EXPECT_EQ(c.stats().bytesReceived, 30 * sizeof(double));
  });
}

// --- chaos-native copy ------------------------------------------------------

TEST(IrregCopy, MovesMappedElements) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 64;
    // Destination: irregularly distributed array.
    const auto dstMine = randomPartition(n, c.size(), c.rank(), 17);
    auto dstTable = std::make_shared<TranslationTable>(TranslationTable::build(
        c, dstMine, n, TranslationTable::Storage::kDistributed));
    IrregArray<double> dst(c, dstTable, dstMine);
    // Source: block distributed; the mapping reverses the array.
    const auto srcMine = blockPartition(n, c.size(), c.rank());
    auto srcTable = std::make_shared<TranslationTable>(TranslationTable::build(
        c, srcMine, n, TranslationTable::Storage::kDistributed));
    IrregArray<double> src(c, srcTable, srcMine);
    src.fillByGlobal([](Index g) { return static_cast<double>(g); });

    // My mapping entries: for each locally owned source element i (global g),
    // destination global = n-1-g.
    std::vector<Index> srcOffsets;
    std::vector<Index> dstGlobals;
    for (size_t i = 0; i < srcMine.size(); ++i) {
      srcOffsets.push_back(static_cast<Index>(i));
      dstGlobals.push_back(n - 1 - srcMine[i]);
    }
    const auto sched = buildIrregCopySchedule(c, *dstTable, srcOffsets, dstGlobals);
    executeChaosCopy<double>(c, sched, src.raw(), dst.raw(), c.nextUserTag());
    const auto global = dst.gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(global[static_cast<size_t>(g)],
                       static_cast<double>(n - 1 - g));
    }
  });
}

TEST(IrregCopy, ScheduleIsSymmetric) {
  // reverse(schedule) copies the data back (paper Section 4.3 symmetry).
  World::runSPMD(2, [](Comm& c) {
    const Index n = 20;
    const auto aMine = blockPartition(n, c.size(), c.rank());
    const auto bMine = cyclicPartition(n, c.size(), c.rank());
    auto aTable = std::make_shared<TranslationTable>(TranslationTable::build(
        c, aMine, n, TranslationTable::Storage::kReplicated));
    auto bTable = std::make_shared<TranslationTable>(TranslationTable::build(
        c, bMine, n, TranslationTable::Storage::kReplicated));
    IrregArray<double> a(c, aTable, aMine);
    IrregArray<double> b(c, bTable, bMine);
    a.fillByGlobal([](Index g) { return static_cast<double>(g * g); });

    std::vector<Index> srcOffsets;
    std::vector<Index> dstGlobals;
    for (size_t i = 0; i < aMine.size(); ++i) {
      srcOffsets.push_back(static_cast<Index>(i));
      dstGlobals.push_back(aMine[i]);  // identity mapping
    }
    const auto sched = buildIrregCopySchedule(c, *bTable, srcOffsets, dstGlobals);
    executeChaosCopy<double>(c, sched, a.raw(), b.raw(), c.nextUserTag());
    // Wipe a, then copy back with the reversed schedule.
    a.fillByGlobal([](Index) { return -1.0; });
    const auto rev = sched::reverse(sched);
    executeChaosCopy<double>(c, rev, b.raw(), a.raw(), c.nextUserTag());
    const auto global = a.gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(global[static_cast<size_t>(g)], static_cast<double>(g * g));
    }
  });
}

// --- edge sweep (Figure 1 Loop 3) -------------------------------------------

TEST(EdgeSweep, MatchesSerialOracle) {
  const Index nNodes = 24;
  // A ring plus some chords.
  std::vector<Index> ia, ib;
  for (Index v = 0; v < nNodes; ++v) {
    ia.push_back(v);
    ib.push_back((v + 1) % nNodes);
  }
  for (Index v = 0; v < nNodes; v += 3) {
    ia.push_back(v);
    ib.push_back((v + 7) % nNodes);
  }
  const Index nEdges = static_cast<Index>(ia.size());

  // Serial oracle: two sweeps.
  std::vector<double> xs(static_cast<size_t>(nNodes)), ys(static_cast<size_t>(nNodes), 0.0);
  for (Index v = 0; v < nNodes; ++v) xs[static_cast<size_t>(v)] = static_cast<double>(v) + 1.0;
  for (int s = 0; s < 2; ++s) {
    for (Index e = 0; e < nEdges; ++e) {
      const double contrib = (xs[static_cast<size_t>(ia[static_cast<size_t>(e)])] +
                              xs[static_cast<size_t>(ib[static_cast<size_t>(e)])]) / 4.0;
      ys[static_cast<size_t>(ia[static_cast<size_t>(e)])] += contrib;
      ys[static_cast<size_t>(ib[static_cast<size_t>(e)])] += contrib;
    }
  }

  for (int np : {1, 2, 4}) {
    World::runSPMD(np, [&](Comm& c) {
      const auto mine = randomPartition(nNodes, c.size(), c.rank(), 5);
      auto table = std::make_shared<TranslationTable>(TranslationTable::build(
          c, mine, nNodes, TranslationTable::Storage::kDistributed));
      IrregArray<double> x(c, table, mine), y(c, table, mine);
      x.fillByGlobal([](Index g) { return static_cast<double>(g) + 1.0; });
      y.fillByGlobal([](Index) { return 0.0; });
      // Block-distribute the edges.
      const auto myEdges = blockPartition(nEdges, c.size(), c.rank());
      std::vector<Index> myIa, myIb;
      for (Index e : myEdges) {
        myIa.push_back(ia[static_cast<size_t>(e)]);
        myIb.push_back(ib[static_cast<size_t>(e)]);
      }
      EdgeSweep<double> sweep(c, *table, myIa, myIb);
      sweep.run(x, y);
      sweep.run(x, y);
      const auto got = y.gatherGlobal();
      for (Index v = 0; v < nNodes; ++v) {
        EXPECT_NEAR(got[static_cast<size_t>(v)], ys[static_cast<size_t>(v)], 1e-9)
            << "np=" << np << " node=" << v;
      }
    });
  }
}

}  // namespace
}  // namespace mc::chaos
