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
#include "oracle/run_reference.h"
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
  // 10 globals on 2 ranks.  Each case's rank-r list is cases[k][r].
  const std::vector<std::vector<std::vector<Index>>> cases{
      // Both ranks claim the same block.
      {blockPartition(10, 2, 0), blockPartition(10, 2, 0)},
      // Global 4 on two ranks (and 9 on none).
      {{0, 1, 2, 3, 4}, {4, 5, 6, 7, 8}},
      // Global 2 twice on one rank (and 4 on none).
      {{0, 1, 2, 2, 3}, {5, 6, 7, 8, 9}},
      // A short cover: 9 of 10 globals.
      {{0, 1, 2, 3, 4}, {5, 6, 7, 8}},
  };
  for (const auto storage : {TranslationTable::Storage::kReplicated,
                             TranslationTable::Storage::kDistributed}) {
    for (std::size_t k = 0; k < cases.size(); ++k) {
      EXPECT_THROW(World::runSPMD(2,
                                  [&](Comm& c) {
                                    TranslationTable::build(
                                        c,
                                        cases[k][static_cast<std::size_t>(
                                            c.rank())],
                                        10, storage);
                                  }),
                   Error)
          << "case " << k << ", storage " << static_cast<int>(storage);
    }
  }
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

/// The fingerprint recipe, recomputed from a table's public state: the
/// header (storage policy, extents, owner counts, rank, query cost), then
///  * replicated: the 128-bit digest of each owner's row (its globals in
///    local order, rebuilt here from the full entry list) in rank order;
///  * distributed: the held entry shard, (owner, offset) per entry.
/// Every factory's stored digest must keep exactly these bits.
std::uint64_t recipeFingerprint(const TranslationTable& t, int nprocs,
                                int rank, std::span<const ElementLoc> held) {
  HashStream h;
  h.pod(static_cast<int>(t.storage()));
  h.pod(t.globalSize());
  h.pod((t.globalSize() + nprocs - 1) / nprocs);
  std::vector<Index> counts;
  for (int p = 0; p < nprocs; ++p) counts.push_back(t.localCount(p));
  h.podSpan(std::span<const Index>(counts));
  h.pod(rank);
  h.pod(t.modeledQueryCost());
  if (t.storage() == TranslationTable::Storage::kReplicated) {
    std::vector<std::vector<Index>> rows(static_cast<std::size_t>(nprocs));
    for (int p = 0; p < nprocs; ++p) {
      rows[static_cast<std::size_t>(p)].resize(
          static_cast<std::size_t>(counts[static_cast<std::size_t>(p)]));
    }
    for (std::size_t g = 0; g < held.size(); ++g) {
      rows[static_cast<std::size_t>(held[g].proc)]
          [static_cast<std::size_t>(held[g].offset)] = static_cast<Index>(g);
    }
    for (const std::vector<Index>& row : rows) {
      HashStream r;
      r.podSpan(std::span<const Index>(row));
      h.pod(r.digest());
    }
  } else {
    h.pod(held.size());
    for (const ElementLoc& e : held) {
      h.pod(e.proc);
      h.pod(e.offset);
    }
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

TEST(TTable, ReplicatedFactoriesAgree) {
  // build, replicatedFromEntries(gatherFull) and deserialize(serialize)
  // give equal entries, counts and fingerprints.  The rank is part of the
  // fingerprint's header and replicatedFromEntries builds the table as
  // rank 0 holds it, so its digest is compared on rank 0.
  for (int np = 1; np <= 6; ++np) {
    World::runSPMD(np, [](Comm& c) {
      const Index n = 53;
      std::vector<Index> mine = randomPartition(n, c.size(), c.rank(), 21);
      if (c.rank() % 2 == 1) std::reverse(mine.begin(), mine.end());
      const auto built = TranslationTable::build(
          c, mine, n, TranslationTable::Storage::kReplicated, 3e-6);
      const std::vector<ElementLoc> full = built.gatherFull(c);
      const auto fromEntries =
          TranslationTable::replicatedFromEntries(full, c.size(), 3e-6);
      const auto restored = TranslationTable::deserialize(built.serialize());
      for (const TranslationTable* t : {&fromEntries, &restored}) {
        EXPECT_EQ(t->gatherFull(c), full);
        for (int p = 0; p < c.size(); ++p) {
          EXPECT_EQ(t->localCount(p), built.localCount(p));
        }
      }
      EXPECT_EQ(restored.localFingerprint(), built.localFingerprint());
      if (c.rank() == 0) {
        EXPECT_EQ(fromEntries.localFingerprint(), built.localFingerprint());
      }
      EXPECT_EQ(TranslationTable::deserialize(fromEntries.serialize())
                    .localFingerprint(),
                fromEntries.localFingerprint());
    });
  }
}

TEST(TTable, ReplicatedEntriesMustFormRows) {
  // Owner 0 holds 2 entries, owner 1 one.  An offset past its owner's
  // count, or two entries in one slot, names a slot no array holds.
  const std::vector<std::vector<ElementLoc>> bad{
      {{0, 0}, {0, 2}, {1, 0}},
      {{0, 1}, {0, 1}, {1, 0}},
      {{0, 0}, {1, 0}, {0, -1}},
  };
  for (const auto& entries : bad) {
    EXPECT_THROW(TranslationTable::replicatedFromEntries(entries, 2), Error);
  }
  EXPECT_NO_THROW(TranslationTable::replicatedFromEntries(
      {{0, 1}, {1, 0}, {0, 0}}, 2));
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

// --- same bits ----------------------------------------------------------------
// localize and buildIrregCopySchedule compress the offset lists they already
// exchange, and append local pairs element by element.  Their plans must be
// exactly the runs of the element lists each rank derives here from every
// rank's inputs alone.

using Storage = TranslationTable::Storage;
constexpr int kProcCounts[] = {1, 2, 3, 4, 6};
constexpr Storage kStorages[] = {Storage::kReplicated, Storage::kDistributed};

/// Rank r's part: contiguous blocks for replicated tables (long runs),
/// a seeded shuffle for distributed ones (short runs).
std::vector<Index> partOf(Storage storage, Index n, int np, int r) {
  return storage == Storage::kReplicated ? blockPartition(n, np, r)
                                         : randomPartition(n, np, r, 5);
}

/// Where every global lives when each rank r owns partOf(r) in local
/// order.
std::vector<ElementLoc> ownership(Storage storage, Index n, int np) {
  std::vector<ElementLoc> at(static_cast<size_t>(n));
  for (int r = 0; r < np; ++r) {
    const std::vector<Index> mine = partOf(storage, n, np, r);
    for (size_t i = 0; i < mine.size(); ++i) {
      at[static_cast<size_t>(mine[i])] = ElementLoc{r, static_cast<Index>(i)};
    }
  }
  return at;
}

/// Rank r's localize references: a stretch of consecutive globals, then a
/// seeded sample with repeats.
std::vector<Index> refsOf(int r, Index n) {
  std::vector<Index> refs;
  for (Index g = 0; g < 12; ++g) refs.push_back((5 * r + g) % n);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r + 1);
  for (Index k = 0; k < n / 2; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    refs.push_back(static_cast<Index>(x % static_cast<std::uint64_t>(n)));
  }
  return refs;
}

TEST(Localize, PlansAreRunsOfTheElementwiseLists) {
  const Index n = 48;
  for (const int np : kProcCounts) {
    for (const Storage storage : kStorages) {
      World::runSPMD(np, [&](Comm& c) {
        const int me = c.rank();
        const auto table = TranslationTable::build(
            c, partOf(storage, n, np, me), n, storage);
        const Localized loc = localize(c, table, refsOf(me, n));
        // Every rank numbers its distinct off-processor references by
        // first appearance; an owner packs them in its requester's order.
        const std::vector<ElementLoc> at = ownership(storage, n, np);
        std::vector<std::vector<Index>> ghostSlots(static_cast<size_t>(np));
        std::vector<std::vector<Index>> wanted(static_cast<size_t>(np));
        for (int r = 0; r < np; ++r) {
          std::set<Index> seen;
          Index slot = 0;
          for (const Index g : refsOf(r, n)) {
            const ElementLoc& l = at[static_cast<size_t>(g)];
            if (l.proc == r || !seen.insert(g).second) continue;
            if (r == me) {
              ghostSlots[static_cast<size_t>(l.proc)].push_back(slot);
            }
            if (l.proc == me) {
              wanted[static_cast<size_t>(r)].push_back(l.offset);
            }
            ++slot;
          }
        }
        sched::Schedule gather, scatterAdd;
        gather.sends = scatterAdd.recvs = sched::reference::laneOf(wanted);
        gather.recvs = scatterAdd.sends = sched::reference::laneOf(ghostSlots);
        EXPECT_EQ(sched::reference::runListing(loc.gatherSched),
                  sched::reference::runListing(gather))
            << "P=" << np << " proc " << me;
        EXPECT_EQ(sched::reference::runListing(loc.scatterAddSched),
                  sched::reference::runListing(scatterAdd))
            << "P=" << np << " proc " << me;
      });
    }
  }
}

TEST(IrregCopy, PlansAreRunsOfTheElementwiseLists) {
  const Index n = 60;
  // Rank r maps its block of source elements (local offset i, global g)
  // onto destination globals: a shifted stretch, then a reversed one.
  const auto mapping = [n](int np, int r) {
    const std::vector<Index> mine = blockPartition(n, np, r);
    std::vector<Index> srcOffsets, dstGlobals;
    for (size_t i = 0; i < mine.size(); ++i) {
      srcOffsets.push_back(static_cast<Index>(i));
      dstGlobals.push_back(i % 2 == 0 ? (mine[i] + 7) % n : n - 1 - mine[i]);
    }
    return std::make_pair(srcOffsets, dstGlobals);
  };
  for (const int np : kProcCounts) {
    for (const Storage storage : kStorages) {
      World::runSPMD(np, [&](Comm& c) {
        const int me = c.rank();
        const auto table = TranslationTable::build(
            c, partOf(storage, n, np, me), n, storage);
        const auto [mySrc, myDst] = mapping(np, me);
        const sched::Schedule got =
            buildIrregCopySchedule(c, table, mySrc, myDst);
        // My entries go to their destination owners (or stay local, in
        // entry order); every other rank's entries for me arrive in that
        // rank's entry order.
        const std::vector<ElementLoc> at = ownership(storage, n, np);
        std::vector<std::vector<Index>> sendBy(static_cast<size_t>(np));
        std::vector<std::vector<Index>> recvBy(static_cast<size_t>(np));
        std::vector<std::pair<Index, Index>> pairs, flipped;
        for (int r = 0; r < np; ++r) {
          const auto [src, dst] = mapping(np, r);
          for (size_t i = 0; i < src.size(); ++i) {
            const ElementLoc& l = at[static_cast<size_t>(dst[i])];
            if (r == me && l.proc == me) {
              pairs.emplace_back(src[i], l.offset);
              flipped.emplace_back(l.offset, src[i]);
            } else if (r == me) {
              sendBy[static_cast<size_t>(l.proc)].push_back(src[i]);
            } else if (l.proc == me) {
              recvBy[static_cast<size_t>(r)].push_back(l.offset);
            }
          }
        }
        sched::Schedule want, wantReversed;
        want.sends = wantReversed.recvs = sched::reference::laneOf(sendBy);
        want.recvs = wantReversed.sends = sched::reference::laneOf(recvBy);
        want.localRuns = sched::reference::compressPairs(pairs);
        wantReversed.localRuns = sched::reference::compressPairs(flipped);
        EXPECT_EQ(sched::reference::runListing(got),
                  sched::reference::runListing(want))
            << "P=" << np << " proc " << me;
        EXPECT_EQ(sched::reference::runListing(sched::reverse(got)),
                  sched::reference::runListing(wantReversed))
            << "P=" << np << " proc " << me;
      });
    }
  }
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
