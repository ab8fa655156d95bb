// Differential suite for the batched localize inspector: the batched,
// cache-backed localize() must produce BIT-IDENTICAL Localized output
// (ghost layout, local indices, gather/scatter-add schedules) to the
// hash-based element-wise oracle localizeReference() on any reference
// pattern — duplicates, all-local, all-remote, empty ranks, single
// elements, adversarial owner skew — over random translation tables under
// both storage policies.  Plus the dereference-cache contract: hit/miss
// accounting via obs snapshot diffs, uid keying across live tables, and
// the stale-cache regression (chaos::remap invalidates the old table's
// shard on every rank).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <utility>

#include "chaos/deref_cache.h"
#include "chaos/irreg_array.h"
#include "chaos/localize.h"
#include "chaos/partition.h"
#include "chaos/remap.h"
#include "chaos/ttable.h"
#include "obs/metrics.h"
#include "oracle/localize_oracle.h"
#include "transport/world.h"

namespace mc::chaos {
namespace {

using layout::Index;
using oracle::localizeReference;
using transport::Comm;
using transport::World;
using Storage = TranslationTable::Storage;

void expectPlansEqual(const std::vector<sched::OffsetPlan>& got,
                      const std::vector<sched::OffsetPlan>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].peer, want[i].peer) << what << " plan " << i;
    EXPECT_EQ(got[i].runs, want[i].runs) << what << " plan " << i;
  }
}

void expectLocalizedEqual(const Localized& got, const Localized& want) {
  EXPECT_EQ(got.localIndices, want.localIndices);
  EXPECT_EQ(got.ghostCount, want.ghostCount);
  expectPlansEqual(got.gatherSched.sends, want.gatherSched.sends, "gather sends");
  expectPlansEqual(got.gatherSched.recvs, want.gatherSched.recvs, "gather recvs");
  EXPECT_EQ(got.gatherSched.localRuns, want.gatherSched.localRuns);
  expectPlansEqual(got.scatterAddSched.sends, want.scatterAddSched.sends,
                   "scatter sends");
  expectPlansEqual(got.scatterAddSched.recvs, want.scatterAddSched.recvs,
                   "scatter recvs");
}

/// Runs both inspectors on the same inputs and cross-checks them.
void differential(Comm& c, const TranslationTable& table,
                  std::span<const Index> refs) {
  const Localized oracle = localizeReference(c, table, refs);
  const Localized batched = localize(c, table, refs);
  expectLocalizedEqual(batched, oracle);
}

class LocalizeBatchP
    : public ::testing::TestWithParam<std::tuple<Storage, int, unsigned>> {};

TEST_P(LocalizeBatchP, RandomRefsMatchOracle) {
  const auto [storage, nprocs, seed] = GetParam();
  World::runSPMD(nprocs, [storage = storage, seed = seed](Comm& c) {
    const Index n = 257;
    const auto mine = randomPartition(n, c.size(), c.rank(), seed);
    const auto table =
        TranslationTable::build(c, mine, n, storage);
    // Heavy duplication: ~3n draws from n indices.
    std::mt19937 rng(seed * 977u + static_cast<unsigned>(c.rank()));
    std::uniform_int_distribution<Index> pick(0, n - 1);
    std::vector<Index> refs(static_cast<size_t>(3 * n));
    for (Index& g : refs) g = pick(rng);
    differential(c, table, refs);
    // Second pass over fresh refs: the batched path now runs against a
    // warm cache and must still match exactly.
    for (Index& g : refs) g = pick(rng);
    differential(c, table, refs);
  });
}

INSTANTIATE_TEST_SUITE_P(
    StorageProcsSeeds, LocalizeBatchP,
    ::testing::Combine(::testing::Values(Storage::kReplicated,
                                         Storage::kDistributed),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1u, 2u, 3u)));

TEST(LocalizeBatch, AllLocalRefsMatchOracle) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 120;
    const auto mine = randomPartition(n, c.size(), c.rank(), 7);
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    // Every rank references only its own elements (twice, for duplicates).
    std::vector<Index> refs(mine.begin(), mine.end());
    refs.insert(refs.end(), mine.begin(), mine.end());
    const Localized oracle = localizeReference(c, table, refs);
    const Localized batched = localize(c, table, refs);
    expectLocalizedEqual(batched, oracle);
    EXPECT_EQ(batched.ghostCount, 0);
    EXPECT_TRUE(batched.gatherSched.sends.empty());
    EXPECT_TRUE(batched.gatherSched.recvs.empty());
  });
}

TEST(LocalizeBatch, AllRemoteRefsMatchOracle) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 96;
    // Block partition: easy to reference exclusively the next rank's block.
    const auto mine = blockPartition(n, c.size(), c.rank());
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    const auto theirs =
        blockPartition(n, c.size(), (c.rank() + 1) % c.size());
    std::vector<Index> refs(theirs.begin(), theirs.end());
    if (c.size() > 1) {
      const Localized batched = localize(c, table, refs);
      EXPECT_EQ(batched.ghostCount, static_cast<Index>(refs.size()));
      expectLocalizedEqual(batched, localizeReference(c, table, refs));
    } else {
      differential(c, table, refs);
    }
  });
}

TEST(LocalizeBatch, EmptyAndSingleElementRanksMatchOracle) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 64;
    const auto mine = randomPartition(n, c.size(), c.rank(), 11);
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    // Rank 0: empty reference list; rank 1: a single reference; the rest:
    // a handful.  Collectivity must hold with uneven participation.
    std::vector<Index> refs;
    if (c.rank() == 1) refs = {n - 1};
    if (c.rank() >= 2) refs = {0, n / 2, 0, n - 1, n / 2};
    differential(c, table, refs);
  });
}

TEST(LocalizeBatch, AdversarialOwnerSkewMatchesOracle) {
  World::runSPMD(4, [](Comm& c) {
    // Rank 0 owns 90% of the elements; everyone references mostly rank 0.
    const Index n = 200;
    const Index cut = (n * 9) / 10;
    std::vector<Index> mine;
    if (c.rank() == 0) {
      mine.resize(static_cast<size_t>(cut));
      std::iota(mine.begin(), mine.end(), Index{0});
    } else {
      for (Index g = cut + c.rank() - 1; g < n;
           g += static_cast<Index>(c.size() - 1)) {
        mine.push_back(g);
      }
    }
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    std::mt19937 rng(13u + static_cast<unsigned>(c.rank()));
    std::uniform_int_distribution<Index> skewed(0, cut - 1);
    std::uniform_int_distribution<Index> any(0, n - 1);
    std::vector<Index> refs;
    for (int i = 0; i < 300; ++i) {
      refs.push_back((i % 10 == 0) ? any(rng) : skewed(rng));
    }
    differential(c, table, refs);
  });
}

TEST(LocalizeBatch, OutOfRangeReferencesThrowUnderBothStorages) {
  // localize and dereferenceCached share one sort-unique, which checks
  // every reference against [0, globalSize) before any exchange; every
  // rank passes a bad reference, so each throws on its own and the ranks
  // stay in step for the localize that follows.
  World::runSPMD(4, [](Comm& c) {
    const Index n = 64;
    const auto mine = randomPartition(n, c.size(), c.rank(), 61);
    for (const Storage storage :
         {Storage::kReplicated, Storage::kDistributed}) {
      const auto table = TranslationTable::build(c, mine, n, storage);
      for (const Index bad : {Index{-1}, n}) {
        const std::vector<Index> refs{0, n - 1, bad, 3};
        EXPECT_THROW(localize(c, table, refs), Error);
        EXPECT_THROW(table.dereferenceCached(c, refs), Error);
      }
      const std::vector<Index> refs{0, n - 1, 3, 0};
      differential(c, table, refs);
    }
  });
}

// --- sortUnique: bitmap and radix paths against std::sort -----------------

/// std::sort + unique: what sortUnique must give bit for bit.
SortedBatch sortUniqueReference(std::span<const Index> globals) {
  SortedBatch want;
  want.uniq.assign(globals.begin(), globals.end());
  std::sort(want.uniq.begin(), want.uniq.end());
  want.uniq.erase(std::unique(want.uniq.begin(), want.uniq.end()),
                  want.uniq.end());
  for (const Index g : globals) {
    want.uniqOf.push_back(static_cast<std::uint32_t>(
        std::lower_bound(want.uniq.begin(), want.uniq.end(), g) -
        want.uniq.begin()));
  }
  return want;
}

void expectSortUniqueMatches(const std::vector<Index>& globals,
                             Index globalSize, const char* what) {
  const SortedBatch got = sortUnique(globals, globalSize);
  const SortedBatch want = sortUniqueReference(globals);
  EXPECT_EQ(got.uniq, want.uniq) << what;
  EXPECT_EQ(got.uniqOf, want.uniqOf) << what;
}

/// `distinct` globals drawn from [lo, lo + span), each listed `copies`
/// times, shuffled.
std::vector<Index> duplicatedBatch(std::mt19937_64& rng, Index lo, Index span,
                                   std::size_t distinct, std::size_t copies) {
  std::uniform_int_distribution<Index> pick(lo, lo + span - 1);
  std::vector<Index> out;
  for (std::size_t k = 0; k < distinct; ++k) {
    out.insert(out.end(), copies, pick(rng));
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

TEST(SortUnique, DenseBatchesMatchStdSort) {
  std::mt19937_64 rng(41);
  // Mesh-like: every edge endpoint listed about four times.
  const Index table = Index{1} << 18;
  expectSortUniqueMatches(duplicatedBatch(rng, 0, table, 16384, 4), table,
                          "mesh-like");
  // A window far from 0.
  const Index far = Index{1} << 40;
  expectSortUniqueMatches(duplicatedBatch(rng, far, 4096, 700, 3), 2 * far,
                          "window far from 0");
}

TEST(SortUnique, SparseBatchesMatchStdSort) {
  const Index apart = Index{1} << 40;
  std::vector<Index> spread;
  for (const Index k : {5, 0, 3, 5, 1, 0, 7}) spread.push_back(k * apart);
  expectSortUniqueMatches(spread, 8 * apart, "keys 2^40 apart");
  expectSortUniqueMatches({999'999'937, 12, 500'000'000, 12, 77'777},
                          1'000'000'000, "a handful over a large table");
}

TEST(SortUnique, SelectionBoundaryMatchesStdSort) {
  // The bitmap is taken while the span [min, max] needs no more 64-bit
  // words than the batch has queries: here exactly that many, then one
  // more.
  std::mt19937_64 rng(43);
  const Index lo = 1000;
  for (const std::size_t n : {2u, 64u, 999u}) {
    for (const Index extra : {Index{0}, Index{1}}) {
      const Index hi = lo + 64 * (static_cast<Index>(n) + extra) - 1;
      std::vector<Index> globals{hi, lo};
      std::uniform_int_distribution<Index> pick(lo, hi);
      while (globals.size() < n) globals.push_back(pick(rng));
      expectSortUniqueMatches(globals, hi + 1,
                              extra == 0 ? "span words == batch"
                                         : "span words == batch + 1");
    }
  }
}

TEST(SortUnique, DegenerateBatchesMatchStdSort) {
  expectSortUniqueMatches(std::vector<Index>(100, 42), 43, "all equal");
  expectSortUniqueMatches({7}, 8, "one key");
  expectSortUniqueMatches({}, 8, "empty");
}

TEST(SortUnique, OutOfRangeThrowsOnBothPaths) {
  // A dense batch over a 200-element table stays dense with either bad
  // key; a sparse one over 2^40 stays sparse.
  std::vector<Index> dense(200);
  std::iota(dense.begin(), dense.end(), Index{0});
  const Index n = Index{1} << 40;
  const std::vector<Index> sparse{0, n / 2, n - 1};
  for (auto [batch, size] : {std::pair{dense, Index{200}},
                             std::pair{sparse, n}}) {
    for (const Index bad : {Index{-1}, size}) {
      batch.push_back(bad);
      EXPECT_THROW(sortUnique(batch, size), Error);
      batch.pop_back();
    }
  }
}

// --- dereference-cache contract --------------------------------------------

TEST(DerefCache, SecondLocalizeHitsEntirelyInCache) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 150;
    const auto mine = randomPartition(n, c.size(), c.rank(), 21);
    const auto table =
        TranslationTable::build(c, mine, n, Storage::kDistributed);
    std::vector<Index> refs;
    for (Index g = c.rank(); g < n; g += 3) refs.push_back(g % n);
    const size_t distinct = [&] {
      std::vector<Index> u(refs);
      std::sort(u.begin(), u.end());
      u.erase(std::unique(u.begin(), u.end()), u.end());
      return u.size();
    }();

    (void)localize(c, table, refs);
    const obs::Snapshot before = obs::threadRegistry().snapshot();
    (void)localize(c, table, refs);
    const obs::Snapshot diff = obs::threadRegistry().snapshot() - before;
    // Same distinct set again: all hits, no misses, nothing inserted.
    EXPECT_EQ(diff.get("localize.deref_cache.hits"),
              static_cast<double>(distinct));
    EXPECT_EQ(diff.get("localize.deref_cache.misses"), 0.0);
    EXPECT_EQ(diff.get("localize.deref_cache.insertions"), 0.0);
  });
}

TEST(DerefCache, UidKeyingKeepsConcurrentTablesSeparate) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 90;
    const auto mineA = randomPartition(n, c.size(), c.rank(), 31);
    const auto mineB = randomPartition(n, c.size(), c.rank(), 32);
    const auto tableA =
        TranslationTable::build(c, mineA, n, Storage::kDistributed);
    const auto tableB =
        TranslationTable::build(c, mineB, n, Storage::kDistributed);
    EXPECT_NE(tableA.uid(), tableB.uid());
    std::vector<Index> refs;
    for (Index g = 0; g < n; g += 2) refs.push_back(g);
    // Interleave the two tables; each must resolve against its own shard.
    for (int round = 0; round < 3; ++round) {
      differential(c, tableA, refs);
      differential(c, tableB, refs);
    }
  });
}

TEST(DerefCache, RemapInvalidatesOldTableShard) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 128;
    auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, randomPartition(n, c.size(), c.rank(), 41),
                                n, Storage::kDistributed));
    IrregArray<double> arr(c, table,
                           randomPartition(n, c.size(), c.rank(), 41));
    arr.fillByGlobal([](Index g) { return static_cast<double>(g); });

    // Warm the cache for the old table.
    std::vector<Index> refs;
    for (Index g = 0; g < n; g += 2) refs.push_back(g);
    (void)localize(c, *table, refs);
    const double entriesBefore =
        obs::threadRegistry().snapshot().get("localize.deref_cache.entries");

    const obs::Snapshot before = obs::threadRegistry().snapshot();
    IrregArray<double> moved =
        remap(arr, randomPartition(n, c.size(), c.rank(), 99),
              Storage::kDistributed);
    const obs::Snapshot diff = obs::threadRegistry().snapshot() - before;
    // remap dropped the old table's shard on this rank.
    EXPECT_GE(diff.get("localize.deref_cache.invalidations"), 1.0);
    if (entriesBefore > 0) {
      EXPECT_LT(obs::threadRegistry()
                    .snapshot()
                    .get("localize.deref_cache.entries"),
                entriesBefore);
    }
    // Data survived the move.
    for (size_t i = 0; i < moved.myGlobals().size(); ++i) {
      EXPECT_EQ(moved.raw()[i],
                static_cast<double>(moved.myGlobals()[i]));
    }
    // The stale-cache bug class: a localize against the NEW table must
    // resolve to the new owners — differentially checked against the
    // uncached oracle — and re-priming the old table's shard must MISS
    // (its entries are gone), not serve stale locations.
    differential(c, moved.table(), refs);
    const obs::Snapshot prime = obs::threadRegistry().snapshot();
    (void)localize(c, *table, refs);
    const obs::Snapshot primeDiff =
        obs::threadRegistry().snapshot() - prime;
    EXPECT_EQ(primeDiff.get("localize.deref_cache.misses"),
              static_cast<double>(refs.size()));
  });
}

TEST(DerefCache, CachedDereferenceMatchesUncachedOnRawQueries) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 140;
    const auto mine = randomPartition(n, c.size(), c.rank(), 51);
    for (const Storage storage :
         {Storage::kReplicated, Storage::kDistributed}) {
      const auto table = TranslationTable::build(c, mine, n, storage);
      std::mt19937 rng(7u * static_cast<unsigned>(c.rank() + 1));
      std::uniform_int_distribution<Index> pick(0, n - 1);
      for (int round = 0; round < 4; ++round) {
        // Unsorted, duplicate-heavy query lists of varying length.
        std::vector<Index> q(static_cast<size_t>(20 + 30 * round));
        for (Index& g : q) g = pick(rng);
        EXPECT_EQ(table.dereferenceCached(c, q), table.dereference(c, q));
      }
    }
  });
}

}  // namespace
}  // namespace mc::chaos
