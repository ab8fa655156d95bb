// Run compression (sched/run_plan.h) must be an exact, order-preserving
// re-encoding of offset lists: adversarial patterns round-trip through
// compress/expand unchanged, appending whole runs matches the element-wise
// greedy, and run-wise pack/unpack/local-copy produce bit-identical results
// to element-wise loops.
#include <gtest/gtest.h>

#include <numeric>

#include "oracle/run_reference.h"
#include "sched/run_plan.h"
#include "sched/executor.h"
#include "transport/world.h"
#include "util/rng.h"

namespace mc::sched {
namespace {

using layout::Index;
using transport::Comm;
using transport::World;

std::vector<Index> expand(const std::vector<OffsetRun>& runs) {
  return expandOffsets(std::span<const OffsetRun>(runs));
}

std::vector<OffsetRun> compress(const std::vector<Index>& offsets) {
  return compressOffsets(std::span<const Index>(offsets));
}

TEST(RunCompression, EmptyList) {
  const auto runs = compress({});
  EXPECT_TRUE(runs.empty());
  EXPECT_EQ(runElementCount(std::span<const OffsetRun>(runs)), 0);
}

TEST(RunCompression, AllContiguousIsOneRun) {
  std::vector<Index> offsets(1000);
  std::iota(offsets.begin(), offsets.end(), Index{17});
  const auto runs = compress(offsets);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].start, 17);
  EXPECT_EQ(runs[0].count, 1000);
  EXPECT_EQ(runs[0].stride, 1);
  EXPECT_EQ(expand(runs), offsets);
}

TEST(RunCompression, StridedIsOneRun) {
  std::vector<Index> offsets;
  for (Index k = 0; k < 64; ++k) offsets.push_back(5 + 7 * k);
  const auto runs = compress(offsets);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].stride, 7);
  EXPECT_EQ(expand(runs), offsets);
}

TEST(RunCompression, DescendingStrideRoundTrips) {
  std::vector<Index> offsets;
  for (Index k = 0; k < 20; ++k) offsets.push_back(100 - 3 * k);
  const auto runs = compress(offsets);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].stride, -3);
  EXPECT_EQ(expand(runs), offsets);
}

TEST(RunCompression, RepeatedOffsetIsStrideZeroRun) {
  // A source element fanned out to several destinations.
  const std::vector<Index> offsets{4, 4, 4, 4};
  const auto runs = compress(offsets);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].stride, 0);
  EXPECT_EQ(runs[0].count, 4);
  EXPECT_EQ(expand(runs), offsets);
}

TEST(RunCompression, SingletonSoupRoundTrips) {
  // Worst case: no two consecutive offsets continue a progression once a
  // run is longer than one element.
  const std::vector<Index> offsets{0, 10, 11, 3, 40, 41, 42, 5, 2, 90};
  const auto runs = compress(offsets);
  EXPECT_EQ(expand(runs), offsets);
  EXPECT_EQ(runElementCount(std::span<const OffsetRun>(runs)),
            static_cast<Index>(offsets.size()));
}

TEST(RunCompression, RandomListsRoundTripExactly) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Index> offsets;
    const int n = static_cast<int>(rng.below(201));
    for (int i = 0; i < n; ++i) {
      offsets.push_back(static_cast<Index>(rng.below(300)));
    }
    const auto runs = compress(offsets);
    EXPECT_EQ(expand(runs), offsets) << "trial " << trial;
  }
}

TEST(RunCompression, PackMatchesElementwise) {
  Rng rng(7);
  std::vector<double> src(512);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<double>(i) * 1.5;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Index> offsets;
    // Mix contiguous blocks, strided rows, and repeats.
    for (int b = 0; b < 6; ++b) {
      const Index start = static_cast<Index>(rng.below(400));
      const Index stride = static_cast<Index>(rng.below(4));
      const Index count = static_cast<Index>(1 + rng.below(30));
      for (Index k = 0; k < count && start + k * stride < 512; ++k) {
        offsets.push_back(start + k * stride);
      }
    }
    std::vector<double> want;
    want.reserve(offsets.size());
    for (Index off : offsets) want.push_back(src[static_cast<size_t>(off)]);

    const auto runs = compress(offsets);
    std::vector<double> got(offsets.size());
    packRuns(std::span<const double>(src), std::span<const OffsetRun>(runs),
             got.data());
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(RunCompression, UnpackAndUnpackAddMatchElementwise) {
  // Distinct destination offsets (unpack targets never repeat in a
  // schedule); stride-1, strided and singleton runs mixed.
  std::vector<Index> offsets;
  for (Index k = 0; k < 10; ++k) offsets.push_back(k);          // contiguous
  for (Index k = 0; k < 10; ++k) offsets.push_back(30 + 3 * k); // strided
  offsets.push_back(99);
  offsets.push_back(85);
  std::vector<double> buf(offsets.size());
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = 100.0 + static_cast<double>(i);

  std::vector<double> wantSet(128, -1.0), gotSet(128, -1.0);
  std::vector<double> wantAdd(128, 0.5), gotAdd(128, 0.5);
  for (size_t i = 0; i < offsets.size(); ++i) {
    wantSet[static_cast<size_t>(offsets[i])] = buf[i];
    wantAdd[static_cast<size_t>(offsets[i])] += buf[i];
  }
  const auto runs = compress(offsets);
  unpackRuns(std::span<const OffsetRun>(runs), buf.data(),
             std::span<double>(gotSet));
  unpackRunsAdd(std::span<const OffsetRun>(runs), buf.data(),
                std::span<double>(gotAdd));
  EXPECT_EQ(gotSet, wantSet);
  EXPECT_EQ(gotAdd, wantAdd);
}

TEST(RunCompression, LocalPairsRoundTripAndAliasSafety) {
  // Pairs compress to (src, dst, count, srcStride, dstStride) runs; the
  // contiguous executor path must behave read-all-then-write (memmove).
  std::vector<std::pair<Index, Index>> pairs;
  for (Index k = 0; k < 16; ++k) pairs.emplace_back(k, 40 + k);  // contiguous
  for (Index k = 0; k < 8; ++k) pairs.emplace_back(20 + 2 * k, 60 + 3 * k);
  const auto runs = reference::compressPairs(pairs);

  std::vector<double> want(100), got(100);
  for (size_t i = 0; i < 100; ++i) want[i] = got[i] = static_cast<double>(i);
  for (const auto& [from, to] : pairs) {
    want[static_cast<size_t>(to)] = static_cast<double>(from);
  }
  copyLocalRuns(std::span<const LocalRun>(runs), std::span<const double>(got),
                std::span<double>(got));
  EXPECT_EQ(got, want);
}

TEST(RunCompression, AppendRunMatchesElementwiseGreedy) {
  // appendOffsetRun / appendLocalRun absorb whole runs, yet must leave
  // exactly the runs the element-wise greedy (compressOffsets /
  // compressPairs) makes of the expanded sequence — across seams that
  // continue, break or change a progression, and for singleton, repeated
  // and descending runs.
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<OffsetRun> runs;
    std::vector<LocalRun> localRuns;
    std::vector<Index> offsets;
    std::vector<std::pair<Index, Index>> pairs;
    Index at = static_cast<Index>(rng.below(50));
    const int n = static_cast<int>(1 + rng.below(8));
    for (int r = 0; r < n; ++r) {
      // Often start where the previous run would continue.
      const Index start =
          rng.below(2) == 0 ? at : static_cast<Index>(rng.below(100));
      const Index stride = static_cast<Index>(rng.below(5)) - 1;
      const Index count = static_cast<Index>(1 + rng.below(6));
      const Index dstStride = static_cast<Index>(rng.below(3));
      const OffsetRun run{start, count, count == 1 ? 0 : stride};
      appendOffsetRun(runs, run);
      appendLocalRun(localRuns, LocalRun{start, 2 * start, count,
                                         run.stride,
                                         count == 1 ? 0 : dstStride});
      for (Index k = 0; k < count; ++k) {
        offsets.push_back(start + k * run.stride);
        pairs.emplace_back(start + k * run.stride,
                           2 * start + k * (count == 1 ? 0 : dstStride));
      }
      at = start + count * stride;
    }
    EXPECT_EQ(runs, compress(offsets)) << "trial " << trial;
    EXPECT_EQ(localRuns, reference::compressPairs(pairs)) << "trial " << trial;
  }
}

TEST(RunCompression, ExecuteMatchesElementwiseLoops) {
  // A run schedule moves bytes exactly as element-wise loops over its
  // element lists would — including the local direct-copy path with
  // aliasing src/dst, and the scatter-add executor.
  World::runSPMD(3, [](Comm& c) {
    const int np = c.size();
    const int me = c.rank();
    const int prev = (me + np - 1) % np;
    const Index perRank = 40;
    // Ring schedule: each rank sends a strided slice to the next rank and
    // keeps a contiguous slice locally.
    std::vector<Index> sendOffs, recvOffs;
    std::vector<std::pair<Index, Index>> pairs;
    for (Index k = 0; k < 10; ++k) sendOffs.push_back(3 * k);
    for (Index k = 0; k < 10; ++k) recvOffs.push_back(perRank - 1 - k);
    for (Index k = 0; k < 6; ++k) pairs.emplace_back(k, 12 + k);
    Schedule s;
    s.bufferLocalCopies = false;
    s.sends.push_back(reference::planOf((me + 1) % np, sendOffs));
    s.recvs.push_back(reference::planOf(prev, recvOffs));
    s.localRuns = reference::compressPairs(pairs);

    auto value = [](int rank, Index k) {
      return static_cast<double>(rank) * 1000.0 + static_cast<double>(k);
    };
    std::vector<double> a(static_cast<size_t>(perRank));
    for (Index k = 0; k < perRank; ++k) a[static_cast<size_t>(k)] = value(me, k);
    std::vector<double> wantCopy = a, wantAdd = a, b = a;
    for (const auto& [from, to] : pairs) {
      wantCopy[static_cast<size_t>(to)] = value(me, from);
      wantAdd[static_cast<size_t>(to)] += value(me, from);
    }
    for (size_t k = 0; k < recvOffs.size(); ++k) {
      wantCopy[static_cast<size_t>(recvOffs[k])] = value(prev, sendOffs[k]);
      wantAdd[static_cast<size_t>(recvOffs[k])] += value(prev, sendOffs[k]);
    }
    execute<double>(c, s, a, a, c.nextUserTag());
    EXPECT_EQ(a, wantCopy);
    executeAdd<double>(c, s, b, b, c.nextUserTag());
    EXPECT_EQ(b, wantAdd);
  });
}

TEST(RunCompression, MergeEqualsCompressingTheConcatenation) {
  // merge() appends each part's runs through the greedy: the merged plan
  // is compressOffsets of the concatenated element lists, never an
  // expand-and-recompress round trip.
  std::vector<Schedule> parts(2);
  for (auto& p : parts) p.bufferLocalCopies = false;
  parts[0].sends.push_back(reference::planOf(0, {0, 1, 2}));
  parts[1].sends.push_back(reference::planOf(0, {3, 4, 12}));
  parts[0].localRuns = reference::localRunsOf({{0, 10}, {1, 11}});
  parts[1].localRuns = reference::localRunsOf({{2, 12}, {7, 30}});
  const Schedule merged = merge(std::span<const Schedule>(parts));
  ASSERT_EQ(merged.sends.size(), 1u);
  EXPECT_EQ(merged.sends[0].runs, compress({0, 1, 2, 3, 4, 12}));
  EXPECT_EQ(merged.localRuns,
            reference::localRunsOf({{0, 10}, {1, 11}, {2, 12}, {7, 30}}));
}

TEST(RunCompression, ReverseCarriesRunsWithFlippedLocals) {
  Schedule s;
  s.bufferLocalCopies = false;
  s.sends.push_back(reference::planOf(1, {0, 1, 2, 9}));
  s.recvs.push_back(reference::planOf(1, {4, 6, 8}));
  s.localRuns = reference::localRunsOf({{0, 10}, {1, 11}});
  const Schedule r = reverse(s);
  EXPECT_EQ(r.sends[0].runs, s.recvs[0].runs);
  EXPECT_EQ(r.recvs[0].runs, s.sends[0].runs);
  EXPECT_EQ(r.localRuns, reference::localRunsOf({{10, 0}, {11, 1}}));
}

}  // namespace
}  // namespace mc::sched
