// Split-phase schedule execution (Executor::start / Pending): differential
// equivalence against run()/runAdd() — bitwise, under shuffled delivery —
// plus the misuse contract (second start throws,
// dropped Pending cancels cleanly), footprint classification against brute
// force, the steady-state zero-allocation invariant, the new traffic
// counters, and the core-level dataMoveBegin/dataMoveEnd wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "core/data_move.h"
#include "oracle/run_reference.h"
#include "parti/ghost.h"
#include "sched/executor.h"
#include "sched/footprint.h"
#include "transport/world.h"
#include "util/error.h"

namespace mc::sched {
namespace {

using layout::Index;
using transport::Comm;
using transport::World;

constexpr int kMaxPerPair = 6;

/// Fuzzed all-to-all schedule: every ordered pair (p, q) with p != q moves a
/// seeded-random number of elements from random src offsets at p into a
/// shuffled window of q's per-sender dst block (so per-peer recv offsets
/// stay disjoint — the copy-semantics invariant builders guarantee).  Rank
/// me's own dst block receives seeded-random local transfers.  Every rank
/// derives identical plans from (seed, p, q) alone, as a real inspector
/// would from the replicated distribution.
Schedule fuzzedSchedule(int me, int nprocs, unsigned seed, Index srcN) {
  Schedule s;
  s.bufferLocalCopies = false;
  auto rngFor = [&](int p, int q) {
    return std::mt19937(seed * 1000003u + static_cast<unsigned>(p) * 1009u +
                        static_cast<unsigned>(q));
  };
  auto pick = [](std::mt19937& rng, Index bound, Index count) {
    // `count` distinct offsets in [0, bound), shuffled.
    std::vector<Index> all(static_cast<size_t>(bound));
    for (Index i = 0; i < bound; ++i) all[static_cast<size_t>(i)] = i;
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(static_cast<size_t>(count));
    return all;
  };
  for (int p = 0; p < nprocs; ++p) {
    for (int q = 0; q < nprocs; ++q) {
      std::mt19937 rng = rngFor(p, q);
      const Index count = 1 + static_cast<Index>(rng() % kMaxPerPair);
      const Index dstBase = static_cast<Index>(p) * kMaxPerPair;
      if (p == q) {
        if (me == p) {
          const auto from = pick(rng, srcN, count);
          const auto to = pick(rng, kMaxPerPair, count);
          std::vector<std::pair<Index, Index>> pairs;
          for (Index k = 0; k < count; ++k) {
            pairs.emplace_back(from[static_cast<size_t>(k)],
                               dstBase + to[static_cast<size_t>(k)]);
          }
          s.localRuns = reference::compressPairs(pairs);
        }
        continue;
      }
      if (me == p) {
        s.sends.push_back(reference::planOf(q, pick(rng, srcN, count)));
      } else if (me == q) {
        std::vector<Index> to = pick(rng, kMaxPerPair, count);
        for (Index& off : to) off += dstBase;
        s.recvs.push_back(reference::planOf(p, to));
      }
    }
  }
  // p ascending already orders recvs by peer; sends by q ascending.
  s.sortByPeer();
  return s;
}

/// Rotates real delivery order across iterations (see test_executor.cc).
void staggeredSleep(int rank, int iteration) {
  const int ms = ((rank + iteration) % 3) * 4;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(SplitPhase, CopyMatchesRunBitwiseArrivalOrder) {
  World::runSPMD(4, [](Comm& c) {
    const Index srcN = 32;
    const Index dstN = static_cast<Index>(c.size()) * kMaxPerPair;
    for (unsigned seed = 1; seed <= 5; ++seed) {
      const Schedule s =
          fuzzedSchedule(c.rank(), c.size(), seed, srcN);
      std::vector<double> src(static_cast<size_t>(srcN));
      for (Index i = 0; i < srcN; ++i) {
        src[static_cast<size_t>(i)] =
            1000.0 * c.rank() + static_cast<double>(i) + 0.5;
      }
      Executor<double> runEx(c, s);
      Executor<double> splitEx(c, s);
      for (int it = 0; it < 3; ++it) {
        std::vector<double> want(static_cast<size_t>(dstN), -1.0);
        std::vector<double> got(static_cast<size_t>(dstN), -1.0);
        staggeredSleep(c.rank(), it);
        runEx.run(src, want);
        staggeredSleep(c.rank(), it + 1);
        auto pending = splitEx.start(src);
        // Interleave "caller compute" with opportunistic polls.
        for (int spin = 0; spin < 3; ++spin) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          pending.poll();
        }
        pending.finish(got);
        EXPECT_EQ(want, got) << "seed " << seed << " it " << it;
      }
    }
  });
}

TEST(SplitPhase, AddMatchesRunAddBitwiseArrivalOrder) {
  // Star pattern, every peer hitting the SAME dst offsets with values whose
  // accumulation order is visible in the bits: ((0 + 1e16) + 1) + -1e16 == 0
  // but (0 + 1e16) + -1e16 + 1 == 1.  finishAdd must reproduce runAdd's
  // peer-order application exactly, whatever the arrival order.
  World::runSPMD(4, [](Comm& c) {
    constexpr Index kN = 8;
    Schedule s;
    s.bufferLocalCopies = false;
    if (c.rank() == 0) {
      for (int r = 1; r < c.size(); ++r) {
        s.recvs.push_back(OffsetPlan{r, {}, {OffsetRun{0, kN, 1}}});
      }
    } else {
      s.sends.push_back(OffsetPlan{0, {}, {OffsetRun{0, kN, 1}}});
    }
    const double contributions[] = {1e16, 1.0, -1e16};
    std::vector<double> src(kN, 0.0);
    if (c.rank() > 0) {
      std::fill(src.begin(), src.end(),
                contributions[static_cast<size_t>(c.rank() - 1)]);
    }
    Executor<double> runEx(c, s);
    Executor<double> splitEx(c, s);
    for (int it = 0; it < 6; ++it) {
      std::vector<double> want(kN, 0.0), got(kN, 0.0);
      staggeredSleep(c.rank(), it);
      runEx.runAdd(src, want);
      staggeredSleep(c.rank(), it + 2);
      auto pending = splitEx.start(src);
      pending.poll();
      pending.finishAdd(got);
      EXPECT_EQ(want, got) << "iteration " << it;
      if (c.rank() == 0) {
        EXPECT_EQ(got[0], (0.0 + 1e16 + 1.0) + -1e16) << "iteration " << it;
      }
    }
  });
}

TEST(SplitPhase, SecondStartBeforeFinishThrows) {
  World::runSPMD(1, [](Comm& c) {
    Schedule s;
    s.bufferLocalCopies = false;
    s.localRuns = {LocalRun{0, 4, 3, 1, 1}};
    Executor<double> ex(c, s);
    std::vector<double> src{10, 11, 12, 13}, dst(8, -1.0);
    auto pending = ex.start(src);
    EXPECT_THROW((void)ex.start(src), Error);
    EXPECT_THROW(ex.run(src, dst), Error);
    EXPECT_THROW(ex.runAdd(src, dst), Error);
    EXPECT_TRUE(pending.poll());  // no receives: trivially complete
    pending.finish(dst);
    EXPECT_EQ(dst[4], 10.0);
    EXPECT_EQ(dst[5], 11.0);
    EXPECT_EQ(dst[6], 12.0);
    // The handle is spent: further use throws, and the executor is free.
    EXPECT_THROW(pending.finish(dst), Error);
    EXPECT_THROW((void)pending.poll(), Error);
    auto again = ex.start(src);
    again.finish(dst);
  });
}

TEST(SplitPhase, DroppedPendingCancelsCleanly) {
  // Rank 0 abandons a started run (handle destroyed without finish); the
  // destructor must consume the exchange's messages so the next run on the
  // same executor sees a clean mailbox and exact results.
  World::runSPMD(4, [](Comm& c) {
    const Index srcN = 32;
    const Index dstN = static_cast<Index>(c.size()) * kMaxPerPair;
    const Schedule s = fuzzedSchedule(c.rank(), c.size(), 7, srcN);
    Executor<double> ex(c, s);
    std::vector<double> src(static_cast<size_t>(srcN));
    for (Index i = 0; i < srcN; ++i) {
      src[static_cast<size_t>(i)] = 100.0 * c.rank() + static_cast<double>(i);
    }
    std::vector<double> dst(static_cast<size_t>(dstN), -1.0);
    {
      auto dropped = ex.start(src);
      // destroyed unfinished at scope exit
    }
    std::vector<double> want(static_cast<size_t>(dstN), -1.0);
    Executor<double>(c, s).run(src, want);
    ex.run(src, dst);
    EXPECT_EQ(want, dst);
  });
}

TEST(SplitPhase, SteadyStateSymmetricExchangeStaysZeroCopy) {
  // The PR-3 buffer-recycling invariant survives split phase: received
  // payloads become the next start()'s send buffers, so a symmetric
  // steady-state exchange performs no transport payload copies and no heap
  // allocations.
  World::runSPMD(4, [](Comm& c) {
    parti::BlockDistArray<double> a(c, layout::Shape::of({8, 8}), /*ghost=*/1);
    a.fillByPoint([](const layout::Point& p) {
      return static_cast<double>(p[0] * 3 - p[1]);
    });
    parti::GhostExchanger<double> ex(a);
    {
      auto p = ex.startExchange();  // warmup allocates send buffers once
      p.finish(a.raw());
    }
    c.resetStats();
    const int kSteps = 5;
    for (int i = 0; i < kSteps; ++i) {
      auto p = ex.startExchange();
      while (!p.poll()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      p.finish(a.raw());
    }
    const auto& stats = c.stats();
    EXPECT_EQ(stats.bytesCopied, 0u);
    EXPECT_EQ(stats.allocations, 0u);
    EXPECT_EQ(stats.messagesSent, kSteps * ex.schedule().sends.size());
    EXPECT_EQ(stats.messagesReceived, kSteps * ex.schedule().recvs.size());
    // Everything was consumed by the non-blocking poll path.
    EXPECT_EQ(stats.messagesDrainedEarly, kSteps * ex.schedule().recvs.size());
  });
}

TEST(SplitPhase, SplitGhostFillMatchesBlockingExchange) {
  World::runSPMD(4, [](Comm& c) {
    parti::BlockDistArray<double> a(c, layout::Shape::of({9, 7}), /*ghost=*/1);
    parti::BlockDistArray<double> b(c, layout::Shape::of({9, 7}), /*ghost=*/1);
    auto fill = [](const layout::Point& p) {
      return 0.25 + static_cast<double>(p[0] * 11 + p[1]);
    };
    a.fillByPoint(fill);
    b.fillByPoint(fill);
    parti::GhostExchanger<double> exA(a);
    parti::GhostExchanger<double> exB(b);
    exA.exchange();
    auto pending = exB.startExchange();
    pending.finish(b.raw());
    ASSERT_EQ(a.raw().size(), b.raw().size());
    for (size_t i = 0; i < a.raw().size(); ++i) {
      EXPECT_EQ(a.raw()[i], b.raw()[i]) << "element " << i;
    }
  });
}

TEST(SplitPhase, TrafficStatsObserveWaitsAndEarlyDrains) {
  World::runSPMD(2, [](Comm& c) {
    Schedule s;
    s.bufferLocalCopies = false;
    OffsetPlan p{c.rank() == 0 ? 1 : 0, {}, {OffsetRun{0, 4, 1}}};
    if (c.rank() == 0) {
      s.recvs.push_back(std::move(p));
    } else {
      s.sends.push_back(std::move(p));
    }
    Executor<double> ex(c, s);
    std::vector<double> src(4, 2.5), dst(4, 0.0);
    c.resetStats();
    if (c.rank() == 1) {
      // Delay the send so the receiver's blocking drain measurably waits.
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ex.run(src, dst);
    if (c.rank() == 0) {
      EXPECT_GT(c.stats().recvWaitSeconds, 0.0);
      EXPECT_EQ(c.stats().messagesDrainedEarly, 0u);
    }
    // Second round: the receiver spins on poll(), so the message is
    // consumed by the non-blocking path and counted as drained early.
    c.resetStats();
    auto pending = ex.start(src);
    while (!pending.poll()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    pending.finish(dst);
    if (c.rank() == 0) {
      EXPECT_EQ(c.stats().messagesDrainedEarly, 1u);
      EXPECT_EQ(dst, std::vector<double>(4, 2.5));
    }
  });
}

TEST(SplitPhase, DataMoveBeginEndMatchesDataMove) {
  World::runSPMD(3, [](Comm& c) {
    const Index srcN = 32;
    const Index dstN = static_cast<Index>(c.size()) * kMaxPerPair;
    core::McSchedule ms;
    ms.plan = fuzzedSchedule(c.rank(), c.size(), 11, srcN);
    ms.numElements = dstN;
    std::vector<double> src(static_cast<size_t>(srcN));
    for (Index i = 0; i < srcN; ++i) {
      src[static_cast<size_t>(i)] = 7.0 * c.rank() + static_cast<double>(i);
    }
    std::vector<double> want(static_cast<size_t>(dstN), 0.0);
    std::vector<double> got(static_cast<size_t>(dstN), 0.0);
    core::dataMove<double>(c, ms, src, want);
    auto move = core::dataMoveBegin<double>(c, ms, src);
    EXPECT_FALSE(move.footprint().remote.empty() &&
                 move.footprint().localDst.empty());
    move.poll();
    core::dataMoveEnd<double>(move, got);
    EXPECT_EQ(want, got);
  });
}

TEST(Footprint, ClassifiesOffsetsExactly) {
  // Pure inspector-side computation: classify a schedule mixing singleton,
  // contiguous, strided and repeated (stride-0) runs, then compare
  // membership against brute-force enumeration.
  Schedule s;
  OffsetPlan r1;
  r1.peer = 0;
  r1.runs = {OffsetRun{10, 4, 1}, OffsetRun{100, 3, 7}};  // 10..13, 100,107,114
  OffsetPlan r2;
  r2.peer = 1;
  r2.runs = compressOffsets(std::vector<Index>{2, 40, 41, 3});
  s.recvs = {r1, r2};
  s.localRuns = {LocalRun{/*src=*/60, /*dst=*/70, /*count=*/5,
                          /*srcStride=*/2, /*dstStride=*/1},
                 LocalRun{/*src=*/0, /*dst=*/90, /*count=*/3,
                          /*srcStride=*/0, /*dstStride=*/-1}};
  const Footprint fp = Footprint::of(s);

  const std::vector<Index> remoteWant = {2, 3, 10, 11, 12, 13,
                                         40, 41, 100, 107, 114};
  EXPECT_EQ(fp.remote.count(), static_cast<Index>(remoteWant.size()));
  for (Index off : remoteWant) EXPECT_TRUE(fp.remote.contains(off)) << off;
  for (Index off : {0, 1, 4, 9, 14, 39, 42, 99, 101, 113, 115}) {
    EXPECT_FALSE(fp.remote.contains(static_cast<Index>(off))) << off;
  }

  const std::vector<Index> srcWant = {0, 60, 62, 64, 66, 68};
  EXPECT_EQ(fp.localSrc.count(), static_cast<Index>(srcWant.size()));
  for (Index off : srcWant) EXPECT_TRUE(fp.localSrc.contains(off)) << off;
  EXPECT_FALSE(fp.localSrc.contains(61));
  EXPECT_FALSE(fp.localSrc.contains(70));

  const std::vector<Index> dstWant = {70, 71, 72, 73, 74, 88, 89, 90};
  EXPECT_EQ(fp.localDst.count(), static_cast<Index>(dstWant.size()));
  for (Index off : dstWant) EXPECT_TRUE(fp.localDst.contains(off)) << off;

  EXPECT_EQ(fp.dstTouched.count(),
            fp.remote.count() + fp.localDst.count());  // disjoint here
  EXPECT_TRUE(fp.dstTouched.contains(12));
  EXPECT_TRUE(fp.dstTouched.contains(74));
  EXPECT_FALSE(fp.dstTouched.contains(75));

  // Interval queries used by the overlap pipelines.
  EXPECT_TRUE(fp.remote.overlaps(13, 20));
  EXPECT_FALSE(fp.remote.overlaps(14, 40));
  std::vector<Index> seen;
  fp.remote.forEachIn(11, 101, [&](Index off) { seen.push_back(off); });
  EXPECT_EQ(seen, (std::vector<Index>{11, 12, 13, 40, 41, 100}));
  // Ranges entirely past the set visit nothing (regression: the scan must
  // stop cleanly at the end of the interval list).
  seen.clear();
  fp.remote.forEachIn(101, 107, [&](Index off) { seen.push_back(off); });
  EXPECT_TRUE(seen.empty());
  fp.remote.forEachIn(115, 500, [&](Index off) { seen.push_back(off); });
  EXPECT_TRUE(seen.empty());
  fp.remote.forEachIn(200, 100, [&](Index off) { seen.push_back(off); });
  EXPECT_TRUE(seen.empty());
}

TEST(Footprint, StridedRunsAreNotOverApproximated) {
  // A halo-column run (stride == row stride) must classify exactly its
  // elements, never the covering interval — otherwise the whole local block
  // would count as touched and the overlap pipelines would defer everything.
  Schedule s;
  OffsetPlan col;
  col.peer = 0;
  col.runs = {OffsetRun{/*start=*/5, /*count=*/4, /*stride=*/10}};
  s.recvs = {col};
  const Footprint fp = Footprint::of(s);
  EXPECT_EQ(fp.remote.count(), 4);
  for (Index off : {5, 15, 25, 35}) {
    EXPECT_TRUE(fp.remote.contains(off)) << off;
  }
  for (Index off : {6, 10, 14, 16, 24, 34, 36}) {
    EXPECT_FALSE(fp.remote.contains(static_cast<Index>(off))) << off;
  }
  EXPECT_FALSE(fp.remote.overlaps(16, 25));
}

}  // namespace
}  // namespace mc::sched
