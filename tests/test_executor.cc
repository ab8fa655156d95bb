// sched::Executor: arrival-order drain correctness and determinism, the
// zero-copy / zero-allocation steady state, aliased ghost fills, the
// DrainOrder::kPeer debug mode, and the inter-program halves.  The old
// peer-ordered copy-per-step executors live on as sched::reference and
// serve as the oracle throughout.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "chaos/localize.h"
#include "chaos/partition.h"
#include "oracle/reference_executor.h"
#include "parti/ghost.h"
#include "sched/executor.h"
#include "transport/world.h"

namespace mc::sched {
namespace {

using layout::Index;
using transport::Comm;
using transport::World;

constexpr int kPerPeer = 8;

/// Star pattern: every rank > 0 sends kPerPeer elements to rank 0.
/// `overlap` controls rank 0's unpack targets: disjoint per-peer ranges
/// (copy semantics) or the same range for every peer (add semantics).
Schedule starSchedule(int me, int nprocs, bool overlap) {
  Schedule s;
  s.bufferLocalCopies = false;
  if (me == 0) {
    for (int r = 1; r < nprocs; ++r) {
      OffsetPlan p;
      p.peer = r;
      const Index base = overlap ? 0 : static_cast<Index>((r - 1) * kPerPeer);
      for (int i = 0; i < kPerPeer; ++i) {
        p.offsets.push_back(base + static_cast<Index>(i));
      }
      s.recvs.push_back(std::move(p));
    }
  } else {
    OffsetPlan p;
    p.peer = 0;
    for (int i = 0; i < kPerPeer; ++i) {
      p.offsets.push_back(static_cast<Index>(i));
    }
    s.sends.push_back(std::move(p));
  }
  return s;
}

/// Rotates real delivery order across iterations: peer r stalls by a
/// per-iteration amount before entering the collective run, so rank 0's
/// mailbox sees the messages in a different wall-clock order each time.
void staggeredSleep(int rank, int iteration) {
  if (rank == 0) return;
  const int ms = ((rank - 1 + iteration) % 3) * 4;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(Executor, ArrivalOrderCopyIsExactUnderShuffledDelivery) {
  World::runSPMD(4, [](Comm& c) {
    const Schedule s = starSchedule(c.rank(), c.size(), /*overlap=*/false);
    Executor<double> ex(c, s);
    std::vector<double> src(kPerPeer), dst(3 * kPerPeer);
    for (int i = 0; i < kPerPeer; ++i) {
      src[static_cast<size_t>(i)] = 100.0 * c.rank() + i;
    }
    for (int it = 0; it < 6; ++it) {
      std::fill(dst.begin(), dst.end(), -1.0);
      staggeredSleep(c.rank(), it);
      ex.run(src, dst);
      if (c.rank() == 0) {
        for (int r = 1; r < c.size(); ++r) {
          for (int i = 0; i < kPerPeer; ++i) {
            EXPECT_EQ(dst[static_cast<size_t>((r - 1) * kPerPeer + i)],
                      100.0 * r + i)
                << "iteration " << it;
          }
        }
      }
    }
    // Message counts: the one-message-per-pair invariant per run.
    c.resetStats();
    ex.run(src, dst);
    EXPECT_EQ(c.stats().messagesSent, s.sends.size());
    EXPECT_EQ(c.stats().messagesReceived, s.recvs.size());
  });
}

TEST(Executor, AddAppliesInPeerOrderRegardlessOfArrival) {
  World::runSPMD(4, [](Comm& c) {
    const Schedule s = starSchedule(c.rank(), c.size(), /*overlap=*/true);
    Executor<double> ex(c, s);
    // Values chosen so floating-point accumulation order is visible:
    // ((0 + 1e16) + 1) + -1e16 == 0, but (0 + 1e16) + -1e16 + 1 == 1.
    const double contributions[] = {1e16, 1.0, -1e16};
    std::vector<double> src(kPerPeer), dst(kPerPeer);
    if (c.rank() > 0) {
      std::fill(src.begin(), src.end(),
                contributions[static_cast<size_t>(c.rank() - 1)]);
    }
    double expected = 0.0;
    for (double v : contributions) expected += v;  // peer order
    for (int it = 0; it < 6; ++it) {
      std::fill(dst.begin(), dst.end(), 0.0);
      staggeredSleep(c.rank(), it);
      ex.runAdd(src, dst);
      if (c.rank() == 0) {
        for (int i = 0; i < kPerPeer; ++i) {
          EXPECT_EQ(dst[static_cast<size_t>(i)], expected)
              << "iteration " << it;
        }
      }
    }
  });
}

TEST(Executor, PeerDrainModeProducesSameResults) {
  transport::WorldOptions peerOrder;
  peerOrder.net.drainOrder = DrainOrder::kPeer;
  World::runSPMD(4, [](Comm& c) {
    const Schedule copyS = starSchedule(c.rank(), c.size(), /*overlap=*/false);
    const Schedule addS = starSchedule(c.rank(), c.size(), /*overlap=*/true);
    Executor<double> copyEx(c, copyS);
    Executor<double> addEx(c, addS);
    std::vector<double> src(kPerPeer, 1e16), dst(3 * kPerPeer, 0.0);
    if (c.rank() == 2) std::fill(src.begin(), src.end(), 1.0);
    if (c.rank() == 3) std::fill(src.begin(), src.end(), -1e16);
    c.resetStats();
    copyEx.run(src, dst);
    EXPECT_EQ(c.stats().messagesSent, copyS.sends.size());
    EXPECT_EQ(c.stats().messagesReceived, copyS.recvs.size());
    if (c.rank() == 0) {
      EXPECT_EQ(dst[0], 1e16);
      EXPECT_EQ(dst[kPerPeer], 1.0);
      EXPECT_EQ(dst[2 * kPerPeer], -1e16);
    }
    std::fill(dst.begin(), dst.end(), 0.0);
    addEx.runAdd(src, dst);
    if (c.rank() == 0) {
      EXPECT_EQ(dst[0], (1e16 + 1.0) + -1e16);  // peer-order accumulation
    }
  }, peerOrder);
}

TEST(Executor, AliasedGhostFillMatchesReferenceExecutor) {
  World::runSPMD(4, [](Comm& c) {
    parti::BlockDistArray<double> a(c, layout::Shape::of({8, 8}), /*ghost=*/1);
    parti::BlockDistArray<double> b(c, layout::Shape::of({8, 8}), /*ghost=*/1);
    auto fill = [](const layout::Point& p) {
      return static_cast<double>(p[0] * 17 + p[1]);
    };
    a.fillByPoint(fill);
    b.fillByPoint(fill);
    const Schedule s = parti::buildGhostSchedule(a);

    // Reference: peer-ordered, copy-per-step, src/dst aliased.
    reference::execute<double>(c, s, b.raw(), b.raw(), c.nextUserTag());
    // Executor: arrival-ordered, zero-copy, src/dst aliased.
    Executor<double> ex(c, s);
    ex.run(a.raw(), a.raw());

    ASSERT_EQ(a.raw().size(), b.raw().size());
    for (size_t i = 0; i < a.raw().size(); ++i) {
      EXPECT_EQ(a.raw()[i], b.raw()[i]) << "element " << i;
    }
  });
}

TEST(Executor, SteadyStateHasZeroCopiesAndZeroAllocations) {
  World::runSPMD(4, [](Comm& c) {
    parti::BlockDistArray<double> a(c, layout::Shape::of({8, 8}), /*ghost=*/1);
    a.fillByPoint([](const layout::Point& p) {
      return static_cast<double>(p[0] - p[1]);
    });
    // The exchanger builds its ghost schedule from the replicated
    // descriptor alone — no messages — and keeps it run-compressed.
    c.barrier();
    c.resetStats();
    parti::GhostExchanger<double> ex(a);
    EXPECT_EQ(c.stats().messagesSent, 0u);
    EXPECT_EQ(c.stats().bytesSent, 0u);
    EXPECT_TRUE(ex.schedule().compressed());
    ex.exchange();  // warmup: allocates the send buffers once

    c.resetStats();
    const int kSteps = 5;
    for (int i = 0; i < kSteps; ++i) ex.exchange();
    const auto& s = c.stats();
    // Ghost exchanges are symmetric (send volume to q == recv volume from
    // q), so from the second run on every send reuses a buffer recycled
    // from the previous run's receives: no transport payload copies, no
    // heap allocations, exactly one message per peer per step.
    EXPECT_EQ(s.bytesCopied, 0u);
    EXPECT_EQ(s.allocations, 0u);
    EXPECT_EQ(s.messagesSent, kSteps * ex.schedule().sends.size());
    EXPECT_EQ(s.messagesReceived, kSteps * ex.schedule().recvs.size());
  });
}

TEST(Executor, IrregularGatherScatterAddMatchesReference) {
  World::runSPMD(3, [](Comm& c) {
    const Index n = 60;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 5);
    auto table = std::make_shared<const chaos::TranslationTable>(
        chaos::TranslationTable::build(
            c, mine, n, chaos::TranslationTable::Storage::kDistributed));
    // Every rank references a shuffled window of global ids.
    std::vector<Index> refs;
    for (Index g = 0; g < n; g += 2) {
      refs.push_back((g * 7 + c.rank() * 13) % n);
    }
    const chaos::Localized loc = chaos::localize(c, *table, refs);

    std::vector<double> owned(mine.size());
    for (size_t i = 0; i < mine.size(); ++i) {
      owned[i] = static_cast<double>(mine[i]) + 0.25;
    }
    const size_t ghostN = static_cast<size_t>(loc.ghostCount);

    // Gather: executor vs reference, bitwise.
    std::vector<double> ghostRef(ghostN, -1.0), ghostNew(ghostN, -2.0);
    reference::execute<double>(c, loc.gatherSched, owned, ghostRef,
                               c.nextUserTag());
    Executor<double> gatherEx(c, loc.gatherSched);
    gatherEx.run(owned, ghostNew);
    EXPECT_EQ(ghostRef, ghostNew);

    // Scatter-add: executor vs reference, bitwise.
    std::vector<double> contrib(ghostN);
    for (size_t i = 0; i < ghostN; ++i) {
      contrib[i] = 0.5 + static_cast<double>(i);
    }
    std::vector<double> ownedRef = owned, ownedNew = owned;
    reference::executeAdd<double>(c, loc.scatterAddSched, contrib, ownedRef,
                                  c.nextUserTag());
    Executor<double> scatterEx(c, loc.scatterAddSched);
    scatterEx.runAdd(contrib, ownedNew);
    EXPECT_EQ(ownedRef, ownedNew);
  });
}

TEST(Executor, InterProgramHalvesMoveDataAndStayPaired) {
  // Program a (2 ranks) scatters to program b (3 ranks): a0 -> {b0, b1},
  // a1 -> {b2}.  Run twice so the paired inter-program tag counters are
  // exercised past their first value.
  const int kN = 4;
  auto senderSched = [&](int rank) {
    Schedule s;
    s.bufferLocalCopies = false;
    const std::vector<int> peers =
        rank == 0 ? std::vector<int>{0, 1} : std::vector<int>{2};
    for (size_t k = 0; k < peers.size(); ++k) {
      OffsetPlan p;
      p.peer = peers[k];
      for (int i = 0; i < kN; ++i) {
        p.offsets.push_back(static_cast<Index>(k * kN + i));
      }
      s.sends.push_back(std::move(p));
    }
    return s;
  };
  auto receiverSched = [&](int rank) {
    Schedule s;
    s.bufferLocalCopies = false;
    OffsetPlan p;
    p.peer = rank < 2 ? 0 : 1;  // which a-rank feeds this b-rank
    for (int i = 0; i < kN; ++i) p.offsets.push_back(static_cast<Index>(i));
    s.recvs.push_back(std::move(p));
    return s;
  };
  World::run({
      transport::ProgramSpec{
          "a", 2,
          [&](Comm& c) {
            const Schedule s = senderSched(c.rank());
            Executor<double> ex = Executor<double>::sender(c, s, /*prog=*/1);
            std::vector<double> src(2 * kN);
            for (int round = 0; round < 2; ++round) {
              for (size_t i = 0; i < src.size(); ++i) {
                src[i] = 1000.0 * round + 10.0 * c.rank() + i;
              }
              ex.runSend(src);
            }
          }},
      transport::ProgramSpec{
          "b", 3,
          [&](Comm& c) {
            const Schedule s = receiverSched(c.rank());
            Executor<double> ex = Executor<double>::receiver(c, s, /*prog=*/0);
            std::vector<double> dst(kN);
            for (int round = 0; round < 2; ++round) {
              std::fill(dst.begin(), dst.end(), -1.0);
              ex.runRecv(dst);
              const int aRank = c.rank() < 2 ? 0 : 1;
              const int lane = c.rank() < 2 ? c.rank() : 0;
              for (int i = 0; i < kN; ++i) {
                EXPECT_EQ(dst[static_cast<size_t>(i)],
                          1000.0 * round + 10.0 * aRank + lane * kN + i)
                    << "round " << round;
              }
            }
          }},
  });
}

}  // namespace
}  // namespace mc::sched
