// sched::Executor: arrival-order drain correctness and determinism, the
// zero-copy / zero-allocation steady state, aliased ghost fills, the
// inter-program halves, the span checks of every run entry point, and the
// executor an McSchedule keeps across dataMove* calls.  The old peer-ordered copy-per-step executors live on as
// sched::reference and serve as the oracle throughout.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "chaos/localize.h"
#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/data_move.h"
#include "obs/metrics.h"
#include "oracle/reference_executor.h"
#include "oracle/run_reference.h"
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
      const Index base = overlap ? 0 : static_cast<Index>((r - 1) * kPerPeer);
      s.recvs.push_back(OffsetPlan{r, {}, {OffsetRun{base, kPerPeer, 1}}});
    }
  } else {
    s.sends.push_back(OffsetPlan{0, {}, {OffsetRun{0, kPerPeer, 1}}});
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
    // descriptor alone — no messages.
    c.barrier();
    c.resetStats();
    parti::GhostExchanger<double> ex(a);
    EXPECT_EQ(c.stats().messagesSent, 0u);
    EXPECT_EQ(c.stats().bytesSent, 0u);
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
      s.sends.push_back(OffsetPlan{
          peers[k], {}, {OffsetRun{static_cast<Index>(k * kN), kN, 1}}});
    }
    return s;
  };
  auto receiverSched = [&](int rank) {
    Schedule s;
    s.bufferLocalCopies = false;
    // Which a-rank feeds this b-rank.
    s.recvs.push_back(OffsetPlan{rank < 2 ? 0 : 1, {}, {OffsetRun{0, kN, 1}}});
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

// --- span checks ------------------------------------------------------------

TEST(Executor, BindRejectsOffsetListsBeforeSendingAnything) {
  // Runs are the one plan form.  A plan whose offsets member is set, or a
  // schedule whose localPairs member is set, is refused at construction
  // and at rebind — before a node-aggregated bind's intra-node exchange
  // or any run could send a message.
  for (const bool aggregated : {false, true}) {
    transport::WorldOptions options;
    options.net.nodesPerProgram = {2};
    options.net.nodeAggregation = aggregated;
    World::runSPMD(
        4,
        [](Comm& c) {
          const int peer = (c.rank() + 1) % c.size();
          const int from = (c.rank() + c.size() - 1) % c.size();
          Schedule good;
          good.sends.push_back(OffsetPlan{peer, {}, {OffsetRun{0, 2, 1}}});
          good.recvs.push_back(OffsetPlan{from, {}, {OffsetRun{2, 2, 1}}});
          Schedule sendOffsets = good;
          sendOffsets.sends[0].offsets = {0, 1};
          Schedule recvOffsets = good;
          recvOffsets.recvs[0].offsets = {2, 3};
          Schedule pairs = good;
          pairs.localPairs.emplace_back(0, 2);
          c.barrier();
          c.resetStats();
          for (const Schedule* bad : {&sendOffsets, &recvOffsets, &pairs}) {
            EXPECT_THROW({ Executor<double> ex(c, *bad); }, Error);
          }
          EXPECT_EQ(c.stats().messagesSent, 0u);
          // A bound executor refuses the same schedules at rebind and
          // still runs its own.
          Executor<double> ex(c, good);
          for (const Schedule* bad : {&sendOffsets, &recvOffsets, &pairs}) {
            EXPECT_THROW(ex.rebind(*bad), Error);
          }
          std::vector<double> buf{1.0, 2.0, 0.0, 0.0};
          ex.run(buf, buf);
          EXPECT_EQ(buf[2], 1.0);
          EXPECT_EQ(buf[3], 2.0);
        },
        options);
  }
}

TEST(Executor, EveryRunEntryPointRejectsShortSpans) {
  // Rank 0 receives kPerPeer elements from each other rank into a
  // 3 * kPerPeer destination; one element short must throw before any
  // write, on every entry point that takes the destination.
  const auto shortDst = [](Comm& c) {
    return std::vector<double>(c.rank() == 0 ? 3 * kPerPeer - 1 : 0);
  };
  EXPECT_THROW(World::runSPMD(4,
                              [&](Comm& c) {
                                const Schedule s = starSchedule(
                                    c.rank(), c.size(), /*overlap=*/false);
                                Executor<double> ex(c, s);
                                std::vector<double> src(kPerPeer, 1.0);
                                std::vector<double> dst = shortDst(c);
                                ex.run(src, dst);
                              }),
               Error);
  EXPECT_THROW(World::runSPMD(4,
                              [&](Comm& c) {
                                const Schedule s = starSchedule(
                                    c.rank(), c.size(), /*overlap=*/false);
                                Executor<double> ex(c, s);
                                std::vector<double> src(kPerPeer, 1.0);
                                std::vector<double> dst = shortDst(c);
                                ex.runAdd(src, dst);
                              }),
               Error);
  EXPECT_THROW(World::runSPMD(4,
                              [&](Comm& c) {
                                const Schedule s = starSchedule(
                                    c.rank(), c.size(), /*overlap=*/false);
                                Executor<double> ex(c, s);
                                std::vector<double> src(kPerPeer, 1.0);
                                std::vector<double> dst = shortDst(c);
                                auto pending = ex.start(src);
                                pending.finish(dst);
                              }),
               Error);
  // A short source throws before the senders post anything.
  EXPECT_THROW(World::runSPMD(4,
                              [&](Comm& c) {
                                const Schedule s = starSchedule(
                                    c.rank(), c.size(), /*overlap=*/false);
                                Executor<double> ex(c, s);
                                std::vector<double> src(kPerPeer - 1, 1.0);
                                std::vector<double> dst(3 * kPerPeer);
                                ex.run(src, dst);
                              }),
               Error);
  // The inter-program halves: a1 sends 4 elements to b0, whose receive
  // plan reaches offset 3.
  const auto halves = [](Index srcLen, Index dstLen) {
    Schedule send;
    send.sends.push_back(OffsetPlan{0, {}, {OffsetRun{0, 4, 1}}});
    Schedule recv;
    recv.recvs.push_back(OffsetPlan{0, {}, {OffsetRun{0, 4, 1}}});
    World::run({
        transport::ProgramSpec{
            "a", 1,
            [&](Comm& c) {
              std::vector<double> src(static_cast<size_t>(srcLen), 1.0);
              Executor<double>::sender(c, send, /*prog=*/1).runSend(src);
            }},
        transport::ProgramSpec{
            "b", 1,
            [&](Comm& c) {
              std::vector<double> dst(static_cast<size_t>(dstLen));
              Executor<double>::receiver(c, recv, /*prog=*/0).runRecv(dst);
            }},
    });
  };
  EXPECT_NO_THROW(halves(4, 4));
  EXPECT_THROW(halves(3, 4), Error);
  EXPECT_THROW(halves(4, 3), Error);
}

// --- the executor an McSchedule keeps --------------------------------------

/// The sum of every registry counter whose name starts with `prefix`.
double sumOf(const obs::Snapshot& d, const std::string& prefix) {
  double sum = 0.0;
  for (const auto& [name, v] : d.values) {
    if (name.rfind(prefix, 0) == 0) sum += v;
  }
  return sum;
}

/// Kernels this rank compiled while `fn` ran.
template <typename F>
double dispatchesDuring(F&& fn) {
  const obs::Snapshot before = obs::threadRegistry().snapshot();
  fn();
  return sumOf(obs::threadRegistry().snapshot() - before, "kernel.dispatch.");
}

/// The reg->irreg coupling of the paper's Figure 1 on a 16x16 grid: a
/// Multiblock Parti array copied onto a Chaos array under a permuted
/// numbering, run-compressed as the schedule cache stores it.  Every
/// element of the Chaos array is written.
struct MeshPair {
  std::unique_ptr<parti::BlockDistArray<double>> a;
  std::unique_ptr<chaos::IrregArray<double>> x;
  core::McSchedule fwd;  // a -> x
};

MeshPair meshPair(Comm& c) {
  constexpr Index kSide = 16, kN = kSide * kSide;
  MeshPair m;
  m.a = std::make_unique<parti::BlockDistArray<double>>(
      c, layout::Shape::of({kSide, kSide}), /*ghost=*/1);
  const auto mine = chaos::randomPartition(kN, c.size(), c.rank(), 7);
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(
          c, mine, kN, chaos::TranslationTable::Storage::kDistributed));
  m.x = std::make_unique<chaos::IrregArray<double>>(c, table, mine);
  core::SetOfRegions regSet;
  regSet.add(core::Region::section(
      layout::RegularSection::box({0, 0}, {kSide - 1, kSide - 1})));
  std::vector<Index> ids(static_cast<size_t>(kN));
  for (Index k = 0; k < kN; ++k) ids[static_cast<size_t>(k)] = (k * 37) % kN;
  core::SetOfRegions irregSet;
  irregSet.add(core::Region::indices(ids));
  m.fwd = core::computeSchedule(c, core::PartiAdapter::describe(*m.a), regSet,
                                core::ChaosAdapter::describe(*m.x), irregSet);
  return m;
}

template <typename T>
std::vector<T> sourceValues(std::size_t n, int rank, int call) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<T>(1000 * call + 100 * rank) + static_cast<T>(i) +
           static_cast<T>(0.25);
  }
  return v;
}

/// One dataMove of `s` from fresh source values, checked bitwise against
/// the reference executor; returns the kernel dispatches it made.
template <typename T>
double checkedMove(Comm& c, const core::McSchedule& s, std::size_t srcN,
                   std::size_t dstN, int call) {
  const std::vector<T> src = sourceValues<T>(srcN, c.rank(), call);
  std::vector<T> want(dstN, T(-1)), got(dstN, T(-1));
  reference::execute<T>(c, s.plan, src, want, c.nextUserTag());
  const double dispatches =
      dispatchesDuring([&] { core::dataMove<T>(c, s, src, got); });
  EXPECT_EQ(got, want) << "call " << call;
  return dispatches;
}

TEST(BoundExecutor, DataMoveCompilesKernelsOnEachSchedulesFirstCallOnly) {
  World::runSPMD(4, [](Comm& c) {
    ensureKernelMetrics();
    MeshPair m = meshPair(c);
    const core::McSchedule rev = core::reverseSchedule(m.fwd);
    const std::size_t aN = m.a->raw().size(), xN = m.x->raw().size();
    double firstExec[2] = {0.0, 0.0};
    transport::TrafficStats firstTraffic[2];
    for (int call = 0; call < 10; ++call) {
      for (int dir = 0; dir < 2; ++dir) {
        const core::McSchedule& s = dir == 0 ? m.fwd : rev;
        const std::vector<double> src =
            sourceValues<double>(dir == 0 ? aN : xN, c.rank(), call);
        const std::size_t dstN = dir == 0 ? xN : aN;
        std::vector<double> want(dstN, -1.0), got(dstN, -1.0);
        reference::execute<double>(c, s.plan, src, want, c.nextUserTag());
        const obs::Snapshot before = obs::threadRegistry().snapshot();
        const transport::TrafficStats t0 = c.stats();
        core::dataMove<double>(c, s, src, got);
        const transport::TrafficStats t = c.stats() - t0;
        const obs::Snapshot d = obs::threadRegistry().snapshot() - before;

        EXPECT_EQ(got, want) << "call " << call << " dir " << dir;
        const double dispatch = sumOf(d, "kernel.dispatch.");
        const double exec = sumOf(d, "kernel.exec.");
        EXPECT_GT(exec, 0.0);
        if (call == 0) {
          EXPECT_GT(dispatch, 0.0) << "dir " << dir;
          firstExec[dir] = exec;
          firstTraffic[dir] = t;
          EXPECT_EQ(t.messagesSent, s.plan.sends.size());
          EXPECT_EQ(t.bytesSent, static_cast<std::uint64_t>(
                                     s.plan.totalSendElements()) *
                                     sizeof(double));
        } else {
          EXPECT_EQ(dispatch, 0.0) << "call " << call << " dir " << dir;
          EXPECT_EQ(exec, firstExec[dir]) << "call " << call;
          EXPECT_EQ(t.messagesSent, firstTraffic[dir].messagesSent);
          EXPECT_EQ(t.bytesSent, firstTraffic[dir].bytesSent);
          EXPECT_EQ(t.messagesReceived, firstTraffic[dir].messagesReceived);
          EXPECT_EQ(t.bytesReceived, firstTraffic[dir].bytesReceived);
        }
      }
    }
  });
}

TEST(BoundExecutor, SymmetricScheduleStopsAllocating) {
  World::runSPMD(4, [](Comm& c) {
    parti::BlockDistArray<double> a(c, layout::Shape::of({8, 8}), /*ghost=*/1);
    a.fillByPoint([](const layout::Point& p) {
      return static_cast<double>(p[0] * 8 + p[1]);
    });
    // A ghost fill sends each peer as many elements as it receives from
    // it, so every received payload is one of the next call's send buffers.
    core::McSchedule ghosts;
    ghosts.plan = parti::buildGhostSchedule(a);
    ASSERT_FALSE(ghosts.plan.sends.empty());
    for (int call = 0; call < 10; ++call) {
      const transport::TrafficStats t0 = c.stats();
      core::dataMove<double>(c, ghosts, a.raw(), a.raw());
      const transport::TrafficStats t = c.stats() - t0;
      if (call >= 2) {
        EXPECT_EQ(t.allocations, 0u) << "call " << call;
        EXPECT_EQ(t.bytesCopied, 0u) << "call " << call;
      }
    }
  });
}

TEST(BoundExecutor, CopiesAndMovesBindAfreshAndElementTypesRebind) {
  World::runSPMD(4, [](Comm& c) {
    ensureKernelMetrics();
    MeshPair m = meshPair(c);
    const std::size_t aN = m.a->raw().size(), xN = m.x->raw().size();
    const auto fwdMove = [&](const core::McSchedule& s, int call) {
      return checkedMove<double>(c, s, aN, xN, call);
    };
    EXPECT_GT(fwdMove(m.fwd, 0), 0.0);
    EXPECT_EQ(fwdMove(m.fwd, 1), 0.0);

    core::McSchedule copied = m.fwd;
    EXPECT_GT(fwdMove(copied, 2), 0.0);
    EXPECT_EQ(fwdMove(copied, 3), 0.0);
    EXPECT_EQ(fwdMove(m.fwd, 4), 0.0);  // the original keeps its own

    core::McSchedule moved = std::move(copied);
    EXPECT_GT(fwdMove(moved, 5), 0.0);
    EXPECT_EQ(fwdMove(moved, 6), 0.0);

    // Bound to the reverse plan, then assigned the forward one: the
    // reverse executor must not run the forward plan.
    core::McSchedule assigned = core::reverseSchedule(m.fwd);
    EXPECT_GT(checkedMove<double>(c, assigned, xN, aN, 7), 0.0);
    assigned = m.fwd;
    EXPECT_GT(fwdMove(assigned, 8), 0.0);
    EXPECT_EQ(fwdMove(assigned, 9), 0.0);

    // Another element type rebinds, and so does the way back.
    EXPECT_GT(checkedMove<float>(c, m.fwd, aN, xN, 10), 0.0);
    EXPECT_EQ(checkedMove<float>(c, m.fwd, aN, xN, 11), 0.0);
    EXPECT_GT(fwdMove(m.fwd, 12), 0.0);
  });
}

TEST(BoundExecutor, ShortDestinationSpanThrowsInsteadOfWritingPastIt) {
  EXPECT_THROW(World::runSPMD(4,
                              [](Comm& c) {
                                MeshPair m = meshPair(c);
                                const std::span<double> x = m.x->raw();
                                ASSERT_FALSE(x.empty());
                                core::dataMove<double>(
                                    c, m.fwd, m.a->raw(),
                                    x.first(x.size() - 1));
                              }),
               Error);
}

TEST(BoundExecutor, InterProgramHalvesCompileKernelsOncePerSide) {
  constexpr Index kRows = 8, kCols = 8, kN = kRows * kCols;
  constexpr int kCalls = 5;
  World::run({
      transport::ProgramSpec{
          "regular", 3,
          [](Comm& c) {
            ensureKernelMetrics();
            parti::BlockDistArray<double> a(
                c, layout::Shape::of({kRows, kCols}), /*ghost=*/1);
            core::SetOfRegions set;
            set.add(core::Region::section(
                layout::RegularSection::box({0, 0}, {kRows - 1, kCols - 1})));
            const core::McSchedule send = core::computeScheduleSend(
                c, core::PartiAdapter::describe(a), set, /*remoteProgram=*/1);
            for (int call = 0; call < kCalls; ++call) {
              a.fillByPoint([&](const layout::Point& p) {
                return static_cast<double>(1000 * call + p[0] * kCols + p[1]);
              });
              const double dispatch = dispatchesDuring(
                  [&] { core::dataMoveSend<double>(c, send, a.raw()); });
              if (call == 0) {
                EXPECT_EQ(dispatch > 0.0, !send.plan.sends.empty());
              } else {
                EXPECT_EQ(dispatch, 0.0) << "call " << call;
              }
            }
          }},
      transport::ProgramSpec{
          "irregular", 2,
          [](Comm& c) {
            ensureKernelMetrics();
            const auto mine = chaos::randomPartition(kN, c.size(), c.rank(), 5);
            auto table = std::make_shared<const chaos::TranslationTable>(
                chaos::TranslationTable::build(
                    c, mine, kN,
                    chaos::TranslationTable::Storage::kDistributed));
            chaos::IrregArray<double> x(c, table, mine);
            core::SetOfRegions set;
            std::vector<Index> ids(static_cast<size_t>(kN));
            for (Index k = 0; k < kN; ++k) ids[static_cast<size_t>(k)] = k;
            set.add(core::Region::indices(ids));
            const core::McSchedule recv = core::computeScheduleRecv(
                c, core::ChaosAdapter::describe(x), set, /*remoteProgram=*/0);
            const std::span<const Index> globals = x.myGlobals();
            for (int call = 0; call < kCalls; ++call) {
              const double dispatch = dispatchesDuring(
                  [&] { core::dataMoveRecv<double>(c, recv, x.raw()); });
              if (call == 0) {
                EXPECT_EQ(dispatch > 0.0, !recv.plan.recvs.empty());
              } else {
                EXPECT_EQ(dispatch, 0.0) << "call " << call;
              }
              for (std::size_t i = 0; i < globals.size(); ++i) {
                EXPECT_EQ(x.raw()[i],
                          static_cast<double>(1000 * call + globals[i]))
                    << "call " << call;
              }
            }
          }},
  });
}

}  // namespace
}  // namespace mc::sched
