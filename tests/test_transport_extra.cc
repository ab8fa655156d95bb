// Additional transport coverage: virtual-time determinism, larger
// worlds, failure injection into schedule execution, and traffic accounting.
#include <gtest/gtest.h>

#include "sched/executor.h"
#include "transport/world.h"

namespace mc::transport {
namespace {

TEST(TransportExtra, ModeledClocksAreDeterministic) {
  // A workload whose time is entirely modeled (advance + messages, no
  // measured compute) must give bit-identical virtual clocks across runs.
  auto run = [] {
    std::vector<double> clocks(4, 0.0);
    WorldOptions o;
    o.net.contention = true;
    World::runSPMD(4, [&](Comm& c) {
      for (int round = 0; round < 5; ++round) {
        c.advance(1e-4 * (c.rank() + 1));
        const int next = (c.rank() + 1) % c.size();
        const int prev = (c.rank() + c.size() - 1) % c.size();
        std::vector<double> payload(static_cast<size_t>(64 * (round + 1)), 1.0);
        c.send(next, 1, payload);
        (void)c.recv<double>(prev, 1);
        c.barrier();
      }
      clocks[static_cast<size_t>(c.rank())] = c.now();
    }, o);
    return clocks;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  // Barrier synchronization: clocks agree up to the barrier's own
  // per-rank message overheads.
  for (size_t i = 1; i < a.size(); ++i) EXPECT_NEAR(a[i], a[0], 1e-3);
}

TEST(TransportExtra, ThirtyTwoProcessorRelay) {
  World::runSPMD(32, [](Comm& c) {
    // Binary-tree reduction by hand, then verify against allreduce.
    const double mine = static_cast<double>(c.rank() + 1);
    EXPECT_DOUBLE_EQ(c.allreduceSum(mine), 32.0 * 33.0 / 2.0);
    const auto rows = c.allgatherValue(c.rank());
    for (int r = 0; r < 32; ++r) EXPECT_EQ(rows[static_cast<size_t>(r)], r);
  });
}

TEST(TransportExtra, LargePayloadRoundTrip) {
  World::runSPMD(2, [](Comm& c) {
    const size_t n = 1 << 20;  // 8 MiB of doubles
    if (c.rank() == 0) {
      std::vector<double> big(n);
      for (size_t i = 0; i < n; ++i) big[i] = static_cast<double>(i % 977);
      c.send(1, 1, big);
    } else {
      const auto big = c.recv<double>(0, 1);
      ASSERT_EQ(big.size(), n);
      EXPECT_DOUBLE_EQ(big[12345], static_cast<double>(12345 % 977));
      EXPECT_DOUBLE_EQ(big[n - 1], static_cast<double>((n - 1) % 977));
    }
  });
}

TEST(TransportExtra, ScheduleExecutorRejectsMismatchedPlans) {
  // Failure injection: a corrupted schedule (receiver expects more elements
  // than the sender ships) must fail loudly, not hang or corrupt memory.
  WorldOptions o;
  o.recvTimeoutSeconds = 5.0;
  EXPECT_THROW(
      World::runSPMD(2,
                     [](Comm& c) {
                       sched::Schedule s;
                       if (c.rank() == 0) {
                         s.sends.push_back(sched::OffsetPlan{1, {0, 1}, {}});
                       } else {
                         s.recvs.push_back(sched::OffsetPlan{0, {0, 1, 2}, {}});
                       }
                       std::vector<double> buf(8, 0.0);
                       sched::execute<double>(c, s, buf, buf, 42);
                     },
                     o),
      Error);
}

TEST(TransportExtra, ExecuteAddAccumulates) {
  World::runSPMD(2, [](Comm& c) {
    sched::Schedule s;
    if (c.rank() == 0) {
      s.sends.push_back(sched::OffsetPlan{1, {0, 2}, {}});
      s.localPairs.emplace_back(1, 3);
    } else {
      // Both elements add to slot 1.
      s.recvs.push_back(sched::OffsetPlan{0, {1, 1}, {}});
    }
    std::vector<double> src{10, 20, 30, 40};
    std::vector<double> dst{1, 1, 1, 1};
    sched::executeAdd<double>(c, s, src, dst, c.nextUserTag());
    if (c.rank() == 0) {
      EXPECT_DOUBLE_EQ(dst[3], 1 + 20);  // local pair accumulated
    } else {
      EXPECT_DOUBLE_EQ(dst[1], 1 + 10 + 30);  // both remote adds landed
    }
  });
}

TEST(TransportExtra, ReverseTwiceIsIdentity) {
  sched::Schedule s;
  s.sends.push_back(sched::OffsetPlan{2, {5, 6, 7}, {}});
  s.recvs.push_back(sched::OffsetPlan{1, {9}, {}});
  s.localPairs.emplace_back(3, 4);
  const sched::Schedule rr = sched::reverse(sched::reverse(s));
  ASSERT_EQ(rr.sends.size(), 1u);
  EXPECT_EQ(rr.sends[0].peer, 2);
  EXPECT_EQ(rr.sends[0].offsets, (std::vector<layout::Index>{5, 6, 7}));
  ASSERT_EQ(rr.recvs.size(), 1u);
  EXPECT_EQ(rr.recvs[0].offsets, (std::vector<layout::Index>{9}));
  EXPECT_EQ(rr.localPairs, s.localPairs);
}

TEST(TransportExtra, TrafficBytesAccounting) {
  World::runSPMD(2, [](Comm& c) {
    c.resetStats();
    if (c.rank() == 0) {
      c.send(1, 1, std::vector<double>(100));
      c.send(1, 2, std::vector<std::int32_t>(7));
      EXPECT_EQ(c.stats().bytesSent, 100 * 8 + 7 * 4);
      EXPECT_EQ(c.stats().messagesSent, 2u);
      EXPECT_EQ(c.stats().bytesReceived, 0u);
    } else {
      c.recv<double>(0, 1);
      c.recv<std::int32_t>(0, 2);
      EXPECT_EQ(c.stats().bytesReceived, 100 * 8 + 7 * 4);
    }
  });
}

TEST(TransportExtra, InterTagRejectsBadProgram) {
  World::run({ProgramSpec{"solo", 1, [](Comm& c) {
    EXPECT_THROW(c.nextInterTag(0), Error);   // own program
    EXPECT_THROW(c.nextInterTag(5), Error);   // nonexistent
  }}});
}

TEST(TransportExtra, SendOverheadAdvancesSenderClock) {
  WorldOptions o;
  o.net.interNode = NetParams{0.0, 1e12, 7e-3, 0.0};
  World::runSPMD(2, [](Comm& c) {
    if (c.rank() == 0) {
      const double before = c.now();
      c.sendValue(1, 1, 0);
      EXPECT_NEAR(c.now() - before, 7e-3, 1e-12);
    } else {
      c.recvValue<int>(0, 1);
    }
  }, o);
}

}  // namespace
}  // namespace mc::transport
