// Topology layer: Comm placement accessors, hierarchical (two-level)
// collectives vs the flat algorithms (bitwise differential, including
// inter-program worlds), node-aggregated schedule execution vs flat
// execution (fuzzed run()/runAdd() in both drain orders, split-phase), the
// per-link-class message invariants (<= nodes-1 inter-node messages per
// rank per schedule step), and the alltoall pairwise rotation.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "sched/executor.h"
#include "transport/world.h"

namespace mc {
namespace {

using layout::Index;
using sched::Executor;
using sched::OffsetPlan;
using sched::OffsetRun;
using sched::Schedule;
using sched::appendRun;
using transport::Comm;
using transport::World;
using transport::WorldOptions;

WorldOptions nodesOptions(int nodes, bool hierarchical = false,
                          bool contention = false) {
  WorldOptions options;
  options.net.nodesPerProgram = {nodes};
  options.net.hierarchicalCollectives = hierarchical;
  options.net.contention = contention;
  return options;
}

/// nodesOptions plus the executor's message layout.
WorldOptions aggOptions(int nodes, bool aggregated, bool contention = false) {
  WorldOptions options = nodesOptions(nodes, /*hierarchical=*/false,
                                      contention);
  options.net.nodeAggregation = aggregated;
  return options;
}

TEST(Topology, CommAccessorsMatchCyclicPlacement) {
  World::runSPMD(
      8,
      [](Comm& c) {
        // Cyclic placement over 3 nodes: rank r lives on node r % 3.
        EXPECT_EQ(c.programNodes(), 3);
        EXPECT_EQ(c.myNode(), c.nodeOfRank(c.rank()));
        for (int r = 0; r < c.size(); ++r) {
          EXPECT_EQ(c.leaderOfRank(r), r % 3);
        }
        EXPECT_EQ(c.nodeLeader(), c.rank() % 3);
        EXPECT_EQ(c.isNodeLeader(), c.rank() < 3);
        ASSERT_EQ(c.nodeLeaders().size(), 3u);
        EXPECT_EQ(c.nodeLeaders()[0], 0);  // rank 0 is always a leader
        EXPECT_EQ(c.nodeLeaders()[1], 1);
        EXPECT_EQ(c.nodeLeaders()[2], 2);
        std::vector<int> expectPeers;
        for (int r = c.rank() % 3; r < 8; r += 3) expectPeers.push_back(r);
        EXPECT_EQ(c.nodePeers(), expectPeers);
      },
      nodesOptions(3));
}

// --- hierarchical collectives ------------------------------------------------

/// Runs the collective workload once and returns each rank's serialized
/// results, so flat and hierarchical worlds can be compared bytewise.
std::vector<std::vector<std::byte>> runCollectiveWorkload(bool hierarchical) {
  const int kProcs = 8;
  std::vector<std::vector<std::byte>> results(kProcs);
  World::runSPMD(
      kProcs,
      [&results](Comm& c) {
        std::vector<std::byte>& out =
            results[static_cast<size_t>(c.rank())];
        const auto put = [&out](std::span<const std::byte> b) {
          out.insert(out.end(), b.begin(), b.end());
        };
        const auto putDouble = [&put](double v) {
          put(std::as_bytes(std::span<const double>(&v, 1)));
        };
        std::mt19937 rng(1234u + static_cast<unsigned>(c.rank()));
        std::uniform_real_distribution<double> val(-3.0, 3.0);

        c.advance(0.01 * (c.rank() + 1));
        c.barrier();
        EXPECT_GE(c.now(), 0.08);  // at least the max participating clock

        // bcast from every root, odd payload sizes.
        for (int root = 0; root < c.size(); ++root) {
          std::vector<double> data;
          if (c.rank() == root) {
            data.resize(static_cast<size_t>(3 + root));
            for (double& v : data) v = val(rng);
          }
          c.bcast(data, root);
          ASSERT_EQ(data.size(), static_cast<size_t>(3 + root));
          put(std::as_bytes(std::span<const double>(data)));
        }

        // allgather with rank-dependent row sizes (exercises the framed
        // leader batches), plus the empty-row edge case at rank 5.
        std::vector<double> mine(
            static_cast<size_t>(c.rank() == 5 ? 0 : 1 + c.rank() % 4));
        for (double& v : mine) v = val(rng);
        const auto rows = c.allgather<double>(mine);
        for (const auto& row : rows) {
          put(std::as_bytes(std::span<const double>(row)));
        }

        // allreduce: floating-point sums only match bitwise when the
        // combination order is identical.
        const double sum = c.allreduceSum(val(rng));
        putDouble(sum);
        putDouble(c.allreduceMax(val(rng)));

        // gather stays flat but must coexist with the hierarchy flag.
        const auto g = c.gather<double>(mine, 1);
        if (c.rank() == 1) {
          for (const auto& row : g) {
            put(std::as_bytes(std::span<const double>(row)));
          }
        }
      },
      nodesOptions(3, hierarchical));
  return results;
}

TEST(Topology, HierarchicalCollectivesBitwiseIdenticalToFlat) {
  const auto flat = runCollectiveWorkload(false);
  const auto tree = runCollectiveWorkload(true);
  ASSERT_EQ(flat.size(), tree.size());
  for (size_t r = 0; r < flat.size(); ++r) {
    EXPECT_EQ(flat[r], tree[r]) << "rank " << r;
  }
}

/// Two coupled programs, each spanning multiple nodes, with cross-program
/// traffic interleaved between intra-program collectives.
std::vector<std::vector<std::byte>> runInterProgramWorkload(
    bool hierarchical) {
  std::vector<std::vector<std::byte>> results(10);
  WorldOptions options;
  options.net.nodesPerProgram = {2, 3};
  options.net.hierarchicalCollectives = hierarchical;
  const auto body = [&results](Comm& c) {
    std::vector<std::byte>& out =
        results[static_cast<size_t>(c.globalRank())];
    const auto putDouble = [&out](double v) {
      const auto b = std::as_bytes(std::span<const double>(&v, 1));
      out.insert(out.end(), b.begin(), b.end());
    };
    const int other = 1 - c.program();
    const double local = 0.125 * (c.globalRank() + 1);
    putDouble(c.allreduceSum(local));
    // rank 0 <-> rank 0 exchange between the programs.
    if (c.rank() == 0) {
      const int tag = c.nextInterTag(other);
      c.sendValueTo(other, 0, tag, local * 10.0);
      putDouble(c.recvValueFrom<double>(other, 0, tag));
    }
    std::vector<double> mine{local, -local};
    const auto rows = c.allgather<double>(mine);
    for (const auto& row : rows) {
      const auto b = std::as_bytes(std::span<const double>(row));
      out.insert(out.end(), b.begin(), b.end());
    }
  };
  World::run({{"left", 6, body}, {"right", 4, body}}, options);
  return results;
}

TEST(Topology, HierarchicalCollectivesAcrossProgramWorlds) {
  const auto flat = runInterProgramWorkload(false);
  const auto tree = runInterProgramWorkload(true);
  ASSERT_EQ(flat.size(), tree.size());
  for (size_t r = 0; r < flat.size(); ++r) {
    EXPECT_EQ(flat[r], tree[r]) << "global rank " << r;
  }
}

TEST(Topology, AlltoallRotationDeliversCorrectRows) {
  World::runSPMD(
      5,
      [](Comm& c) {
        std::vector<std::vector<int>> sendTo(5);
        for (int r = 0; r < 5; ++r) {
          sendTo[static_cast<size_t>(r)] = {c.rank() * 100 + r,
                                            c.rank() * 100 + r + 50};
        }
        const auto got = c.alltoall<int>(sendTo);
        ASSERT_EQ(got.size(), 5u);
        for (int r = 0; r < 5; ++r) {
          const auto& row = got[static_cast<size_t>(r)];
          ASSERT_EQ(row.size(), 2u);
          EXPECT_EQ(row[0], r * 100 + c.rank());
          EXPECT_EQ(row[1], r * 100 + c.rank() + 50);
        }
      },
      nodesOptions(2, /*hierarchical=*/false, /*contention=*/true));
}

// --- node-aggregated schedule execution --------------------------------------

constexpr int kSrcLen = 64;

/// Deterministic fuzzed traffic matrix: every rank derives the same plans
/// from the seed, so send and receive sides agree.  With `overlap` the
/// receive offsets of different peers may collide (add semantics);
/// otherwise each (src, dst) pair gets a disjoint destination region.
Schedule fuzzSchedule(unsigned seed, int nprocs, int me, bool overlap,
                      size_t* dstLen) {
  const auto countOf = [seed](int s, int d) {
    std::mt19937 rng(seed * 7919u + static_cast<unsigned>(s) * 131u +
                     static_cast<unsigned>(d));
    return static_cast<int>(rng() % 4);  // 0..3 elements, 0 = no message
  };
  Schedule sched;
  sched.bufferLocalCopies = false;
  for (int d = 0; d < nprocs; ++d) {
    const int n = countOf(me, d);
    if (n == 0) continue;
    std::mt19937 rng(seed * 31u + static_cast<unsigned>(me) * 17u +
                     static_cast<unsigned>(d));
    OffsetPlan p;
    p.peer = d;
    for (int i = 0; i < n; ++i) {
      appendRun(p.runs, OffsetRun{static_cast<Index>(rng() % kSrcLen), 1, 0});
    }
    sched.sends.push_back(std::move(p));
  }
  size_t base = 0;
  for (int s = 0; s < nprocs; ++s) {
    const int n = countOf(s, me);
    if (n == 0) continue;
    std::mt19937 rng(seed * 101u + static_cast<unsigned>(s) * 13u +
                     static_cast<unsigned>(me));
    OffsetPlan p;
    p.peer = s;
    for (int i = 0; i < n; ++i) {
      const Index off = overlap
                            ? static_cast<Index>(rng() % 16)
                            : static_cast<Index>(base + static_cast<size_t>(i));
      appendRun(p.runs, OffsetRun{off, 1, 0});
    }
    base += static_cast<size_t>(n);
    sched.recvs.push_back(std::move(p));
  }
  *dstLen = overlap ? 16 : (base > 0 ? base : 1);
  return sched;
}

void staggeredSleep(int rank, int iteration) {
  const int ms = ((rank + iteration) % 3) * 3;
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Runs the fuzzed schedule `iters` times through one executor and returns
/// each rank's final dst bytes.
std::vector<std::vector<double>> runFuzzWorld(
    unsigned seed, int nprocs, int nodes, bool aggregated, bool add,
    int iters) {
  std::vector<std::vector<double>> results(static_cast<size_t>(nprocs));
  World::runSPMD(
      nprocs,
      [&results, seed, add, iters](Comm& c) {
        size_t dstLen = 0;
        const Schedule s =
            fuzzSchedule(seed, c.size(), c.rank(), /*overlap=*/add, &dstLen);
        Executor<double> ex(c, s);
        std::vector<double> src(kSrcLen);
        for (int i = 0; i < kSrcLen; ++i) {
          src[static_cast<size_t>(i)] =
              std::sin(0.1 * i + c.rank()) * 1e3;  // irregular doubles
        }
        std::vector<double> dst(dstLen, 0.25);
        for (int it = 0; it < iters; ++it) {
          staggeredSleep(c.rank(), it);
          if (add) {
            ex.runAdd(src, dst);
          } else {
            ex.run(src, dst);
          }
        }
        results[static_cast<size_t>(c.rank())] = dst;
      },
      aggOptions(nodes, aggregated));
  return results;
}

void expectBitwiseEqual(const std::vector<std::vector<double>>& a,
                        const std::vector<std::vector<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size()) << "rank " << r;
    EXPECT_EQ(0, std::memcmp(a[r].data(), b[r].data(),
                             a[r].size() * sizeof(double)))
        << "rank " << r;
  }
}

TEST(Topology, AggregatedRunMatchesFlatBitwise) {
  for (unsigned seed : {1u, 2u, 3u}) {
    const auto flat = runFuzzWorld(seed, 8, 3, /*aggregated=*/false,
                                   /*add=*/false, /*iters=*/4);
    const auto agg = runFuzzWorld(seed, 8, 3, /*aggregated=*/true,
                                  /*add=*/false, /*iters=*/4);
    expectBitwiseEqual(flat, agg);
  }
}

TEST(Topology, AggregatedRunAddMatchesFlatBitwise) {
  for (unsigned seed : {4u, 5u, 6u}) {
    // Overlapping receive offsets: float += only matches bitwise when
    // contributions apply in peer order on both paths.
    const auto flat = runFuzzWorld(seed, 8, 3, /*aggregated=*/false,
                                   /*add=*/true, /*iters=*/4);
    const auto agg = runFuzzWorld(seed, 8, 3, /*aggregated=*/true,
                                  /*add=*/true, /*iters=*/4);
    expectBitwiseEqual(flat, agg);
  }
}

TEST(Topology, AggregatedSingleNodeAndDistributedEdges) {
  // nodes == 1 (everything direct, no frames) and nodes == nprocs (every
  // remote peer is its own frame) both stay bitwise identical.
  for (int nodes : {1, 6}) {
    const auto flat =
        runFuzzWorld(7u, 6, nodes, /*aggregated=*/false, /*add=*/true, 3);
    const auto agg =
        runFuzzWorld(7u, 6, nodes, /*aggregated=*/true, /*add=*/true, 3);
    expectBitwiseEqual(flat, agg);
  }
}

/// Split-phase with aggregation: poll-while-computing, finish/finishAdd,
/// and a cancelled Pending followed by a clean run.
std::vector<std::vector<double>> runSplitPhaseWorld(unsigned seed,
                                                    bool aggregated) {
  const int kProcs = 8;
  std::vector<std::vector<double>> results(kProcs);
  World::runSPMD(
      kProcs,
      [&results, seed](Comm& c) {
        size_t dstLen = 0;
        const Schedule s =
            fuzzSchedule(seed, c.size(), c.rank(), /*overlap=*/false, &dstLen);
        Executor<double> ex(c, s);
        std::vector<double> src(kSrcLen);
        for (int i = 0; i < kSrcLen; ++i) {
          src[static_cast<size_t>(i)] = 1.5 * i - c.rank();
        }
        std::vector<double> dst(dstLen, -1.0);
        for (int it = 0; it < 3; ++it) {
          staggeredSleep(c.rank(), it);
          auto pending = ex.start(src);
          int spins = 0;
          while (!pending.poll() && spins < 100) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            ++spins;
          }
          pending.finish(dst);
        }
        {
          // Abandoned exchange: the destructor must drain (and, under
          // aggregation, still forward node-mates' segments).
          auto abandoned = ex.start(src);
        }
        auto pending = ex.start(src);
        pending.finishAdd(dst);
        results[static_cast<size_t>(c.rank())] = dst;
      },
      aggOptions(3, aggregated));
  return results;
}

TEST(Topology, AggregatedSplitPhaseMatchesFlat) {
  const auto flat = runSplitPhaseWorld(11u, false);
  const auto agg = runSplitPhaseWorld(11u, true);
  expectBitwiseEqual(flat, agg);
}

/// All-to-all schedule on 8 ranks over 2 nodes: flat execution emits 4
/// inter-node messages per rank per step, aggregated execution exactly 1
/// (<= nodes-1), with the node leaders forwarding 3 segments each.
TEST(Topology, AggregatedInterNodeMessageInvariant) {
  constexpr int kProcs = 8;
  constexpr int kNodes = 2;
  for (bool aggregated : {false, true}) {
    World::runSPMD(
        kProcs,
        [aggregated](Comm& c) {
          Schedule s;
          s.bufferLocalCopies = false;
          for (int r = 0; r < c.size(); ++r) {
            if (r == c.rank()) continue;
            s.sends.push_back(OffsetPlan{r, {}, {OffsetRun{0, 2, 1}}});
            const Index base =
                static_cast<Index>(2 * (r < c.rank() ? r : r - 1));
            s.recvs.push_back(OffsetPlan{r, {}, {OffsetRun{base, 2, 1}}});
          }
          Executor<double> ex(c, s);
          std::vector<double> src(2, 1.0 * c.rank());
          std::vector<double> dst(2 * (kProcs - 1), 0.0);
          const auto before = c.stats();
          ex.run(src, dst);
          // Every send of the step (frames AND leader forwards) happens
          // inside run(): forwarding rides the leader's own drain, so the
          // rank's post-run counter diff covers the whole step.
          const auto d = c.stats() - before;
          const int remoteRanks = kProcs - kProcs / kNodes;  // 4
          if (aggregated) {
            // Direct same-node sends plus exactly ONE frame per remote
            // node: the <= nodes-1 inter-node invariant, exact here.
            EXPECT_EQ(d.interNodeMessages,
                      static_cast<std::uint64_t>(kNodes - 1));
            if (c.isNodeLeader()) {
              // 4 remote sources frame into this node; 3 of each frame's
              // 4 segments forward to the other three node-mates... except
              // segments addressed to the leader itself.
              EXPECT_EQ(d.forwardedMessages,
                        static_cast<std::uint64_t>(remoteRanks) * 3u);
            } else {
              EXPECT_EQ(d.forwardedMessages, 0u);
            }
          } else {
            // Flat: one message per remote rank.
            EXPECT_EQ(d.interNodeMessages,
                      static_cast<std::uint64_t>(remoteRanks));
            EXPECT_EQ(d.forwardedMessages, 0u);
          }
          // Data correctness either way.
          for (int r = 0; r < kProcs; ++r) {
            if (r == c.rank()) continue;
            const size_t base =
                static_cast<size_t>(2 * (r < c.rank() ? r : r - 1));
            EXPECT_EQ(dst[base], 1.0 * r);
            EXPECT_EQ(dst[base + 1], 1.0 * r);
          }
        },
        aggOptions(kNodes, aggregated, /*contention=*/true));
  }
}

/// Rebinding an aggregated executor re-derives the node grouping (and the
/// leader's expected-frame set) collectively.
TEST(Topology, AggregatedRebindStaysCorrect) {
  World::runSPMD(
      6,
      [](Comm& c) {
        size_t dstLen1 = 0, dstLen2 = 0;
        const Schedule s1 =
            fuzzSchedule(21u, c.size(), c.rank(), /*overlap=*/false, &dstLen1);
        const Schedule s2 =
            fuzzSchedule(22u, c.size(), c.rank(), /*overlap=*/false, &dstLen2);
        Executor<double> ex(c, s1);
        std::vector<double> src(kSrcLen);
        for (int i = 0; i < kSrcLen; ++i) {
          src[static_cast<size_t>(i)] = 2.0 * i + c.rank();
        }
        std::vector<double> dst1(dstLen1, 0.0);
        ex.run(src, dst1);
        ex.rebind(s2);
        std::vector<double> dst2(dstLen2, 0.0);
        ex.run(src, dst2);
        // Oracle: fresh flat-equivalent executors produce the same bytes.
        // (The world aggregates, so these are also aggregated — the point
        // is the rebind path, exercised against fresh binds.)
        Executor<double> ex2(c, s2);
        std::vector<double> dst2b(dstLen2, 0.0);
        ex2.run(src, dst2b);
        EXPECT_EQ(0, std::memcmp(dst2.data(), dst2b.data(),
                                 dst2.size() * sizeof(double)));
      },
      aggOptions(2, /*aggregated=*/true));
}

}  // namespace
}  // namespace mc
