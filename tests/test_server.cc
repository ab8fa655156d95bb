// The multi-tenant compute server: schedule-blob round trips, fused batch
// replication, bitwise equivalence of batched and serial execution (both
// at the MatvecEngine level and differentially through the full server
// protocol), admission control under overload, and attach/detach/re-attach
// session churn including zero-request tenancies.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "hpfrt/matvec.h"
#include "oracle/run_reference.h"
#include "sched/serialize.h"
#include "server/client_session.h"
#include "server/compute_server.h"
#include "server/protocol.h"
#include "transport/world.h"

namespace mc::server {
namespace {

using layout::Index;
using layout::Point;
using transport::Comm;
using transport::ProgramSpec;
using transport::World;

double vectorEntry(Index i, int salt) {
  return static_cast<double>((i * 7 + salt) % 11) - 5.0;
}

/// Dense oracle: y[i] = sum_j matrixEntry(matrixId, i, j) * x(j).
std::vector<double> oracle(Index n, int matrixId, int salt) {
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (Index i = 0; i < n; ++i) {
    double acc = 0;
    for (Index j = 0; j < n; ++j) {
      acc += matrixEntry(matrixId, i, j) * vectorEntry(j, salt);
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

// ---------------------------------------------------------------------------
// Schedule blobs and batch replication (pure, no world).

sched::Schedule sampleSchedule() {
  sched::Schedule s;
  s.sends.push_back(sched::reference::planOf(2, {0, 3, 4, 9}));
  s.sends.push_back(
      sched::OffsetPlan{5, {}, {sched::OffsetRun{1, 4, 2}}});
  s.recvs.push_back(sched::reference::planOf(1, {7, 8}));
  s.localRuns.push_back(sched::LocalRun{0, 10, 2, 1, 1});
  s.bufferLocalCopies = true;
  return s;
}

TEST(ScheduleBlob, RoundTripsExactly) {
  const sched::Schedule s = sampleSchedule();
  const std::vector<std::byte> blob = sched::serializeSchedule(s);
  const sched::Schedule back = sched::deserializeSchedule(blob);
  EXPECT_EQ(back.bufferLocalCopies, s.bufferLocalCopies);
  ASSERT_EQ(back.sends.size(), s.sends.size());
  ASSERT_EQ(back.recvs.size(), s.recvs.size());
  for (std::size_t i = 0; i < s.sends.size(); ++i) {
    EXPECT_EQ(back.sends[i].peer, s.sends[i].peer);
    EXPECT_EQ(back.sends[i].runs, s.sends[i].runs);
  }
  EXPECT_EQ(back.recvs[0].runs, s.recvs[0].runs);
  EXPECT_EQ(back.localRuns, s.localRuns);
  // And the re-serialized bytes are identical (canonical form).
  EXPECT_EQ(sched::serializeSchedule(back), blob);
}

TEST(ScheduleBlob, TruncatedOrCorruptBlobRejected) {
  const std::vector<std::byte> blob =
      sched::serializeSchedule(sampleSchedule());
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 blob.size() - 1}) {
    EXPECT_THROW(sched::deserializeSchedule(
                     std::span<const std::byte>(blob.data(), keep)),
                 Error)
        << "kept " << keep << " bytes";
  }
  std::vector<std::byte> bad = blob;
  bad[0] = std::byte{0xff};  // first magic byte of the container header
  EXPECT_THROW(sched::deserializeSchedule(bad), Error);
}

TEST(ScheduleBlob, VersionTwoBlobIsRefused) {
  // Version 2 carried an offset-list lane per plan and a local-pair lane
  // next to the runs.  Runs are the one plan form now (version 3), so a
  // well-formed version-2 blob is refused by its version, not misread.
  std::vector<std::byte> v2;
  blob::putU64(v2, 1);  // bufferLocalCopies
  blob::putU64(v2, 1);  // one send plan
  blob::putU64(v2, 2);  // peer
  blob::putPods(v2, std::vector<Index>{0, 3, 4, 9});
  blob::putPods(v2, std::vector<sched::OffsetRun>{});
  blob::putU64(v2, 0);  // no receive plans
  blob::putPods(v2, std::vector<Index>{0, 10, 1, 11});  // local pairs
  blob::putPods(v2, std::vector<sched::LocalRun>{});
  try {
    sched::deserializeSchedule(blob::frame(blob::kSchedule, 2, v2));
    ADD_FAILURE() << "a version-2 schedule blob was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown schedule blob version 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sched::kScheduleBlobVersion, 3u);
}

TEST(BatchReplicate, ShiftsEachCopyByTheStride) {
  sched::Schedule s;
  s.sends.push_back(sched::reference::planOf(1, {0, 2}));
  s.recvs.push_back(
      sched::OffsetPlan{1, {}, {sched::OffsetRun{1, 3, 1}}});
  const sched::Schedule fused = sched::batchReplicate(
      s, 3, /*sendStride=*/4, /*recvStride=*/8);
  ASSERT_EQ(fused.sends.size(), 1u);
  EXPECT_EQ(sched::expandOffsets(fused.sends[0].runs),
            (std::vector<Index>{0, 2, 4, 6, 8, 10}));
  ASSERT_EQ(fused.recvs.size(), 1u);
  ASSERT_EQ(fused.recvs[0].runs.size(), 3u);
  EXPECT_EQ(fused.recvs[0].runs[0], (sched::OffsetRun{1, 3, 1}));
  EXPECT_EQ(fused.recvs[0].runs[1], (sched::OffsetRun{9, 3, 1}));
  EXPECT_EQ(fused.recvs[0].runs[2], (sched::OffsetRun{17, 3, 1}));
  // k=1 is the identity.
  const sched::Schedule same = sched::batchReplicate(s, 1, 4, 8);
  EXPECT_EQ(sched::serializeSchedule(same), sched::serializeSchedule(s));
}

// ---------------------------------------------------------------------------
// MatvecEngine::multiplyBatch: a k-vector batch is bitwise k single-vector
// batches (multiply() is one), and both equal a serial sum in the engine's
// documented column order (owned columns ascending, then the rest).

TEST(MultiplyBatch, BitIdenticalToSingleMultiplies) {
  const Index n = 24;
  const int k = 3;
  std::atomic<int> mismatches{0};
  World::runSPMD(4, [&](Comm& c) {
    hpfrt::HpfArray<double> A(c, hpfrt::matvecMatrixDist(n, c.size()));
    hpfrt::HpfArray<double> x(c, hpfrt::matvecVectorDist(n, c.size()));
    hpfrt::HpfArray<double> y(c, hpfrt::matvecVectorDist(n, c.size()));
    A.fillByPoint([](const Point& p) {
      return matrixEntry(0, p[0], p[1]);
    });
    hpfrt::MatvecEngine<double> engine(x);
    const Index localLen = engine.operandLocalLen();
    const Index myRows = A.dist().localShape(c.rank())[0];
    std::vector<bool> owned(static_cast<std::size_t>(n), false);
    x.dist().forEachOwned(c.rank(), [&](const Point& p, Index) {
      owned[static_cast<std::size_t>(p[0])] = true;
    });

    std::vector<double> xs(static_cast<std::size_t>(k * localLen));
    std::vector<double> singles(static_cast<std::size_t>(k * myRows));
    std::vector<double> serial(static_cast<std::size_t>(k * myRows));
    const std::span<const double> a = A.raw();
    for (int j = 0; j < k; ++j) {
      x.fillByPoint([&](const Point& p) { return vectorEntry(p[0], j); });
      std::memcpy(xs.data() + static_cast<std::size_t>(j * localLen),
                  x.raw().data(), sizeof(double) * x.raw().size());
      engine.multiply(A, x, y);
      std::memcpy(singles.data() + static_cast<std::size_t>(j * myRows),
                  y.raw().data(), sizeof(double) * y.raw().size());
      for (Index r = 0; r < myRows; ++r) {
        double acc = 0.0;
        for (const bool ownedPass : {true, false}) {
          for (Index col = 0; col < n; ++col) {
            if (owned[static_cast<std::size_t>(col)] != ownedPass) continue;
            acc += a[static_cast<std::size_t>(r * n + col)] *
                   vectorEntry(col, j);
          }
        }
        serial[static_cast<std::size_t>(j * myRows + r)] = acc;
      }
    }

    std::vector<double> ys(static_cast<std::size_t>(k * myRows), -1.0);
    engine.multiplyBatch(A, xs, ys, k);
    for (std::size_t i = 0; i < ys.size(); ++i) {
      // Exact, not NEAR.
      if (ys[i] != singles[i] || ys[i] != serial[i]) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Full protocol: one client against the server, checked against the oracle.

TEST(ComputeServer, SingleClientMatchesDenseOracle) {
  const Index n = 48;
  std::vector<double> got;
  ServerStats stats;
  std::vector<ProgramSpec> specs;
  specs.push_back(ProgramSpec{"client", 2, [&](Comm& c) {
    SessionConfig cfg;
    cfg.n = n;
    cfg.serverProgram = 1;
    ClientSession session(c, cfg);
    const AttachStats as = session.attach();
    EXPECT_FALSE(as.sharedSchedule);
    EXPECT_TRUE(as.shippedMatrix);
    session.x().fillByPoint([](const Point& p) {
      return vectorEntry(p[0], 7);
    });
    const RequestResult r = session.request();
    EXPECT_GT(r.latencySeconds, 0.0);
    EXPECT_GT(r.serverComputeSeconds, 0.0);
    const std::vector<double> g = session.y().gatherGlobal();
    if (c.rank() == 0) got = g;
    session.detach();
  }});
  specs.push_back(ProgramSpec{"server", 3, [&](Comm& c) {
    ServerConfig cfg;
    cfg.n = n;
    cfg.totalSessions = 1;
    ComputeServer srv(c, cfg);
    srv.run();
    if (c.rank() == 0) stats = srv.stats();
  }});
  World::run(specs);

  const std::vector<double> want = oracle(n, 0, 7);
  ASSERT_GE(got.size(), static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(got[static_cast<std::size_t>(i)],
                want[static_cast<std::size_t>(i)],
                std::abs(want[static_cast<std::size_t>(i)]) * 1e-12 + 1e-12)
        << "row " << i;
  }
  EXPECT_EQ(stats.attaches, 1u);
  EXPECT_EQ(stats.detaches, 1u);
  EXPECT_EQ(stats.schedShareMisses, 1u);
  EXPECT_EQ(stats.matrixShips, 1u);
}

// ---------------------------------------------------------------------------
// Differential test: batched execution must be bit-identical to serial
// per-request execution through the whole protocol — same clients, same
// requests, maxBatch 4 vs 1.

std::vector<std::vector<double>> runClientsAndCollect(int numClients,
                                                      int requestsEach,
                                                      Index n, int maxBatch) {
  std::vector<std::vector<double>> results(
      static_cast<std::size_t>(numClients * requestsEach));
  std::vector<ProgramSpec> specs;
  specs.push_back(ProgramSpec{"server", 4, [&](Comm& c) {
    ServerConfig cfg;
    cfg.n = n;
    cfg.totalSessions = numClients;
    cfg.maxBatch = maxBatch;
    ComputeServer(c, cfg).run();
  }});
  for (int i = 0; i < numClients; ++i) {
    specs.push_back(ProgramSpec{"client" + std::to_string(i), 1,
                                [&, i](Comm& c) {
      SessionConfig cfg;
      cfg.n = n;
      cfg.pad = (i % 2) ? 5 : 0;  // two layouts -> mixed-compatibility pool
      cfg.matrixId = i % 2;
      cfg.serverProgram = 0;
      ClientSession session(c, cfg);
      session.attach();
      for (int it = 0; it < requestsEach; ++it) {
        session.x().fillByPoint([&](const Point& p) {
          return vectorEntry(p[0], i * 31 + it);
        });
        session.request();
        std::vector<double> g = session.y().gatherGlobal();
        g.resize(static_cast<std::size_t>(n));  // drop the pad tail
        results[static_cast<std::size_t>(i * requestsEach + it)] =
            std::move(g);
      }
      session.detach();
    }});
  }
  World::run(specs);
  return results;
}

TEST(ComputeServer, BatchedExecutionBitIdenticalToSerial) {
  const Index n = 32;
  const int numClients = 6, requestsEach = 3;
  const auto batched = runClientsAndCollect(numClients, requestsEach, n, 4);
  const auto serial = runClientsAndCollect(numClients, requestsEach, n, 1);
  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t r = 0; r < batched.size(); ++r) {
    ASSERT_EQ(batched[r].size(), serial[r].size()) << "request " << r;
    for (std::size_t i = 0; i < batched[r].size(); ++i) {
      // Exact bitwise agreement — the accumulation order must not depend
      // on batch composition.
      EXPECT_EQ(batched[r][i], serial[r][i])
          << "request " << r << " element " << i;
    }
  }
  // And both agree with the dense oracle.
  for (int i = 0; i < numClients; ++i) {
    for (int it = 0; it < requestsEach; ++it) {
      const std::vector<double> want = oracle(n, i % 2, i * 31 + it);
      const auto& got =
          batched[static_cast<std::size_t>(i * requestsEach + it)];
      for (Index r = 0; r < n; ++r) {
        EXPECT_NEAR(got[static_cast<std::size_t>(r)],
                    want[static_cast<std::size_t>(r)],
                    std::abs(want[static_cast<std::size_t>(r)]) * 1e-12 +
                        1e-12);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Admission control: a depth-1 queue under 8 greedy clients must bounce
// first attempts with a hint, never exceed its bound, and still serve
// every request via deferred grants.

TEST(ComputeServer, AdmissionControlBoundsQueueAndServesAll) {
  const Index n = 32;
  const int numClients = 8, requestsEach = 2;
  std::atomic<int> served{0};
  std::atomic<int> backedOff{0};
  ServerStats stats;
  std::vector<ProgramSpec> specs;
  specs.push_back(ProgramSpec{"server", 2, [&](Comm& c) {
    ServerConfig cfg;
    cfg.n = n;
    cfg.totalSessions = numClients;
    cfg.queueDepth = 1;
    cfg.maxBatch = 1;
    ComputeServer srv(c, cfg);
    srv.run();
    if (c.rank() == 0) stats = srv.stats();
  }});
  for (int i = 0; i < numClients; ++i) {
    specs.push_back(ProgramSpec{"client" + std::to_string(i), 1,
                                [&, i](Comm& c) {
      SessionConfig cfg;
      cfg.n = n;
      cfg.serverProgram = 0;
      ClientSession session(c, cfg);
      session.attach();
      for (int it = 0; it < requestsEach; ++it) {
        session.x().fillByPoint([&](const Point& p) {
          return vectorEntry(p[0], i + it);
        });
        const RequestResult r = session.request();
        if (r.latencySeconds > 0) served.fetch_add(1);
        if (r.backedOff) backedOff.fetch_add(1);
      }
      session.detach();
    }});
  }
  World::run(specs);

  EXPECT_EQ(served.load(), numClients * requestsEach);
  // 8 concurrent submits cannot fit a depth-1 queue: some were bounced.
  EXPECT_GT(stats.rejected, 0u);
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(backedOff.load()));
  EXPECT_LE(stats.maxQueueDepth, 1u);
  // Every request is granted exactly once (directly or as a deferred
  // grant), and a retry is only ever held, never re-bounced.
  EXPECT_EQ(stats.admitted,
            static_cast<std::uint64_t>(numClients * requestsEach));
  EXPECT_LE(stats.deferred, stats.rejected);
}

// ---------------------------------------------------------------------------
// Session churn: attach / request / detach / re-attach, with zero-request
// tenancies mixed in, across layouts and matrices.

TEST(ComputeServer, AttachDetachChurnWithZeroRequestSessions) {
  const Index n = 32;
  const int numClients = 4, sessionsEach = 2;
  const Index pads[] = {0, 5, 9};
  std::atomic<int> badResults{0};
  ServerStats stats;
  std::vector<ProgramSpec> specs;
  specs.push_back(ProgramSpec{"server", 3, [&](Comm& c) {
    ServerConfig cfg;
    cfg.n = n;
    cfg.totalSessions = numClients * sessionsEach;
    cfg.queueDepth = 4;
    cfg.maxBatch = 4;
    ComputeServer srv(c, cfg);
    srv.run();
    if (c.rank() == 0) stats = srv.stats();
  }});
  for (int i = 0; i < numClients; ++i) {
    specs.push_back(ProgramSpec{"client" + std::to_string(i), 1,
                                [&, i](Comm& c) {
      for (int s = 0; s < sessionsEach; ++s) {
        SessionConfig cfg;
        cfg.n = n;
        cfg.pad = pads[(i + s) % 3];
        cfg.matrixId = (i + s) % 2;
        cfg.serverProgram = 0;
        ClientSession session(c, cfg);
        session.attach();
        const int requests = (i + s) % 3;  // 0, 1 or 2 per tenancy
        for (int it = 0; it < requests; ++it) {
          const int salt = 100 * i + 10 * s + it;
          session.x().fillByPoint([&](const Point& p) {
            return vectorEntry(p[0], salt);
          });
          session.request();
          const std::vector<double> got = session.y().gatherGlobal();
          const std::vector<double> want = oracle(n, cfg.matrixId, salt);
          for (Index r = 0; r < n; ++r) {
            const double w = want[static_cast<std::size_t>(r)];
            if (std::abs(got[static_cast<std::size_t>(r)] - w) >
                std::abs(w) * 1e-12 + 1e-12) {
              badResults.fetch_add(1);
            }
          }
        }
        session.detach();
      }
    }});
  }
  World::run(specs);

  EXPECT_EQ(badResults.load(), 0);
  EXPECT_EQ(stats.attaches,
            static_cast<std::uint64_t>(numClients * sessionsEach));
  EXPECT_EQ(stats.detaches, stats.attaches);
  EXPECT_EQ(stats.schedShareHits + stats.schedShareMisses, stats.attaches);
  // 8 tenancies over 3 layouts: later identical layouts must have hit.
  EXPECT_GT(stats.schedShareHits, 0u);
  EXPECT_LE(stats.schedShareMisses, 3u);
  // Both matrices shipped exactly once despite re-attaches.
  EXPECT_EQ(stats.matrixShips, 2u);
}

}  // namespace
}  // namespace mc::server
