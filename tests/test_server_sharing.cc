// Cross-client schedule sharing: the second client presenting a layout the
// server has already seen must pay ZERO inspector cost (asserted via the
// build.count counter on the client's own thread), and distinct
// fingerprints must not false-share.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "obs/metrics.h"
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
  return static_cast<double>((i * 5 + salt) % 9) - 4.0;
}

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

/// The calling thread's inspector-build count (0 when nothing was ever
/// built on this thread — the counter registers lazily on first build).
double buildCount() {
  const obs::Snapshot s = obs::threadRegistry().snapshot();
  return s.has("build.count") ? s.get("build.count") : 0.0;
}

struct SharingOutcome {
  ServerStats stats;
  double firstBuilds = -1, secondBuilds = -1;
  bool firstShared = true, secondShared = false;
  int badResults = 0;
};

/// Two single-process clients attach in an enforced order (client 1 hands
/// client 2 a token only after its own attach completed), each runs one
/// request, and both results are oracle-checked.
SharingOutcome runTwoClients(Index n, Index pad1, Index pad2) {
  SharingOutcome out;
  std::atomic<int> bad{0};
  std::vector<ProgramSpec> specs;
  specs.push_back(ProgramSpec{"server", 3, [&](Comm& c) {
    ServerConfig cfg;
    cfg.n = n;
    cfg.totalSessions = 2;
    ComputeServer srv(c, cfg);
    srv.run();
    if (c.rank() == 0) out.stats = srv.stats();
  }});
  auto clientMain = [&](int who, Index pad) {
    return [&, who, pad](Comm& c) {
      if (who == 2) (void)c.recvValueFrom<int>(1, 0, kControlTag);
      SessionConfig cfg;
      cfg.n = n;
      cfg.pad = pad;
      cfg.serverProgram = 0;
      ClientSession session(c, cfg);
      const double before = buildCount();
      const AttachStats as = session.attach();
      const double builds = buildCount() - before;
      if (who == 1) {
        out.firstBuilds = builds;
        out.firstShared = as.sharedSchedule;
        c.sendValueTo(2, 0, kControlTag, 1);  // release client 2
      } else {
        out.secondBuilds = builds;
        out.secondShared = as.sharedSchedule;
      }
      session.x().fillByPoint([&](const Point& p) {
        return vectorEntry(p[0], who);
      });
      session.request();
      const std::vector<double> got = session.y().gatherGlobal();
      const std::vector<double> want = oracle(n, 0, who);
      for (Index i = 0; i < n; ++i) {
        const double w = want[static_cast<std::size_t>(i)];
        if (std::abs(got[static_cast<std::size_t>(i)] - w) >
            std::abs(w) * 1e-12 + 1e-12) {
          bad.fetch_add(1);
        }
      }
      session.detach();
    };
  };
  specs.push_back(ProgramSpec{"client1", 1, clientMain(1, pad1)});
  specs.push_back(ProgramSpec{"client2", 1, clientMain(2, pad2)});
  World::run(specs);
  out.badResults = bad.load();
  return out;
}

TEST(ScheduleSharing, SecondIdenticalLayoutClientBuildsNothing) {
  const SharingOutcome out = runTwoClients(40, /*pad1=*/0, /*pad2=*/0);
  EXPECT_EQ(out.badResults, 0);
  EXPECT_FALSE(out.firstShared);
  EXPECT_TRUE(out.secondShared);
  // The first client ran inspectors (vector send + matrix send halves);
  // the second paid ZERO inspector cost: no build on its thread at all.
  EXPECT_GT(out.firstBuilds, 0.0);
  EXPECT_EQ(out.secondBuilds, 0.0);
  EXPECT_EQ(out.stats.schedShareHits, 1u);
  EXPECT_EQ(out.stats.schedShareMisses, 1u);
  EXPECT_EQ(out.stats.maxSharingDegree, 2u);
  EXPECT_EQ(out.stats.matrixShips, 1u);  // same matrix, shipped once
}

TEST(ScheduleSharing, DistinctFingerprintsDoNotFalseShare) {
  const SharingOutcome out = runTwoClients(40, /*pad1=*/0, /*pad2=*/7);
  EXPECT_EQ(out.badResults, 0);
  EXPECT_FALSE(out.firstShared);
  EXPECT_FALSE(out.secondShared);
  // Different layout fingerprint -> a real build on the second thread.
  EXPECT_GT(out.secondBuilds, 0.0);
  EXPECT_EQ(out.stats.schedShareHits, 0u);
  EXPECT_EQ(out.stats.schedShareMisses, 2u);
  EXPECT_LE(out.stats.maxSharingDegree, 1u);
}

}  // namespace
}  // namespace mc::server
