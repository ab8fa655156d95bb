// Multi-tenant compute-server sweep (the Figure 10 family, pushed to the
// service regime the paper gestures at in Section 6): one 8-process HPF
// matvec server on 4 nodes, swept to 100+ single-process clients with
// heavy-tailed (bounded-Pareto, seeded, deterministic) arrivals on the
// virtual clock.  Clients draw from a small set of distinct operand
// layouts (pads {0, 5, 32}) and two matrices, so the server's layout-keyed
// schedule sharing and its batching scheduler both engage: at 64+ clients
// over 3 layouts the sharing hit rate exceeds 95%, and batching
// (maxBatch=8) is A/B'd against serial execution (maxBatch=1) at every
// client count to expose the p99 latency win.
//
// A second sweep varies server processes per node (server on 8, 4, 2, 1
// nodes -> 1, 2, 4, 8 procs per node) with a per-message NIC cost on every
// inter-node link — the Section 5.4 regime where latencies rise again as
// node sharing grows.  Each point is A/B'd flat against topology-aware
// execution (node-aggregated executors + hierarchical collectives) under
// the *same* network parameters, so the aggregated path's flattening of
// the curve is attributable to messaging strategy alone.
//
// Emits BENCH_server.json (mc-bench-v1): per case, the full latency
// reservoir with p50/p99, admission-queue accounting, batch occupancy, and
// the schedule-sharing hit rate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "obs/json.h"
#include "server/client_session.h"
#include "server/compute_server.h"
#include "util/stats.h"

using namespace mc;
using layout::Index;
using layout::Point;
using transport::Comm;
using transport::ProgramSpec;
using transport::World;

namespace {

constexpr int kServerProcs = 8;
constexpr int kServerNodes = 4;
const int kPads[] = {0, 5, 32};  // 3 distinct layout fingerprints
constexpr int kNumPads = 3;
constexpr int kNumMatrices = 2;

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
double uniform01(std::uint64_t& s) {
  return static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
}

double vectorEntry(Index i, int iter) {
  return static_cast<double>((i + iter) % 13) - 6.0;
}

struct SweepResult {
  Reservoir latencies{4096, 0x5eedull};
  server::ServerStats stats;
  std::uint64_t backoffs = 0;
  std::uint64_t requests = 0;
};

/// One server/clients world.  `serverNodes` controls node sharing on the
/// server side; `nicPerMessage` puts a per-message cost on every inter-node
/// link; `topologyAware` switches on node-aggregated executors plus
/// hierarchical collectives (the network parameters stay the same, only the
/// messaging strategy changes).
SweepResult runSweep(int numClients, int requestsPerClient,
                     std::uint64_t seed, Index n, int maxBatch,
                     int serverNodes = kServerNodes,
                     double nicPerMessage = 0.0, bool topologyAware = false) {
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(numClients));
  std::vector<int> backoffs(static_cast<std::size_t>(numClients), 0);
  server::ServerStats stats;

  transport::WorldOptions options;
  options.net.interNode = transport::atmParams();
  options.net.interProgram = transport::atmParams();
  options.net.contention = true;
  options.net.nodesPerProgram.assign(
      static_cast<std::size_t>(numClients) + 1, 1);
  options.net.nodesPerProgram[0] = serverNodes;
  options.net.interNode.nicPerMessage = nicPerMessage;
  options.net.hierarchicalCollectives = topologyAware;
  options.net.nodeAggregation = topologyAware;

  // Heavy-tailed think time: bounded Pareto (alpha=1.5) scaled to the
  // per-request service estimate, so large client counts queue up bursts.
  const double xm = 2.0 * 2.0 * static_cast<double>(n) *
                    static_cast<double>(n) /
                    (static_cast<double>(kServerProcs) * 4e6);

  std::vector<ProgramSpec> specs;
  specs.push_back(ProgramSpec{"server", kServerProcs, [&](Comm& c) {
    server::ServerConfig cfg;
    cfg.n = n;
    cfg.totalSessions = numClients;
    cfg.queueDepth = 16;
    cfg.maxBatch = maxBatch;
    server::ComputeServer srv(c, cfg);
    srv.run();
    if (c.rank() == 0) stats = srv.stats();
  }});
  for (int i = 0; i < numClients; ++i) {
    specs.push_back(ProgramSpec{
        "client" + std::to_string(i), 1, [&, i](Comm& c) {
          server::SessionConfig scfg;
          scfg.n = n;
          scfg.pad = kPads[i % kNumPads];
          scfg.matrixId = i % kNumMatrices;
          scfg.serverProgram = 0;
          server::ClientSession session(c, scfg);
          std::uint64_t rng = seed ^ (0x9e3779b97f4a7c15ull *
                                      static_cast<std::uint64_t>(i + 1));
          session.attach();
          for (int it = 0; it < requestsPerClient; ++it) {
            double think =
                xm * std::pow(1.0 - uniform01(rng), -1.0 / 1.5);
            think = std::min(think, 50.0 * xm);
            c.advance(think);
            session.x().fillByPoint([&](const Point& p) {
              return vectorEntry(p[0], i * 31 + it);
            });
            const server::RequestResult r = session.request();
            latencies[static_cast<std::size_t>(i)].push_back(
                r.latencySeconds);
            if (r.backedOff) backoffs[static_cast<std::size_t>(i)] += 1;
          }
          session.detach();
        }});
  }
  World::run(specs, options);

  SweepResult res;
  res.stats = stats;
  // Aggregate in client order, so the reservoir content is independent of
  // completion interleaving.
  for (int i = 0; i < numClients; ++i) {
    for (const double lat : latencies[static_cast<std::size_t>(i)]) {
      res.latencies.add(lat);
      res.requests += 1;
    }
    res.backoffs += static_cast<std::uint64_t>(
        backoffs[static_cast<std::size_t>(i)]);
  }
  return res;
}

obs::BenchReport::Case& addCase(obs::BenchReport& report,
                                const std::string& name, const SweepResult& r,
                                int clients, double p99VsUnbatched) {
  obs::BenchReport::Case& c = report.addCase(name);
  c.metric("clients", static_cast<double>(clients));
  c.metric("requests", static_cast<double>(r.requests));
  c.metric("latency_seconds", r.latencies);
  c.metric("latency_p50_seconds", r.latencies.p50());
  c.metric("latency_p99_seconds", r.latencies.p99());
  c.metric("sched_share.hit_rate", r.stats.hitRate());
  c.metric("sched_share.hits", static_cast<double>(r.stats.schedShareHits));
  c.metric("sched_share.misses",
           static_cast<double>(r.stats.schedShareMisses));
  c.metric("sharing.max_degree",
           static_cast<double>(r.stats.maxSharingDegree));
  c.metric("batch.occupancy_mean", r.stats.batchOccupancy.count() > 0
                                       ? r.stats.batchOccupancy.mean()
                                       : 1.0);
  c.metric("batch.count", static_cast<double>(r.stats.batches));
  c.metric("batch.max_occupancy",
           static_cast<double>(r.stats.maxBatchOccupancy));
  c.metric("queue.max_depth", static_cast<double>(r.stats.maxQueueDepth));
  c.metric("queue.rejected", static_cast<double>(r.stats.rejected));
  c.metric("queue.deferred", static_cast<double>(r.stats.deferred));
  c.metric("client_backoffs", static_cast<double>(r.backoffs));
  if (p99VsUnbatched > 0) c.metric("p99_vs_unbatched", p99VsUnbatched);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> clientCounts = {16, 64, 128};
  int requests = 6;
  std::uint64_t seed = 12345;
  Index n = 128;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--clients=", 0) == 0) {
      clientCounts.clear();
      std::string rest = arg.substr(10);
      for (std::size_t pos = 0; pos < rest.size();) {
        const std::size_t comma = rest.find(',', pos);
        const std::size_t end = comma == std::string::npos ? rest.size()
                                                           : comma;
        clientCounts.push_back(std::atoi(rest.substr(pos, end - pos).c_str()));
        pos = end + 1;
      }
    } else if (arg.rfind("--requests=", 0) == 0) {
      requests = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--n=", 0) == 0) {
      n = std::atoi(arg.c_str() + 4);
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", arg.c_str());
      return 1;
    }
  }

  obs::BenchReport report("server");
  report.config("server_procs", kServerProcs);
  report.config("server_nodes", kServerNodes);
  report.config("n", static_cast<double>(n));
  report.config("requests_per_client", requests);
  report.config("seed", static_cast<double>(seed));
  report.config("distinct_layouts", kNumPads);
  report.config("matrices", kNumMatrices);
  report.config("sweep_nic_per_message_seconds", 100e-6);

  std::printf(
      "== compute-server sweep: %d-process server on %d nodes, n=%lld ==\n",
      kServerProcs, kServerNodes, static_cast<long long>(n));
  std::printf("%8s %12s %12s %12s %10s %10s %10s\n", "clients", "p50[ms]",
              "p99[ms]", "p99/serial", "hit_rate", "batch_avg", "rejected");
  for (const int clients : clientCounts) {
    const SweepResult serial =
        runSweep(clients, requests, seed, n, /*maxBatch=*/1);
    const SweepResult batched =
        runSweep(clients, requests, seed, n, /*maxBatch=*/8);
    const double ratio = serial.latencies.p99() > 0
                             ? batched.latencies.p99() / serial.latencies.p99()
                             : 1.0;
    const std::string tag = "c" + std::to_string(clients);
    addCase(report, tag + "_unbatched", serial, clients, 0.0);
    addCase(report, tag + "_batched", batched, clients, ratio);
    std::printf("%8d %12.3f %12.3f %12.2f %10.3f %10.2f %10llu\n", clients,
                1e3 * batched.latencies.p50(), 1e3 * batched.latencies.p99(),
                ratio, batched.stats.hitRate(),
                batched.stats.batchOccupancy.count() > 0
                    ? batched.stats.batchOccupancy.mean()
                    : 1.0,
                static_cast<unsigned long long>(batched.stats.rejected));
  }

  // Processes-per-node contention sweep (Section 5.4): the same 8-process
  // server packed onto fewer nodes, with a per-message NIC cost on every
  // inter-node link.  Flat execution pays one message per remote rank and
  // one flat collective hop per rank, both scaled by node sharing, so
  // latency climbs with procs per node; the topology-aware legs (same
  // network, node-aggregated executors + hierarchical collectives) flatten
  // the curve.
  constexpr double kNicPerMessage = 100e-6;
  const int sweepClients = clientCounts.front();
  std::printf(
      "\n== procs-per-node contention sweep: %d clients, nic/message %.0f us "
      "==\n",
      sweepClients, kNicPerMessage * 1e6);
  std::printf("%8s %8s %15s %15s %14s %10s\n", "nodes", "ppn",
              "flat mean[ms]", "topo mean[ms]", "topo p99[ms]", "speedup");
  for (const int nodes : {8, 4, 2, 1}) {
    const int ppn = kServerProcs / nodes;
    // Serial execution (maxBatch=1): batching composition is sensitive to
    // tiny timing shifts, which would swamp the messaging-strategy signal
    // this sweep isolates.  The headline number is the *mean* latency over
    // all requests — tail order under queueing is chaotic in both legs,
    // the mean is where the per-message NIC saving shows cleanly.
    const SweepResult flat =
        runSweep(sweepClients, requests, seed, n, /*maxBatch=*/1, nodes,
                 kNicPerMessage, /*topologyAware=*/false);
    const SweepResult topo =
        runSweep(sweepClients, requests, seed, n, /*maxBatch=*/1, nodes,
                 kNicPerMessage, /*topologyAware=*/true);
    const double flatMean = flat.latencies.stat().mean();
    const double topoMean = topo.latencies.stat().mean();
    const double speedup = topoMean > 0 ? flatMean / topoMean : 1.0;
    const std::string tag = "ppn" + std::to_string(ppn);
    obs::BenchReport::Case& cf =
        addCase(report, tag + "_flat", flat, sweepClients, 0.0);
    cf.metric("server_nodes", static_cast<double>(nodes));
    cf.metric("procs_per_node", static_cast<double>(ppn));
    cf.metric("latency_mean_seconds", flatMean);
    obs::BenchReport::Case& ct =
        addCase(report, tag + "_topo", topo, sweepClients, 0.0);
    ct.metric("server_nodes", static_cast<double>(nodes));
    ct.metric("procs_per_node", static_cast<double>(ppn));
    ct.metric("latency_mean_seconds", topoMean);
    ct.metric("mean_speedup_vs_flat", speedup);
    std::printf("%8d %8d %15.3f %15.3f %14.3f %9.2fx\n", nodes, ppn,
                1e3 * flatMean, 1e3 * topoMean, 1e3 * topo.latencies.p99(),
                speedup);
  }
  report.write("BENCH_server.json");
  std::printf("wrote BENCH_server.json\n");
  return 0;
}
