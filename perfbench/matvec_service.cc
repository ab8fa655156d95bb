// matvec_service — the Figs 10-15 client/server matvec as a multi-tenant
// service.
//
// A 2-rank HPF matvec ComputeServer serves 2 single-rank client programs
// (4 threads) over ATM-class inter-node and inter-program links with
// contention.  Each client runs tenancies — attach, k requests, detach —
// across 3 padded operand layouts and 2 matrices, in a closed loop: its
// next request goes out only after the previous result arrived, after a
// seeded bounded-Pareto think time on the virtual clock.  Worlds of a fixed
// number of tenancies run back to back until the host-time window ends;
// each world starts a fresh server, so its first attaches build.
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <mutex>

#include "bench.h"
#include "obs/trace.h"
#include "server/client_session.h"
#include "server/compute_server.h"
#include "server/protocol.h"
#include "transport/world.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using mc::layout::Index;
using mc::layout::Point;
using mc::transport::Comm;

constexpr int kServerRanks = 2;
constexpr int kClients = 2;
constexpr Index kN = 512;  // the paper's 512x512 matrix
constexpr int kTenancies = 3;     // per client per world
constexpr int kRequests = 8;      // per tenancy
constexpr int kQueueDepth = 4;
constexpr int kMaxBatch = 4;
const Index kPads[] = {0, 5, 32};  // 3 distinct operand layouts
constexpr int kMatrices = 2;
constexpr int kVectorKinds = 13;  // x_j = ((j + k) mod 13) - 6
constexpr double kParetoAlpha = 1.5;
constexpr double kGolden = 0.6180339887498949;
constexpr double kRelTolerance = 1e-12;

double vectorEntry(Index j, int k) {
  return static_cast<double>((j + k) % kVectorKinds) - 6.0;
}

/// Serial A·x for every (matrix, vector kind) pair, plus the row scales
/// Σ|A_ij x_j| the comparison tolerance is relative to.
struct Expected {
  Index n = 0;
  std::vector<std::vector<double>> y, scale;  // [matrix * kinds + kind][i]

  explicit Expected(Index dim) : n(dim) {
    for (int m = 0; m < kMatrices; ++m) {
      for (int k = 0; k < kVectorKinds; ++k) {
        std::vector<double> yi(static_cast<std::size_t>(n), 0.0);
        std::vector<double> si(static_cast<std::size_t>(n), 0.0);
        for (Index i = 0; i < n; ++i) {
          for (Index j = 0; j < n; ++j) {
            const double t =
                mc::server::matrixEntry(m, i, j) * vectorEntry(j, k);
            yi[static_cast<std::size_t>(i)] += t;
            si[static_cast<std::size_t>(i)] += std::fabs(t);
          }
        }
        y.push_back(std::move(yi));
        scale.push_back(std::move(si));
      }
    }
  }

  bool matches(int matrix, int kind, std::span<const double> got) const {
    const auto& want = y[static_cast<std::size_t>(matrix * kVectorKinds + kind)];
    const auto& s = scale[static_cast<std::size_t>(matrix * kVectorKinds + kind)];
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (std::fabs(got[i] - want[i]) > kRelTolerance * std::fmax(1.0, s[i])) {
        return false;
      }
    }
    return true;
  }
};

/// What one client observed in one world.
struct ClientLog {
  std::vector<double> host, virt, compute;
  double firstAttachHost = 0, firstAttachVirtual = 0;
  double attachHost = 0, attachVirtual = 0, attaches = 0;
  double matrixVirtual = 0, ships = 0;
  long long completed = 0, failed = 0, backoffs = 0;
};

struct WorldResult {
  std::vector<ClientLog> clients{kClients};
  mc::server::ServerStats stats;
  double setupSeconds = 0;  // launch -> every program constructed
  double poolAcquires = 0, poolHits = 0;
};

/// Round-robin turns between the clients: one client talks to the server
/// at a time (attach, request or detach), in a fixed order.  Without it a
/// request's host latency mixes served-at-once and waited-behind-the-other-
/// client, so the median jumped between the two modes from run to run, and
/// the host interleaving moved the virtual clocks.  Queueing between the
/// clients still shows on the virtual clocks.  A client that finishes or
/// fails retires and is skipped.
class Turns {
 public:
  explicit Turns(int clients) : done_(static_cast<std::size_t>(clients)) {}

  void wait(int me) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return owner_ == me; });
  }
  void pass(int me) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      advance(me);
    }
    cv_.notify_all();
  }
  void retire(int me) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_[static_cast<std::size_t>(me)] = true;
      if (owner_ == me) advance(me);
    }
    cv_.notify_all();
  }

 private:
  void advance(int me) {
    const int n = static_cast<int>(done_.size());
    for (int k = 1; k <= n; ++k) {
      const int c = (me + k) % n;
      if (!done_[static_cast<std::size_t>(c)]) {
        owner_ = c;
        return;
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  int owner_ = 0;
  std::vector<bool> done_;
};

/// One server + clients world with `kTenancies` tenancies per client.
/// Every client's first interaction is its first attach, so the turns run
/// the initial inspector phase on an otherwise idle server.
void runWorld(std::uint64_t seed, long long worldIndex, Index n,
              const Expected& expected, bool traced, CounterSum& counters,
              Ledger& ledger, mc::obs::TraceCollector* trace,
              WorldResult& out) {
  const double launch = hostNow();
  std::vector<double> ready(kClients + 1, 0.0);
  Turns turns(kClients);
  const double xm = 2.0 * 2.0 * static_cast<double>(n) *
                    static_cast<double>(n) / (kServerRanks * 4e6);

  mc::transport::WorldOptions options;
  options.net.interNode = mc::transport::atmParams();
  options.net.interProgram = mc::transport::atmParams();
  options.net.contention = true;
  options.net.nodesPerProgram.assign(kClients + 1, 1);
  options.net.nodesPerProgram[0] = kServerRanks;

  const auto finish = [&](Comm& c, const CounterEpoch& epoch,
                          const std::string& label) {
    const mc::obs::Snapshot d = epoch.delta();
    counters.add(d);
    if (c.program() == 0 && c.rank() == 0) {
      out.poolAcquires = d.get("transport.pool.acquires");
      out.poolHits = d.get("transport.pool.hits");
    }
    if (!traced) return;
    std::vector<mc::obs::SpanRecord> spans =
        mc::obs::threadRegistry().takeSpans();
    ledger.addRank(spans);
    if (trace != nullptr) {
      spans.resize(std::min(spans.size(), kTraceSpansPerRank));
      trace->add(c.program(), c.globalRank(), label, std::move(spans));
    }
  };

  std::vector<mc::transport::ProgramSpec> specs;
  specs.push_back({"server", kServerRanks, [&](Comm& c) {
    pinThread(c.rank());
    if (traced) useHostSpanClock();
    const CounterEpoch epoch;
    mc::server::ServerConfig cfg;
    cfg.n = n;
    cfg.totalSessions = kClients * kTenancies;
    cfg.queueDepth = kQueueDepth;
    cfg.maxBatch = kMaxBatch;
    mc::server::ComputeServer srv(c, cfg);
    if (c.rank() == 0) ready[0] = hostNow() - launch;
    srv.run();
    if (c.rank() == 0) out.stats = srv.stats();
    finish(c, epoch, "server/" + std::to_string(c.rank()));
  }});
  for (int i = 0; i < kClients; ++i) {
    specs.push_back({"client" + std::to_string(i), 1, [&, i](Comm& c) {
      pinThread(kServerRanks + i);
      if (traced) useHostSpanClock();
      const CounterEpoch epoch;
      ClientLog& log = out.clients[static_cast<std::size_t>(i)];
      mc::Rng rng(seed ^ (0x9e3779b97f4a7c15ull *
                          static_cast<std::uint64_t>(worldIndex * kClients + i + 1)));
      struct Retire {
        Turns& turns;
        int me;
        ~Retire() { turns.retire(me); }
      } retire{turns, i};
      const int rotate = static_cast<int>(rng.below(3));
      const double phase = rng.uniform();
      for (int t = 0; t < kTenancies; ++t) {
        mc::server::SessionConfig scfg;
        scfg.n = n;
        scfg.pad = kPads[(i + t + rotate) % 3];
        scfg.matrixId = (i + t) % kMatrices;
        scfg.serverProgram = 0;
        mc::server::ClientSession session(c, scfg);
        if (t == 0) ready[static_cast<std::size_t>(i + 1)] = hostNow() - launch;
        turns.wait(i);
        const double a0 = hostNow();
        const mc::server::AttachStats as = session.attach();
        const double attachHost = hostNow() - a0;
        turns.pass(i);
        const double attachVirtual = as.scheduleSeconds + as.matrixSeconds;
        if (t == 0) {
          log.firstAttachHost = attachHost;
          log.firstAttachVirtual = attachVirtual;
        }
        log.attachHost += attachHost;
        log.attachVirtual += as.scheduleSeconds;
        log.attaches += 1;
        if (as.shippedMatrix) {
          log.matrixVirtual += as.matrixSeconds;
          log.ships += 1;
        }
        for (int k = 0; k < kRequests; ++k) {
          // Bounded-Pareto think time from a seeded golden-ratio sequence:
          // every world draws evenly over [0, 1), so the heavy tail of the
          // think times (and the latency tail it drives) does not hinge on
          // a few extreme draws of one seed.
          const double u = std::fmod(
              phase + kGolden * static_cast<double>(t * kRequests + k), 1.0);
          const double think = xm * std::pow(1.0 - u, -1.0 / kParetoAlpha);
          c.advance(std::min(think, 50.0 * xm));
          const int kind = static_cast<int>(rng.below(kVectorKinds));
          session.x().fillByPoint(
              [&](const Point& p) { return vectorEntry(p[0], kind); });
          turns.wait(i);
          mc::obs::ScopedSpan opSpan(span::kOp);
          const double h0 = hostNow();
          mc::server::RequestResult res;
          {
            mc::obs::ScopedSpan req(span::kRequest);
            res = session.request();
          }
          const double h1 = hostNow();
          opSpan.end();
          turns.pass(i);
          log.host.push_back(h1 - h0);
          log.virt.push_back(res.latencySeconds);
          log.compute.push_back(res.serverComputeSeconds);
          log.backoffs += res.backedOff ? 1 : 0;
          log.completed += 1;
          if (!expected.matches(scfg.matrixId, kind, session.y().raw())) {
            log.failed += 1;
          }
        }
        turns.wait(i);
        session.detach();
        turns.pass(i);
      }
      finish(c, epoch, "client" + std::to_string(i));
    }});
  }
  mc::transport::World::run(std::move(specs), options);
  out.setupSeconds = *std::max_element(ready.begin(), ready.end());
}

struct Window {
  OpSamples ops;
  std::vector<double> setup, buildHost, buildVirtual;
  std::vector<double> compute;
  double attachHost = 0, attachVirtual = 0, attaches = 0;
  double matrixVirtual = 0, ships = 0, backoffs = 0;
  double shareHits = 0, shareMisses = 0, batches = 0, batchedRequests = 0;
  double queueMax = 0, rejected = 0, deferred = 0;
  double poolAcquires = 0, poolHits = 0;
};

void runWindow(const Options& opt, Index n, const Expected& expected,
               double seconds, bool traced, long long& worldIndex,
               CounterSum& counters, Ledger& ledger,
               mc::obs::TraceCollector& trace, Window& w) {
  const double start = hostNow();
  bool first = true;
  while (hostNow() < start + seconds) {
    WorldResult res;
    const long long planned = kClients * kTenancies * kRequests;
    const double worldStart = hostNow();
    try {
      runWorld(opt.seed, worldIndex, n, expected, traced, counters, ledger,
               traced && first ? &trace : nullptr, res);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "matvec_service: world %lld failed: %s\n",
                   worldIndex, e.what());
      long long done = 0;
      for (const ClientLog& c : res.clients) done += c.completed;
      w.ops.attempted += planned;
      w.ops.failed += planned - done;
      ++worldIndex;
      continue;
    }
    first = false;
    ++worldIndex;
    w.setup.push_back(res.setupSeconds);
    // The world's wall time, set-up and attaches included, shared evenly
    // among its requests.
    std::size_t requests = 0;
    for (const ClientLog& c : res.clients) requests += c.host.size();
    w.ops.slot.insert(w.ops.slot.end(), requests,
                      (hostNow() - worldStart) /
                          static_cast<double>(std::max<std::size_t>(1, requests)));
    double bh = 0, bv = 0;
    for (const ClientLog& c : res.clients) {
      w.ops.host.insert(w.ops.host.end(), c.host.begin(), c.host.end());
      w.ops.virt.insert(w.ops.virt.end(), c.virt.begin(), c.virt.end());
      w.compute.insert(w.compute.end(), c.compute.begin(), c.compute.end());
      w.ops.attempted += static_cast<long long>(c.host.size());
      w.ops.failed += c.failed;
      bh = std::max(bh, c.firstAttachHost);
      bv = std::max(bv, c.firstAttachVirtual);
      w.attachHost += c.attachHost;
      w.attachVirtual += c.attachVirtual;
      w.attaches += c.attaches;
      w.matrixVirtual += c.matrixVirtual;
      w.ships += c.ships;
      w.backoffs += static_cast<double>(c.backoffs);
    }
    w.buildHost.push_back(bh);
    w.buildVirtual.push_back(bv);
    const mc::server::ServerStats& s = res.stats;
    w.shareHits += static_cast<double>(s.schedShareHits);
    w.shareMisses += static_cast<double>(s.schedShareMisses);
    w.batches += static_cast<double>(s.batches);
    w.batchedRequests += static_cast<double>(s.batchedRequests);
    w.queueMax = std::max(w.queueMax, static_cast<double>(s.maxQueueDepth));
    w.rejected += static_cast<double>(s.rejected);
    w.deferred += static_cast<double>(s.deferred);
    w.poolAcquires += res.poolAcquires;
    w.poolHits += res.poolHits;
  }
  w.ops.loopSeconds = hostNow() - start;
}

}  // namespace

void runMatvecService(const Options& opt, Results& r) {
  const Index n = kN;
  const Expected expected(n);
  long long worldIndex = 0;
  CounterSum untracedCounters, counters;
  Ledger ledger;
  mc::obs::TraceCollector trace;
  Window untraced, w;
  if (opt.trace) {
    runWindow(opt, n, expected, opt.seconds / 2, false, worldIndex,
              untracedCounters, ledger, trace, untraced);
    mc::obs::setEnabled(true);
  }
  runWindow(opt, n, expected, opt.trace ? opt.seconds / 2 : opt.seconds,
            opt.trace, worldIndex, counters, ledger, trace, w);
  mc::obs::setEnabled(false);

  r.note("matrix_n", static_cast<double>(n));
  r.note("server_ranks", kServerRanks);
  r.note("closed_loop_clients", kClients);
  r.note("worlds", static_cast<double>(worldIndex));
  r.note("tenancies_per_client_per_world", kTenancies);
  r.note("requests_per_tenancy", kRequests);
  if (w.ops.failed > 0 || untraced.ops.failed > 0) r.correct = false;

  if (!opt.trace) {
    // The first attaches are a chain of thread hand-offs whose wake-up
    // latency on a shared host doubles under neighbours' load (the median
    // over worlds spread 0.66 over ten runs); the low decile over worlds
    // still tracks the attach's own cost.
    reportEndToEnd(r, w.ops, w.setup, quantile(w.buildHost, 0.1),
                   quantile(w.buildVirtual, 0.1));
    return;
  }
  r.attempted = w.ops.attempted + untraced.ops.attempted;
  r.failed = w.ops.failed + untraced.ops.failed;
  const double opsN = static_cast<double>(w.ops.host.size());
  reportCounters(r, counters, counters, opsN, w.poolAcquires, w.poolHits);
  reportLedger(r, ledger);
  const double attaches = std::max(1.0, w.attaches);
  r.set("server.attach_s", w.attachHost / attaches, "s", "host");
  r.set("server.attach_virtual_s", w.attachVirtual / attaches, "s", "virtual");
  r.set("server.matrix_ship_virtual_s",
        w.matrixVirtual / std::max(1.0, w.ships), "s", "virtual");
  r.set("server.share_hit_ratio",
        w.shareHits + w.shareMisses > 0
            ? w.shareHits / (w.shareHits + w.shareMisses)
            : 0.0,
        "ratio");
  double compute = 0;
  for (const double c : w.compute) compute += c;
  r.set("server.compute_virtual_s_per_op", compute / std::max(1.0, opsN), "s",
        "virtual");
  r.set("server.batch_occupancy_mean",
        w.batches > 0 ? w.batchedRequests / w.batches : 0.0, "count");
  r.set("server.queue_max_depth", w.queueMax, "count");
  r.set("server.rejected", w.rejected, "count");
  r.set("server.deferred", w.deferred, "count");
  r.set("server.client_backoffs_per_op", w.backoffs / std::max(1.0, opsN),
        "count");
  r.set("core.ownership_table_bytes",
        counters.get("build.ownership_table_bytes_total") /
            std::max(1.0, counters.get("build.count")),
        "B");
  // A fresh server's first attaches are this workload's builder calls.
  r.set("core.build_s_per_call", median(w.buildHost), "s", "host");
  r.set("core.build_virtual_s_per_call", median(w.buildVirtual), "s",
        "virtual");
  const double tracedRate = opsN / w.ops.loopSeconds;
  const double untracedRate =
      static_cast<double>(untraced.ops.host.size()) / untraced.ops.loopSeconds;
  r.set("obs.trace_overhead_frac", 1.0 - tracedRate / untracedRate, "ratio");
  mc::obs::writeChromeTrace(opt.outDir + "/TRACE_matvec_service.json", trace);
}

}  // namespace perfbench
