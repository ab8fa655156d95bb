// Shared machinery of the repository benchmark runner: options, the host
// clock, sample statistics, the result sink, obs counter sums, and the
// span ledger that turns a traced run into per-layer self times.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "transport/comm.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string outDir = ".";  // Chrome trace destination (traced runs)
};

/// Host wall clock (monotonic), seconds since the runner started.
double hostNow();

/// Every rank of a traced world calls this once after its Comm exists: the
/// rank's span clock becomes the host wall clock, so the benchmark's own
/// spans and the libraries' phase spans nest on one clock and a span's
/// self time is host time.
void useHostSpanClock();

/// Pins the calling thread to one of the process's CPUs (slot modulo their
/// count).  Each world gives its threads distinct slots, so no two ranks
/// share a CPU and the kernel does not migrate them between ops.
void pinThread(int slot);

double median(std::vector<double> v);
/// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// The highest of p90, p75 and p50 with at least ten of `samples` beyond
/// it (p50 when even that has fewer), in [0, 100].
double tailPercentile(std::size_t samples);

struct Metric {
  double value = 0;
  std::string unit;
  std::string clock;  // "host", "virtual" or "-" (counts, ratios)
};

/// Everything one runner invocation reports; rendered as one JSON line.
class Results {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& clock = "-");
  void note(const std::string& key, double value);
  std::string toJson(const Options& opt) const;

  long long attempted = 0;
  long long failed = 0;
  bool correct = true;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
};

/// Host and virtual op samples of the measured loop, as seen by the rank
/// (or client) that times ops.
struct OpSamples {
  std::vector<double> host;     // seconds
  std::vector<double> virt;     // seconds, virtual clock
  std::vector<double> slot;     // host seconds of the loop each op took up
  double loopSeconds = 0;       // host wall time of the measured loop
  long long attempted = 0;
  long long failed = 0;
};

/// The end-to-end metrics shared by every workload.  The host-clock op
/// statistics (p50, tail, rate) are medians over ten windows of
/// consecutive ops, so a burst of the shared host's load that slows a
/// second or two of the run does not move them.
void reportEndToEnd(Results& r, const OpSamples& ops,
                    const std::vector<double>& setupSeconds,
                    double buildSeconds, double buildVirtualSeconds);

/// Peak resident set (ru_maxrss) in MiB.
double peakRssMiB();

/// Sums obs counter deltas over ranks (thread safe).
class CounterSum {
 public:
  void add(const mc::obs::Snapshot& delta);
  double get(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> sum_;
};

/// Per-layer self-time ledger over recorded spans (thread safe).  Spans
/// named "op" delimit ops; a span's self time is its duration minus its
/// direct children's durations, so within an op the self times of all
/// spans add up exactly to the op's duration.  The op span's own self time
/// is the residual: op time no layer span covers.
class Ledger {
 public:
  /// Folds one rank's spans (all closed) into the ledger.
  void addRank(const std::vector<mc::obs::SpanRecord>& spans);

  /// Sum over ranks of op-span durations.
  double opSeconds() const;
  /// Self seconds inside ops by layer ("parti", "chaos", "sched", ...),
  /// plus "residual".
  std::map<std::string, double> layerSelf() const;
  /// Self seconds inside ops of spans with this name.
  double selfOf(const std::string& name) const;
  /// Inclusive seconds inside ops of spans with this name.
  double inclusiveOf(const std::string& name) const;
  long long opSpans() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> self_;       // by span name, inside ops
  std::map<std::string, double> inclusive_;  // by span name, inside ops
  std::map<std::string, double> layer_;      // by layer, inside ops
  double opSeconds_ = 0;
  long long opSpans_ = 0;
};

/// Reports the ledger-derived per-layer metrics every workload shares:
/// layer self times per op, the residual, and the executor phase times.
void reportLedger(Results& r, const Ledger& ledger);

/// Reports the transport, kernel and cache counters every workload shares:
/// per-op counts from the measured loop, hit ratios over build and loop.
void reportCounters(Results& r, const CounterSum& loop, const CounterSum& all,
                    double ops, double poolAcquires, double poolHits);

/// Sets every per-layer metric to 0 first, so a workload that does not
/// exercise a layer still reports it (as zero) and the set of names is the
/// same for every workload.
void zeroPerLayer(Results& r);

/// Span names the ledger and the trace file agree on.  The benchmark opens
/// these around its calls into each layer; "build", "pack", "send",
/// "recvWait", "unpack", "apply" and "compute" come from the libraries.
namespace span {
inline constexpr const char* kOp = "op";
inline constexpr const char* kBarrier = "transport.barrier";
inline constexpr const char* kStencil = "parti.sweep";
inline constexpr const char* kEdgeSweep = "chaos.edge_sweep";
inline constexpr const char* kRepartition = "chaos.repartition";
inline constexpr const char* kTtableBuild = "chaos.ttable_build";
inline constexpr const char* kDataMove = "sched.data_move";
inline constexpr const char* kExecRun = "sched.run";
inline constexpr const char* kRebind = "sched.rebind";
inline constexpr const char* kCacheLookup = "core.sched_cache";
inline constexpr const char* kRedistMove = "core.redist_move";
inline constexpr const char* kRequest = "server.request";
}  // namespace span

/// Spans kept per rank for the Chrome trace file (the ledger sees all).
inline constexpr std::size_t kTraceSpansPerRank = 4000;

/// Barrier wrapped in a transport span (the wait for the slowest rank).
void spanBarrier(mc::transport::Comm& comm);

/// The measured loop of a one-program workload.  Rank 0 decides when the
/// host-time window is over; every op is barrier-delimited, so rank 0's op
/// time is the maximum over ranks.  `op()` runs one op; `check()` runs
/// after it, outside the op's timing and outside the loop time, and returns
/// whether the op's outputs were correct (collective, same on every rank).
template <typename Op, typename Check>
void timedOps(mc::transport::Comm& comm, double seconds, OpSamples& out,
              Op&& op, Check&& check) {
  comm.barrier();
  const double start = hostNow();
  double excluded = 0;
  double resumed = start;  // the loop's clock restarts after each check
  while (comm.bcastValue<int>(hostNow() < start + seconds ? 1 : 0, 0) != 0) {
    comm.barrier();
    mc::obs::ScopedSpan opSpan(span::kOp);
    const double h0 = hostNow();
    const double v0 = comm.now();
    op();
    spanBarrier(comm);
    const double h1 = hostNow();
    const double v1 = comm.now();
    opSpan.end();
    const bool ok = check();
    excluded += hostNow() - h1;
    if (comm.rank() == 0) {
      out.host.push_back(h1 - h0);
      out.virt.push_back(v1 - v0);
      out.slot.push_back(h1 - resumed);
      out.attempted += 1;
      out.failed += ok ? 0 : 1;
    }
    resumed = hostNow();
  }
  if (comm.rank() == 0) out.loopSeconds += hostNow() - start - excluded;
}

/// Per-rank obs counter epoch: the counters' change since construction.
class CounterEpoch {
 public:
  CounterEpoch() : before_(mc::obs::threadRegistry().snapshot()) {}
  mc::obs::Snapshot delta() const {
    return mc::obs::threadRegistry().snapshot() - before_;
  }

 private:
  mc::obs::Snapshot before_;
};

/// Workload entry points.
void runMeshCoupling(const Options& opt, Results& r);
void runAdaptiveRemap(const Options& opt, Results& r);
void runMatvecService(const Options& opt, Results& r);

}  // namespace perfbench
