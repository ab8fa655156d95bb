// Repository benchmark runner: runs one workload for a fixed host-time
// window and prints every metric as one JSON line (prefixed PERFBENCH_JSON).
//
//   perfbench_runner --workload mesh_coupling --seed 1 --seconds 10
//                    --trace 0 [--out-dir DIR]
//
// --trace 1 runs the same workload twice inside one set-up — an untraced
// half-window, then a traced half-window with span recording on — and
// reports the per-layer metrics instead of the end-to-end ones.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "obs/span.h"

namespace perfbench {

namespace {
const auto kProcessStart = std::chrono::steady_clock::now();

/// The CPUs the process may run on, read once at start-up (before any
/// thread is pinned).
std::vector<int> allowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}
const std::vector<int> kAllowedCpus = allowedCpus();

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Layer of a span: the module prefix of a benchmark span name, the owning
/// module of a library phase span, or (for "compute") the enclosing layer.
/// Anything else counts toward the residual.
std::string layerOf(const char* name, const std::string& parentLayer) {
  const std::string n = name;
  if (n == "build") return "core";
  if (n == "pack" || n == "send" || n == "recvWait" || n == "unpack" ||
      n == "apply") {
    return "sched";
  }
  if (n == "compute") return parentLayer;
  const std::string prefix = n.substr(0, n.find('.'));
  for (const char* l : {"transport", "sched", "parti", "chaos", "core",
                        "server"}) {
    if (prefix == l) return prefix;
  }
  return "residual";
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double hostNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

void useHostSpanClock() {
  mc::obs::threadRegistry().setVirtualClock([] { return hostNow(); });
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void pinThread(int slot) {
  if (kAllowedCpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(kAllowedCpus[static_cast<std::size_t>(slot) % kAllowedCpus.size()],
          &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

double tailPercentile(std::size_t samples) {
  // Standard percentiles, highest first; the first with ten samples beyond
  // it wins.  The cap at p90 keeps the percentile (and so the metric) the
  // same from run to run; beyond p90 the host latencies of millisecond ops
  // on a shared virtual machine measure the hypervisor's scheduling more
  // than the code.
  for (const double p : {90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

void Results::set(const std::string& name, double value,
                  const std::string& unit, const std::string& clock) {
  metrics_[name] = Metric{value, unit, clock};
}

void Results::note(const std::string& key, double value) {
  notes_[key] = jsonNumber(value);
}

std::string Results::toJson(const Options& opt) const {
  std::string s = "{\"workload\": " + jsonString(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"trace\": " + (opt.trace ? "1" : "0") +
                  ", \"correct\": " + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) s += ", ";
    first = false;
    s += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
         ", \"unit\": " + jsonString(m.unit) +
         ", \"clock\": " + jsonString(m.clock) + "}";
  }
  s += "}, \"notes\": {";
  first = true;
  for (const auto& [key, v] : notes_) {
    if (!first) s += ", ";
    first = false;
    s += jsonString(key) + ": " + v;
  }
  return s + "}}";
}

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// The host-clock op statistics are medians over this many windows.
constexpr std::size_t kWindows = 10;

/// Splits `v` (samples in the order the ops ran) into `windows` runs of
/// consecutive samples of near-equal size and returns the median over the
/// windows of `stat(window)`.
template <typename Stat>
double overWindows(const std::vector<double>& v, std::size_t windows,
                   Stat&& stat) {
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto lo = static_cast<std::ptrdiff_t>(v.size() * w / windows);
    const auto hi = static_cast<std::ptrdiff_t>(v.size() * (w + 1) / windows);
    per.push_back(stat(std::vector<double>(v.begin() + lo, v.begin() + hi)));
  }
  return median(std::move(per));
}

}  // namespace

void reportEndToEnd(Results& r, const OpSamples& ops,
                    const std::vector<double>& setupSeconds,
                    double buildSeconds, double buildVirtualSeconds) {
  // A burst of load from the host's other tenants slows every op for a
  // second or two.  It moves the windows it falls in; the median over the
  // windows ignores it unless the bursts cover about half the run.
  const std::size_t windows =
      std::clamp<std::size_t>(ops.host.size(), 1, kWindows);
  const double p = tailPercentile(ops.host.size() / windows);
  const auto p50 = [](std::vector<double> w) { return median(std::move(w)); };
  const auto tail = [p](std::vector<double> w) {
    return quantile(std::move(w), p / 100.0);
  };
  const auto rate = [](std::vector<double> slots) {
    double sum = 0;
    for (const double s : slots) sum += s;
    return sum > 0 ? static_cast<double>(slots.size()) / sum : 0.0;
  };
  r.set("setup_s", median(setupSeconds), "s", "host");
  r.set("build_s", buildSeconds, "s", "host");
  r.set("build_virtual_s", buildVirtualSeconds, "s", "virtual");
  r.set("op_p50_ms", 1e3 * overWindows(ops.host, windows, p50), "ms", "host");
  r.set("op_tail_ms", 1e3 * overWindows(ops.host, windows, tail), "ms",
        "host");
  r.set("ops_per_s", overWindows(ops.slot, windows, rate), "1/s", "host");
  // The virtual clock does not see the host's load, so its statistics pool
  // the whole run (the tail then rests on ten times the samples).
  r.set("op_virtual_p50_ms", 1e3 * median(ops.virt), "ms", "virtual");
  r.set("op_virtual_tail_ms",
        1e3 * quantile(ops.virt, tailPercentile(ops.virt.size()) / 100.0),
        "ms", "virtual");
  // Reported as the completed share (1 - failed_frac) so the metric is
  // never zero; the failed count itself is in the result's "failed".
  r.set("completed_frac",
        ops.attempted > 0 ? static_cast<double>(ops.attempted - ops.failed) /
                                static_cast<double>(ops.attempted)
                          : 0.0,
        "ratio");
  r.set("peak_rss_mib", peakRssMiB(), "MiB");
  r.note("op_samples", static_cast<double>(ops.host.size()));
  r.note("op_windows", static_cast<double>(windows));
  r.note("op_tail_percentile", p);
  r.note("op_virtual_tail_percentile", tailPercentile(ops.virt.size()));
  r.note("setup_repetitions", static_cast<double>(setupSeconds.size()));
  r.attempted = ops.attempted;
  r.failed = ops.failed;
}

void CounterSum::add(const mc::obs::Snapshot& delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [k, v] : delta.values) sum_[k] += v;
}

double CounterSum::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sum_.find(name);
  return it == sum_.end() ? 0.0 : it->second;
}

void Ledger::addRank(const std::vector<mc::obs::SpanRecord>& spans) {
  struct Open {
    const mc::obs::SpanRecord* rec;
    std::string layer;
    bool inOp;  // this span is an op or lies inside one
    double childSeconds;
  };
  std::map<std::string, double> self, inclusive, layer;
  double opSeconds = 0;
  long long opSpans = 0;
  std::vector<Open> stack;
  const auto close = [&](const Open& o) {
    const double dur = o.rec->virtualSeconds();
    if (!o.inOp) return;
    const double own = dur - o.childSeconds;
    self[o.rec->name] += own;
    inclusive[o.rec->name] += dur;
    layer[o.layer] += own;
    if (std::strcmp(o.rec->name, span::kOp) == 0) {
      opSeconds += dur;
      ++opSpans;
    }
  };
  for (const mc::obs::SpanRecord& rec : spans) {
    while (static_cast<int>(stack.size()) > rec.depth) {
      close(stack.back());
      stack.pop_back();
    }
    const Open* parent = stack.empty() ? nullptr : &stack.back();
    if (parent != nullptr) stack.back().childSeconds += rec.virtualSeconds();
    const bool isOp = std::strcmp(rec.name, span::kOp) == 0;
    stack.push_back(Open{&rec,
                         layerOf(rec.name, parent ? parent->layer : "residual"),
                         isOp || (parent && parent->inOp), 0.0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [k, v] : self) self_[k] += v;
  for (const auto& [k, v] : inclusive) inclusive_[k] += v;
  for (const auto& [k, v] : layer) layer_[k] += v;
  opSeconds_ += opSeconds;
  opSpans_ += opSpans;
}

double Ledger::opSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return opSeconds_;
}

std::map<std::string, double> Ledger::layerSelf() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return layer_;
}

double Ledger::selfOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = self_.find(name);
  return it == self_.end() ? 0.0 : it->second;
}

double Ledger::inclusiveOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = inclusive_.find(name);
  return it == inclusive_.end() ? 0.0 : it->second;
}

long long Ledger::opSpans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return opSpans_;
}

void reportLedger(Results& r, const Ledger& ledger) {
  // Times are per rank per op: totals over every op span divided by the
  // number of op spans.
  const double n = static_cast<double>(std::max<long long>(1, ledger.opSpans()));
  const auto layers = ledger.layerSelf();
  const auto layerPerOp = [&](const char* l) {
    const auto it = layers.find(l);
    return it == layers.end() ? 0.0 : it->second / n;
  };
  const double opPerOp = ledger.opSeconds() / n;
  r.set("obs.op_s_per_op", opPerOp, "s", "host");
  r.set("obs.residual_s_per_op", layerPerOp("residual"), "s", "host");
  r.set("obs.residual_frac",
        opPerOp > 0 ? layerPerOp("residual") / opPerOp : 0.0, "ratio");
  r.set("transport.self_s_per_op", layerPerOp("transport"), "s", "host");
  r.set("sched.exec_s_per_op", layerPerOp("sched"), "s", "host");
  r.set("parti.self_s_per_op", layerPerOp("parti"), "s", "host");
  r.set("chaos.self_s_per_op", layerPerOp("chaos"), "s", "host");
  r.set("core.self_s_per_op", layerPerOp("core"), "s", "host");
  r.set("server.self_s_per_op", layerPerOp("server"), "s", "host");
  double sum = 0;
  for (const auto& [l, v] : layers) sum += v / n;
  r.note("ledger_layers_plus_residual_minus_op_s", sum - opPerOp);
  r.note("ledger_op_spans", static_cast<double>(ledger.opSpans()));

  r.set("sched.pack_self_s_per_op", ledger.selfOf("pack") / n, "s", "host");
  r.set("sched.send_self_s_per_op", ledger.selfOf("send") / n, "s", "host");
  r.set("sched.recv_wait_self_s_per_op", ledger.selfOf("recvWait") / n, "s",
        "host");
  r.set("sched.unpack_self_s_per_op", ledger.selfOf("unpack") / n, "s",
        "host");
  r.set("sched.apply_self_s_per_op", ledger.selfOf("apply") / n, "s", "host");
  r.set("sched.rebind_s_per_op", ledger.inclusiveOf(span::kRebind) / n, "s",
        "host");
  r.set("parti.sweep_s_per_op", ledger.inclusiveOf(span::kStencil) / n, "s",
        "host");
  r.set("chaos.edge_sweep_s_per_op", ledger.inclusiveOf(span::kEdgeSweep) / n,
        "s", "host");
  r.set("chaos.repartition_s_per_op",
        ledger.inclusiveOf(span::kRepartition) / n, "s", "host");
  r.set("core.sched_cache.lookup_s_per_op",
        ledger.selfOf(span::kCacheLookup) / n, "s", "host");
}

void reportCounters(Results& r, const CounterSum& c, const CounterSum& all,
                    double ops, double poolAcquires, double poolHits) {
  const double n = std::max(1.0, ops);
  r.set("transport.messages_per_op", c.get("transport.messages_sent") / n,
        "count");
  r.set("transport.bytes_per_op", c.get("transport.bytes_sent") / n, "B");
  r.set("transport.bytes_copied_per_op", c.get("transport.bytes_copied") / n,
        "B");
  r.set("transport.allocations_per_op", c.get("transport.allocations") / n,
        "count");
  r.set("transport.pool_hit_ratio",
        poolAcquires > 0 ? poolHits / poolAcquires : 0.0, "ratio");
  r.set("transport.recv_wait_s_per_op",
        c.get("transport.recv_wait_seconds") / n, "s", "host");
  r.set("transport.inter_node_messages_per_op",
        c.get("transport.inter_node.messages") / n, "count");
  r.set("sched.kernel_exec.contiguous_per_op",
        c.get("kernel.exec.contiguous") / n, "count");
  r.set("sched.kernel_exec.strided_per_op", c.get("kernel.exec.strided") / n,
        "count");
  r.set("sched.kernel_exec.run_list_per_op", c.get("kernel.exec.run_list") / n,
        "count");
  r.set("sched.kernel_exec.index_list_per_op",
        c.get("kernel.exec.index_list") / n, "count");
  r.set("core.builds_per_op", c.get("build.count") / n, "count");
  r.set("core.patch_elements_per_op", c.get("build.patch_elements_total") / n,
        "count");
  const double dHits = all.get("localize.deref_cache.hits");
  const double dMisses = all.get("localize.deref_cache.misses");
  r.set("chaos.deref_cache.hit_ratio",
        dHits + dMisses > 0 ? dHits / (dHits + dMisses) : 0.0, "ratio");
  r.set("chaos.deref_cache.invalidations_per_op",
        c.get("localize.deref_cache.invalidations") / n, "count");
  r.set("chaos.deref_cache.retargets_per_op",
        c.get("localize.deref_cache.retargets") / n, "count");
  const double cHits = all.get("core.sched_cache.hits");
  const double cMisses = all.get("core.sched_cache.misses");
  r.set("core.sched_cache.hit_ratio",
        cHits + cMisses > 0 ? cHits / (cHits + cMisses) : 0.0, "ratio");
  r.set("core.sched_cache.evictions", all.get("core.sched_cache.evictions"),
        "count");
}

void zeroPerLayer(Results& r) {
  static const char* const kTimes[] = {
      "transport.recv_wait_s_per_op", "transport.self_s_per_op",
      "sched.exec_s_per_op", "sched.pack_self_s_per_op",
      "sched.send_self_s_per_op", "sched.recv_wait_self_s_per_op",
      "sched.unpack_self_s_per_op", "sched.apply_self_s_per_op",
      "sched.rebind_s_per_op", "parti.sweep_s_per_op", "parti.self_s_per_op",
      "core.build_s_per_call", "core.self_s_per_op",
      "core.sched_cache.lookup_s_per_op", "chaos.ttable_build_s",
      "chaos.edge_sweep_s_per_op", "chaos.repartition_s_per_op",
      "chaos.self_s_per_op", "server.attach_s", "server.self_s_per_op",
      "obs.op_s_per_op", "obs.residual_s_per_op"};
  for (const char* m : kTimes) r.set(m, 0.0, "s", "host");
  static const char* const kVirtual[] = {
      "core.build_virtual_s_per_call", "server.attach_virtual_s",
      "server.matrix_ship_virtual_s", "server.compute_virtual_s_per_op"};
  for (const char* m : kVirtual) r.set(m, 0.0, "s", "virtual");
  static const char* const kCounts[] = {
      "transport.messages_per_op", "transport.allocations_per_op",
      "transport.inter_node_messages_per_op",
      "sched.kernel_exec.contiguous_per_op",
      "sched.kernel_exec.strided_per_op", "sched.kernel_exec.run_list_per_op",
      "sched.kernel_exec.index_list_per_op", "core.builds_per_op",
      "core.patch_elements_per_op", "core.sched_cache.evictions",
      "chaos.deref_cache.invalidations_per_op",
      "chaos.deref_cache.retargets_per_op", "server.batch_occupancy_mean",
      "server.queue_max_depth", "server.rejected", "server.deferred",
      "server.client_backoffs_per_op"};
  for (const char* m : kCounts) r.set(m, 0.0, "count");
  static const char* const kBytes[] = {"transport.bytes_per_op",
                                       "transport.bytes_copied_per_op",
                                       "core.ownership_table_bytes"};
  for (const char* m : kBytes) r.set(m, 0.0, "B");
  static const char* const kRatios[] = {
      "transport.pool_hit_ratio", "core.sched_cache.hit_ratio",
      "core.sched_cache.patch_ratio", "chaos.migration_fraction",
      "chaos.deref_cache.hit_ratio", "server.share_hit_ratio",
      "obs.trace_overhead_frac", "obs.residual_frac",
      "scaling.mesh_coupling_efficiency"};
  for (const char* m : kRatios) r.set(m, 0.0, "ratio");
}

void spanBarrier(mc::transport::Comm& comm) {
  mc::obs::ScopedSpan s(span::kBarrier);
  comm.barrier();
}

}  // namespace perfbench

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_runner --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold (up to 32 MiB, trim threshold twice
  // that) when a mapped block is freed, so a long-running process soon
  // serves multi-MiB buffers from the heap.  When the raise happened
  // hinged on the order the rank threads freed their blocks, so whether a
  // world's buffers were reused or mapped and page-faulted afresh changed
  // from run to run, and with it the matvec attach time and the peak RSS.
  // Starting at the raised values makes every run the long-running case.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--out-dir") {
      opt.outDir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.seconds <= 0) return usage("--seconds must be positive");
  perfbench::Results results;
  if (opt.trace) perfbench::zeroPerLayer(results);
  try {
    if (opt.workload == "mesh_coupling") {
      perfbench::runMeshCoupling(opt, results);
    } else if (opt.workload == "adaptive_remap") {
      perfbench::runAdaptiveRemap(opt, results);
    } else if (opt.workload == "matvec_service") {
      perfbench::runMatvecService(opt, results);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  std::printf("PERFBENCH_JSON %s\n", results.toJson(opt).c_str());
  return 0;
}
