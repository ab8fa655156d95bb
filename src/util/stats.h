// Small statistics accumulators used by the benchmark harness and the
// observability layer's cross-rank aggregation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mc {

/// Streaming min/max/mean/variance accumulator (Welford's algorithm).
///
/// An *empty* accumulator is explicit: mean/min/max/stddev return NaN, so a
/// missing measurement can never masquerade as a real zero in a report (the
/// JSON emitter turns the NaN into null).  Trivially copyable on purpose —
/// obs::aggregate ships RunningStats through Comm::allreduceValue.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  /// Combines another accumulator into this one (Chan et al.'s parallel
  /// variance formula): the result is equivalent — up to floating-point
  /// association — to having add()ed both sample streams into one
  /// accumulator.  Merging with an empty side is exact.
  void merge(const RunningStat& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const std::size_t n = n_ + o.n_;
    const double delta = o.mean_ - mean_;
    m2_ += o.m2_ + delta * delta *
                       (static_cast<double>(n_) * static_cast<double>(o.n_) /
                        static_cast<double>(n));
    mean_ += delta * static_cast<double>(o.n_) / static_cast<double>(n);
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
    n_ = n;
  }

  std::size_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ > 0 ? mean_ : nan(); }
  double min() const { return n_ > 0 ? min_ : nan(); }
  double max() const { return n_ > 0 ? max_ : nan(); }
  /// Sample variance (n-1 denominator); 0 for a single sample, NaN when
  /// empty.
  double variance() const {
    if (n_ == 0) return nan();
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  static double nan() { return std::numeric_limits<double>::quiet_NaN(); }

  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile accumulator: a RunningStat over the full stream plus a
/// deterministic reservoir sample for p50/p99.
///
/// Below `capacity` samples the reservoir holds the whole stream, so
/// quantile() is exact.  Past capacity it switches to Algorithm R with a
/// seeded splitmix64 generator — the same insertion order always produces
/// the same sample set, so bench output is reproducible run to run (no
/// std::random_device, no wall-clock seeding).  Like RunningStat, an empty
/// accumulator is explicit: quantile() returns NaN, which the JSON emitter
/// turns into null.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 4096,
                     std::uint64_t seed = 0x9e3779b97f4a7c15ull)
      : cap_(capacity > 0 ? capacity : 1), rng_(seed) {}

  void add(double x) {
    stat_.add(x);
    if (samples_.size() < cap_) {
      samples_.push_back(x);
      return;
    }
    // Algorithm R: keep x with probability cap/count, replacing a uniform
    // victim.  nextRandom() is splitmix64 — deterministic given the seed
    // and the number of add() calls so far.
    const std::uint64_t j = nextRandom() % static_cast<std::uint64_t>(
                                               stat_.count());
    if (j < samples_.size()) samples_[j] = x;
  }

  /// Folds another reservoir in: moments merge exactly (Chan), samples
  /// concatenate.  If the union exceeds 4x capacity it is compacted to
  /// `capacity` points by even-rank selection over the sorted union, which
  /// preserves quantiles and stays deterministic.
  void merge(const Reservoir& o) {
    stat_.merge(o.stat_);
    samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
    if (samples_.size() > 4 * cap_) {
      std::sort(samples_.begin(), samples_.end());
      std::vector<double> kept;
      kept.reserve(cap_);
      const std::size_t n = samples_.size();
      for (std::size_t i = 0; i < cap_; ++i) {
        kept.push_back(samples_[std::min((i * n + n / 2) / cap_, n - 1)]);
      }
      samples_.swap(kept);
    }
  }

  /// Nearest-rank quantile of the sampled stream, q in [0, 1]; exact while
  /// the stream fits in the reservoir.  NaN when empty.
  double quantile(double q) const {
    if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::vector<double> sorted(samples_);
    std::sort(sorted.begin(), sorted.end());
    const double clamped = std::min(1.0, std::max(0.0, q));
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(clamped * static_cast<double>(sorted.size())));
    if (rank > 0) --rank;
    return sorted[std::min(rank, sorted.size() - 1)];
  }

  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }

  std::size_t count() const { return stat_.count(); }
  /// Full-stream moments (not just the sampled subset).
  const RunningStat& stat() const { return stat_; }

 private:
  std::uint64_t nextRandom() {
    // splitmix64 (public-domain constants); mirrors util/rng.h.
    std::uint64_t z = (rng_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::size_t cap_;
  std::uint64_t rng_;
  RunningStat stat_;
  std::vector<double> samples_;
};

}  // namespace mc
