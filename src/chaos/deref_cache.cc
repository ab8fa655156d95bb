#include "chaos/deref_cache.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"
#include "util/radix_sort.h"

namespace mc::chaos {

using layout::Index;

namespace {

thread_local DerefCacheStats g_stats;

/// Dense batches: marks each global in a bitmap over [lo, lo + 64·words),
/// reads `uniq` off the set bits in order, and ranks each query by the set
/// bits below it.  O(batch + words).
SortedBatch bitmapUnique(std::span<const Index> globals, Index lo,
                         std::size_t words) {
  std::vector<std::uint64_t> bits(words, 0);
  for (const Index g : globals) {
    const auto d = static_cast<std::uint64_t>(g - lo);
    bits[d >> 6] |= std::uint64_t{1} << (d & 63);
  }
  std::vector<std::uint32_t> below(words);  // distinct globals before word w
  std::uint32_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    below[w] = count;
    count += static_cast<std::uint32_t>(std::popcount(bits[w]));
  }
  SortedBatch out;
  out.uniq.reserve(count);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t x = bits[w]; x != 0; x &= x - 1) {
      out.uniq.push_back(lo + static_cast<Index>(64 * w) +
                         std::countr_zero(x));
    }
  }
  out.uniqOf.resize(globals.size());
  for (std::size_t i = 0; i < globals.size(); ++i) {
    const auto d = static_cast<std::uint64_t>(globals[i] - lo);
    const std::uint64_t lower = (std::uint64_t{1} << (d & 63)) - 1;
    out.uniqOf[i] = below[d >> 6] + static_cast<std::uint32_t>(
                                        std::popcount(bits[d >> 6] & lower));
  }
  return out;
}

/// Sparse batches: radix-sorts the (global, position) pairs, O(batch) for
/// any key span.
SortedBatch radixUnique(std::span<const Index> globals) {
  struct Query {
    Index global;
    std::uint32_t pos;
  };
  std::vector<Query> order(globals.size());
  for (std::size_t i = 0; i < globals.size(); ++i) {
    order[i] = Query{globals[i], static_cast<std::uint32_t>(i)};
  }
  radixSort(order, [](const Query& q) { return q.global; });
  SortedBatch out;
  out.uniqOf.resize(order.size());
  out.uniq.reserve(order.size());
  for (const Query& q : order) {
    if (out.uniq.empty() || out.uniq.back() != q.global) {
      out.uniq.push_back(q.global);
    }
    out.uniqOf[q.pos] = static_cast<std::uint32_t>(out.uniq.size() - 1);
  }
  return out;
}

}  // namespace

const DerefCacheStats& derefCacheStats() { return g_stats; }

SortedBatch sortUnique(std::span<const Index> globals, Index globalSize) {
  if (globals.empty()) return {};
  Index lo = globals.front();
  Index hi = lo;
  for (const Index g : globals) {
    MC_REQUIRE(g >= 0 && g < globalSize, "global index %lld out of range",
               static_cast<long long>(g));
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  // A bitmap over [lo, hi] pays one pass over its words; it is taken when
  // that is no more than the batch.  Past that the radix sort, whose cost
  // does not grow with the span, is the cheaper of the two.
  const std::size_t words = static_cast<std::size_t>((hi - lo) / 64) + 1;
  return words <= globals.size() ? bitmapUnique(globals, lo, words)
                                 : radixUnique(globals);
}

DerefCache& derefCache() {
  thread_local DerefCache cache;
  return cache;
}

void ensureLocalizeMetrics() {
  obs::MetricsRegistry& reg = obs::threadRegistry();
  if (reg.has("localize.deref_cache.hits")) return;
  // Samplers read only the thread_local POD — safe regardless of the
  // destruction order of the registry and the cache object.
  reg.registerCounter("localize.deref_cache.hits",
                      [] { return static_cast<double>(g_stats.hits); });
  reg.registerCounter("localize.deref_cache.misses",
                      [] { return static_cast<double>(g_stats.misses); });
  reg.registerCounter("localize.deref_cache.insertions",
                      [] { return static_cast<double>(g_stats.insertions); });
  reg.registerCounter("localize.deref_cache.invalidations", [] {
    return static_cast<double>(g_stats.invalidations);
  });
  reg.registerCounter("localize.deref_cache.evictions",
                      [] { return static_cast<double>(g_stats.evictions); });
  reg.registerCounter("localize.deref_cache.entries",
                      [] { return static_cast<double>(g_stats.entries); });
  reg.registerCounter("localize.deref_cache.retargets",
                      [] { return static_cast<double>(g_stats.retargets); });
  reg.registerCounter("localize.deref_cache.retarget_dropped", [] {
    return static_cast<double>(g_stats.retargetDropped);
  });
}

DerefCache::Shard* DerefCache::findShard(std::uint64_t uid) {
  for (Shard& s : shards_) {
    if (s.uid == uid) return &s;
  }
  return nullptr;
}

std::size_t DerefCache::lookupSorted(std::uint64_t uid,
                                     std::span<const Index> sortedGlobals,
                                     ElementLoc* out, std::uint8_t* hit) {
  const Shard* shard = findShard(uid);
  if (shard == nullptr || shard->keys.empty()) {
    std::fill(hit, hit + sortedGlobals.size(), std::uint8_t{0});
    g_stats.misses += sortedGlobals.size();
    return 0;
  }
  std::size_t found = 0;
  // Queries ascend, so each binary search narrows the next one's range.
  auto from = shard->keys.begin();
  for (std::size_t i = 0; i < sortedGlobals.size(); ++i) {
    const Index g = sortedGlobals[i];
    from = std::lower_bound(from, shard->keys.end(), g);
    if (from != shard->keys.end() && *from == g) {
      out[i] = shard->locs[static_cast<std::size_t>(
          from - shard->keys.begin())];
      hit[i] = 1;
      ++found;
    } else {
      hit[i] = 0;
    }
  }
  g_stats.hits += found;
  g_stats.misses += sortedGlobals.size() - found;
  return found;
}

void DerefCache::insertSorted(std::uint64_t uid,
                              std::span<const Index> globals,
                              std::span<const ElementLoc> locs) {
  MC_CHECK(globals.size() == locs.size());
  if (globals.empty()) return;
  // Make room under the cap by dropping whole shards, oldest table first
  // (the incoming shard last — a batch larger than the cap still caches).
  while (total_ + globals.size() > kMaxEntries && !shards_.empty()) {
    const bool self = shards_.front().uid == uid;
    const std::size_t dropped = shards_.front().keys.size();
    shards_.erase(shards_.begin());
    total_ -= dropped;
    g_stats.evictions += dropped;
    g_stats.entries = total_;
    if (self) break;  // evicted our own history; start the shard fresh
  }
  Shard* shard = findShard(uid);
  if (shard == nullptr) {
    shards_.push_back(Shard{uid, {}, {}});
    shard = &shards_.back();
  }
  if (shard->keys.empty()) {
    shard->keys.assign(globals.begin(), globals.end());
    shard->locs.assign(locs.begin(), locs.end());
  } else {
    // Linear merge of two sorted, disjoint runs.
    std::vector<Index> keys;
    std::vector<ElementLoc> merged;
    keys.reserve(shard->keys.size() + globals.size());
    merged.reserve(keys.capacity());
    std::size_t a = 0, b = 0;
    while (a < shard->keys.size() || b < globals.size()) {
      if (b == globals.size() ||
          (a < shard->keys.size() && shard->keys[a] < globals[b])) {
        keys.push_back(shard->keys[a]);
        merged.push_back(shard->locs[a]);
        ++a;
      } else {
        keys.push_back(globals[b]);
        merged.push_back(locs[b]);
        ++b;
      }
    }
    shard->keys = std::move(keys);
    shard->locs = std::move(merged);
  }
  total_ += globals.size();
  g_stats.insertions += globals.size();
  g_stats.entries = total_;
}

bool DerefCache::retarget(std::uint64_t oldUid, std::uint64_t newUid,
                          std::span<const Index> sortedMigrated) {
  if (oldUid == newUid) return false;
  // A shard already keyed by the new uid would alias the rekeyed one.
  // Cannot happen in practice (uids are minted at table build, before any
  // lookup), but drop it defensively.
  invalidate(newUid);
  Shard* shard = findShard(oldUid);
  if (shard == nullptr) return false;
  const std::size_t before = shard->keys.size();
  // In-place two-pointer filter: both the shard keys and the migrated list
  // ascend.
  std::size_t w = 0;
  std::size_t m = 0;
  for (std::size_t r = 0; r < shard->keys.size(); ++r) {
    const Index g = shard->keys[r];
    while (m < sortedMigrated.size() && sortedMigrated[m] < g) ++m;
    if (m < sortedMigrated.size() && sortedMigrated[m] == g) continue;
    shard->keys[w] = g;
    shard->locs[w] = shard->locs[r];
    ++w;
  }
  shard->keys.resize(w);
  shard->locs.resize(w);
  shard->uid = newUid;
  total_ -= before - w;
  // The old table's shard is gone (rekeyed), which is what invalidations
  // has always counted; retargets/retargetDropped record the carry-over.
  ++g_stats.invalidations;
  ++g_stats.retargets;
  g_stats.retargetDropped += before - w;
  g_stats.entries = total_;
  return true;
}

bool DerefCache::invalidate(std::uint64_t uid) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].uid != uid) continue;
    total_ -= shards_[i].keys.size();
    shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(i));
    ++g_stats.invalidations;
    g_stats.entries = total_;
    return true;
  }
  return false;
}

void DerefCache::clear() {
  shards_.clear();
  total_ = 0;
  g_stats.entries = 0;
}

}  // namespace mc::chaos
