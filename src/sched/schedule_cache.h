// A keyed cache of communication schedules.
//
// The paper's amortization argument (Figure 15, Table 1) rests on building a
// schedule once and executing it many times.  This cache makes that pattern
// automatic: call sites ask for "the schedule for (descriptor, regions,
// method)" and get the previously built — and run-compressed — schedule
// back when nothing in the key changed.  Keys are 128-bit content digests
// (util/hash.h); values are shared_ptr-owned so cached schedules stay valid
// across eviction.  Eviction is LRU with a fixed capacity, and hit / miss /
// insertion / eviction counters are surfaced like transport::TrafficStats so
// tests and benches can assert reuse actually happened.
//
// The cache itself is a per-virtual-processor (per-thread) structure with no
// locking: in the SPMD model every rank builds and caches its own halves of
// each schedule.  Whether all ranks agree on hit-vs-miss, and hold halves of
// the same build, is the *caller's* concern: core::ScheduleCache, the one
// user, votes collectively before every lookup.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "util/error.h"
#include "util/hash.h"

namespace mc::sched {

/// Counters mirroring the shape of transport::TrafficStats.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

/// Epoch snapshot/diff, like transport::TrafficStats: the cache activity of
/// a code region is `after - before` — multi-case benches attribute hits
/// and misses to the right case without resetting the cumulative counters.
inline CacheStats operator-(const CacheStats& a, const CacheStats& b) {
  CacheStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.insertions = a.insertions - b.insertions;
  d.evictions = a.evictions - b.evictions;
  return d;
}

template <typename V>
class KeyedCache {
 public:
  using Key = HashStream::Digest;

  explicit KeyedCache(std::size_t capacity = 64) : capacity_(capacity) {
    MC_REQUIRE(capacity > 0, "cache capacity must be positive");
  }

  /// Lookup without touching the stats or the LRU order.
  std::shared_ptr<const V> peek(const Key& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second->value;
  }

  /// Lookup; counts a hit (and refreshes LRU order) or a miss.
  std::shared_ptr<const V> find(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    noteHit(key);
    return it->second->value;
  }

  /// Marks an externally confirmed hit: refreshes LRU order and counts it.
  void noteHit(const Key& key) {
    const auto it = map_.find(key);
    MC_REQUIRE(it != map_.end(), "noteHit on a key that is not cached");
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
  }

  void noteMiss() { ++stats_.misses; }

  /// Inserts (or replaces) the value under `key`, evicting the least
  /// recently used entry if the cache is full.
  void insert(const Key& key, std::shared_ptr<const V> value) {
    MC_REQUIRE(value != nullptr, "cannot cache a null schedule");
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.insertions;
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(Entry{key, std::move(value)});
    map_.emplace(key, lru_.begin());
    ++stats_.insertions;
  }

  const CacheStats& stats() const { return stats_; }
  void resetStats() { stats_ = CacheStats{}; }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Changes the capacity, evicting LRU entries down to the new bound.
  void setCapacity(std::size_t capacity) {
    MC_REQUIRE(capacity > 0, "cache capacity must be positive");
    capacity_ = capacity;
    while (map_.size() > capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  void clear() {
    map_.clear();
    lru_.clear();
  }

  /// Visits every entry from least to most recently used:
  /// fn(key, shared_ptr<const V>).  Snapshot writers dump the cache in this
  /// order so a restore that insert()s sequentially reproduces the LRU
  /// order exactly (and, over capacity, evicts the oldest entries first).
  template <typename F>
  void forEachOldestFirst(F&& fn) const {
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      fn(it->key, it->value);
    }
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const V> value;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k[0]);
    }
  };

  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash> map_;
  CacheStats stats_;
};

}  // namespace mc::sched
