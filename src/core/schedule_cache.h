// The Meta-Chaos schedule cache — the one schedule cache of the system.
//
// Wraps the computeSchedule* builders behind a content-addressed cache: the
// key is a 128-bit digest of (source library + descriptor fingerprint,
// source regions, destination library + descriptor fingerprint, destination
// regions, build method, program topology).  A hit returns the previously
// built schedule — already run-compressed — without touching the library
// dereference machinery at all, which is what turns the paper's
// build-once/execute-many amortization into the default behaviour of every
// call site.
//
// Correctness of a *collective* build demands that all participating
// processors agree on hit-vs-miss: if one rank rebuilt while another used
// its cached copy, the build's collective communication would deadlock.
// Descriptor fingerprints are local (each rank hashes the state it holds —
// a distributed translation table hashes only its own shard), so one
// rank's key can stay the same while another's changes, and a rank's entry
// may then come from a different build than its neighbours'.  Every lookup
// therefore votes once over the program (and, for inter-program schedules,
// across both programs) on two things: the configuration's *identity* — a
// rank-salted, order-independent sum of every participant's key — and
// whether every participant holds an entry built for that identity.  The
// vote rides the messages a plain hit bit would (an allreduce, plus a
// rank-0 exchange and a bcast across programs); a rank whose neighbours
// missed simply rebuilds with them, counting a miss.
//
// The cache is per virtual processor (each rank caches its own schedule
// halves); defaultScheduleCache() hands every rank its own instance, the
// way the MC_* API keeps per-rank handle tables.  Each instance is an LRU
// of at most capacity() entries, every entry reachable by exactly one key;
// cached schedules are shared_ptr-owned, so a schedule a caller holds stays
// valid after its entry is evicted.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/schedule_builder.h"
#include "util/hash.h"

namespace mc::core {

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

class ScheduleCache {
 public:
  /// Keeps at most `capacity` schedules (see DESIGN.md §8 for the default).
  explicit ScheduleCache(std::size_t capacity = 32);

  /// Cached computeSchedule (intra-program).  Collective over the program.
  std::shared_ptr<const McSchedule> getOrBuild(
      transport::Comm& comm, const DistObject& srcObj,
      const SetOfRegions& srcSet, const DistObject& dstObj,
      const SetOfRegions& dstSet, Method method = Method::kCooperation);

  /// Cached computeScheduleSend / computeScheduleRecv (inter-program
  /// halves).  Collective over both programs; the two sides must pair their
  /// calls, exactly like the uncached builders.
  std::shared_ptr<const McSchedule> getOrBuildSend(
      transport::Comm& comm, const DistObject& srcObj,
      const SetOfRegions& srcSet, int remoteProgram,
      Method method = Method::kCooperation) {
    return getOrBuildHalf(comm, remoteProgram, /*sender=*/true, srcObj,
                          srcSet, method);
  }
  std::shared_ptr<const McSchedule> getOrBuildRecv(
      transport::Comm& comm, const DistObject& dstObj,
      const SetOfRegions& dstSet, int remoteProgram,
      Method method = Method::kCooperation) {
    return getOrBuildHalf(comm, remoteProgram, /*sender=*/false, dstObj,
                          dstSet, method);
  }

  /// Cached schedule across a repartitioning.  Looks up the new
  /// distributions' key, which hits only when every rank's entry was built
  /// for the new distributions.  On miss, patches the cached old schedule
  /// against `delta` instead of rebuilding from scratch when every rank
  /// holds a patchable copy built for the old distributions, else falls
  /// back to a full collective build.  The result is inserted under the new
  /// distributions' key.  Collective over the program.
  std::shared_ptr<const McSchedule> getOrPatch(
      transport::Comm& comm, const DistObject& oldSrcObj,
      const DistObject& newSrcObj, const SetOfRegions& srcSet,
      const DistObject& oldDstObj, const DistObject& newDstObj,
      const SetOfRegions& dstSet, const layout::DistDelta& delta,
      Method method = Method::kCooperation);

  /// Snapshot hooks (snapshot/snapshot.cc): visit every entry oldest-first
  /// as fn(key, identity, schedule) (so a restore that insertEntry()s
  /// sequentially reproduces the LRU order and, over capacity, evicts the
  /// oldest entries first), and insert a restored entry under its saved key
  /// and build identity.  Restored insertions count as insertions, not
  /// hits — the hit counters keep meaning "a build was avoided *during this
  /// run*".
  template <typename F>
  void forEachEntryOldestFirst(F&& fn) const {
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      fn(it->key, it->entry->identity, it->entry->schedule);
    }
  }
  void insertEntry(const HashStream::Digest& key,
                   const HashStream::Digest& identity, McSchedule schedule);

  const CacheStats& stats() const { return stats_; }
  /// Repartitionings served by patchSchedule vs. by a full rebuild.
  std::uint64_t patches() const { return patches_; }
  std::uint64_t patchFallbacks() const { return patchFallbacks_; }
  void resetStats() { stats_ = CacheStats{}; }
  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Changes the capacity, evicting least recently used entries down to it.
  void setCapacity(std::size_t capacity);
  void clear() {
    map_.clear();
    lru_.clear();
  }

 private:
  using Key = HashStream::Digest;
  /// A cached schedule and the identity of the configuration it was built
  /// for (see the file comment).
  struct Entry {
    Key identity;
    McSchedule schedule;
  };
  /// One LRU position: the entry's only key, and the entry.
  struct Slot {
    Key key;
    std::shared_ptr<const Entry> entry;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k[0]);
    }
  };

  /// The two inter-program halves: one key builder, one build.
  std::shared_ptr<const McSchedule> getOrBuildHalf(
      transport::Comm& comm, int remoteProgram, bool sender,
      const DistObject& obj, const SetOfRegions& set, Method method);

  /// The one lookup path: find `key`, vote, then return the hit (making it
  /// the most recently used entry) or build(), run-compress and insert the
  /// result under `key`.  `remoteProgram` < 0 for intra-program lookups;
  /// otherwise `sender` says which half this is.
  template <typename Build>
  std::shared_ptr<const McSchedule> lookup(transport::Comm& comm,
                                           int remoteProgram, bool sender,
                                           const Key& key, Build&& build);

  /// The entry under `key`, or null; touches neither stats nor LRU order.
  const Entry* peek(const Key& key) const;
  /// Inserts or replaces the entry under `key` as the most recently used.
  void insert(const Key& key, std::shared_ptr<const Entry> entry);
  void evictOverCapacity();

  std::size_t capacity_;
  std::list<Slot> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Slot>::iterator, KeyHash> map_;
  CacheStats stats_;
  std::uint64_t patches_ = 0;
  std::uint64_t patchFallbacks_ = 0;
};

/// The calling virtual processor's schedule cache (one per rank/thread,
/// like the MC_* handle tables).  Lives for the lifetime of the rank's
/// thread — i.e. one World::run.
ScheduleCache& defaultScheduleCache();

/// Digest of one side of a schedule key: library name, the adapter's local
/// descriptor fingerprint, and the region set contents.
void hashScheduleSide(HashStream& h, const DistObject& obj,
                      const SetOfRegions& set);

/// The side digest as a value — the "layout fingerprint" a client presents
/// to the compute server, whose rank 0 decides sharing by it.  Note the
/// adapter fingerprint inside is rank-local: a program canonicalizes by
/// broadcasting rank 0's digest before using it as a shared identity.
HashStream::Digest scheduleSideDigest(const DistObject& obj,
                                      const SetOfRegions& set);

}  // namespace mc::core
