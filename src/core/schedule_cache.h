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
// way the MC_* API keeps per-rank handle tables.
#pragma once

#include <initializer_list>
#include <utility>

#include "core/schedule_builder.h"
#include "sched/schedule_cache.h"

namespace mc::core {

using sched::CacheStats;

class ScheduleCache {
 public:
  explicit ScheduleCache(std::size_t capacity = 64) : cache_(capacity) {}

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
                          srcSet, nullptr, method);
  }
  std::shared_ptr<const McSchedule> getOrBuildRecv(
      transport::Comm& comm, const DistObject& dstObj,
      const SetOfRegions& dstSet, int remoteProgram,
      Method method = Method::kCooperation) {
    return getOrBuildHalf(comm, remoteProgram, /*sender=*/false, dstObj,
                          dstSet, nullptr, method);
  }

  /// Layout-keyed inter-program halves for cross-client sharing: the key
  /// hashes the *remote side's layout fingerprint digest* instead of the
  /// remote program's identity, so the Nth client program presenting a
  /// layout some earlier client already built against hits regardless of
  /// its program id.  `remoteProgram` still names the peer for the
  /// collective hit/miss agreement and the build itself — it just does not
  /// enter the key.  Collective over both programs, paired like the
  /// identity-keyed forms.
  std::shared_ptr<const McSchedule> getOrBuildSendByLayout(
      transport::Comm& comm, const DistObject& srcObj,
      const SetOfRegions& srcSet, int remoteProgram,
      const HashStream::Digest& remoteLayout,
      Method method = Method::kCooperation) {
    return getOrBuildHalf(comm, remoteProgram, /*sender=*/true, srcObj,
                          srcSet, &remoteLayout, method);
  }
  std::shared_ptr<const McSchedule> getOrBuildRecvByLayout(
      transport::Comm& comm, const DistObject& dstObj,
      const SetOfRegions& dstSet, int remoteProgram,
      const HashStream::Digest& remoteLayout,
      Method method = Method::kCooperation) {
    return getOrBuildHalf(comm, remoteProgram, /*sender=*/false, dstObj,
                          dstSet, &remoteLayout, method);
  }

  /// Cached schedule across a repartitioning.  Looks up the new
  /// distributions' key, then a delta-secondary key (old key + delta
  /// fingerprint); either hits only when every rank's entry was built for
  /// the new distributions.  On miss, patches the cached old schedule
  /// against `delta` instead of rebuilding from scratch when every rank
  /// holds a patchable copy built for the old distributions, else falls
  /// back to a full collective build.  The result is inserted under both
  /// keys.  Collective over the program.
  std::shared_ptr<const McSchedule> getOrPatch(
      transport::Comm& comm, const DistObject& oldSrcObj,
      const DistObject& newSrcObj, const SetOfRegions& srcSet,
      const DistObject& oldDstObj, const DistObject& newDstObj,
      const SetOfRegions& dstSet, const layout::DistDelta& delta,
      Method method = Method::kCooperation);

  /// Snapshot hooks (snapshot/snapshot.cc): visit every entry oldest-first
  /// as fn(key, identity, schedule) (so a restore that insertEntry()s
  /// sequentially reproduces the LRU order), and insert a restored entry
  /// under its saved key and build identity.  Restored insertions count as
  /// insertions, not hits — the hit counters keep meaning "a build was
  /// avoided *during this run*".
  template <typename F>
  void forEachEntryOldestFirst(F&& fn) const {
    cache_.forEachOldestFirst(
        [&](const Key& key, const std::shared_ptr<const Entry>& e) {
          fn(key, e->identity, e->schedule);
        });
  }
  void insertEntry(const HashStream::Digest& key,
                   const HashStream::Digest& identity, McSchedule schedule);

  const CacheStats& stats() const { return cache_.stats(); }
  /// Repartitionings served by patchSchedule vs. by a full rebuild.
  std::uint64_t patches() const { return patches_; }
  std::uint64_t patchFallbacks() const { return patchFallbacks_; }
  void resetStats() { cache_.resetStats(); }
  std::size_t size() const { return cache_.size(); }
  std::size_t capacity() const { return cache_.capacity(); }
  void setCapacity(std::size_t capacity) { cache_.setCapacity(capacity); }
  void clear() { cache_.clear(); }

 private:
  using Key = HashStream::Digest;
  /// A cached schedule and the identity of the configuration it was built
  /// for (see the file comment).
  struct Entry {
    Key identity;
    McSchedule schedule;
  };

  /// The four inter-program halves: one key builder, one build.
  std::shared_ptr<const McSchedule> getOrBuildHalf(
      transport::Comm& comm, int remoteProgram, bool sender,
      const DistObject& obj, const SetOfRegions& set,
      const HashStream::Digest* remoteLayout, Method method);

  /// The one lookup path: peek `keys` in order, vote, then return the hit
  /// or build(), run-compress and insert the result under every key.  The
  /// identity comes from the first key.  `remoteProgram` < 0 for
  /// intra-program lookups; otherwise `sender` says which half this is.
  template <typename Build>
  std::shared_ptr<const McSchedule> lookup(transport::Comm& comm,
                                           int remoteProgram, bool sender,
                                           std::initializer_list<Key> keys,
                                           Build&& build);

  sched::KeyedCache<Entry> cache_;
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
/// to the compute server and the *ByLayout lookups key on.  Note the
/// adapter fingerprint inside is rank-local: a program canonicalizes by
/// broadcasting rank 0's digest before using it as a shared identity.
HashStream::Digest scheduleSideDigest(const DistObject& obj,
                                      const SetOfRegions& set);

}  // namespace mc::core
