#include "core/schedule_cache.h"

#include "core/registry.h"
#include "obs/metrics.h"

namespace mc::core {

namespace {

void hashRegion(HashStream& h, const Region& r) {
  h.pod(r.kind());
  switch (r.kind()) {
    case Region::Kind::kSection: {
      const layout::RegularSection& s = r.asSection();
      h.pod(s.rank);
      for (int d = 0; d < s.rank; ++d) {
        const auto dd = static_cast<size_t>(d);
        h.pod(s.lo[dd]);
        h.pod(s.hi[dd]);
        h.pod(s.stride[dd]);
      }
      break;
    }
    case Region::Kind::kIndices:
      h.pod(r.indicesDigest());  // hashed once, when the region was built
      break;
    case Region::Kind::kRange: {
      const ElementRange& e = r.asRange();
      h.pod(e.lo);
      h.pod(e.hi);
      h.pod(e.stride);
      break;
    }
  }
}

using Key = HashStream::Digest;

/// One rank's share of a lookup's vote and, reduced, its program's.
struct Vote {
  Key identity;        // sum over ranks of hash(rank, key), word-wise
  Key held;            // the identity every voter's entry carries, if `hit`
  std::uint64_t hit;   // every voter holds an entry, all carrying `held`
};

/// What every participant of a lookup decides together.
struct Decision {
  Key identity;        // the configuration's identity; a build stores it
  std::uint64_t hit;   // every participant's entry carries `identity`
};

Vote combine(const Vote& a, const Vote& b) {
  return Vote{{a.identity[0] + b.identity[0], a.identity[1] + b.identity[1]},
              a.held,
              a.hit & b.hit & static_cast<std::uint64_t>(a.held == b.held)};
}

/// The collective vote of one lookup: an allreduce over the program and,
/// for an inter-program half (`remoteProgram` >= 0), a rank-0 exchange of
/// the two programs' votes plus a bcast of the joint decision — the
/// messages a bare hit bit needs.  `held` is the identity of this rank's
/// entry, or null when it has none.
Decision agree(transport::Comm& comm, int remoteProgram, bool sender,
               const Key& key, const Key* held) {
  HashStream mine;
  mine.pod(comm.rank());
  mine.pod(key);
  const Vote v = comm.allreduceValue(
      Vote{mine.digest(), held != nullptr ? *held : Key{},
           held != nullptr ? 1u : 0u},
      combine);
  if (remoteProgram < 0) {
    return Decision{v.identity,
                    v.hit & static_cast<std::uint64_t>(v.held == v.identity)};
  }
  Decision d{};
  const int tag = comm.nextInterTag(remoteProgram);
  if (comm.rank() == 0) {
    comm.sendValueTo(remoteProgram, 0, tag, v);
    const Vote theirs = comm.recvValueFrom<Vote>(remoteProgram, 0, tag);
    HashStream joint;  // the sending program's identity first
    joint.pod(sender ? v.identity : theirs.identity);
    joint.pod(sender ? theirs.identity : v.identity);
    d.identity = joint.digest();
    d.hit = v.hit & theirs.hit &
            static_cast<std::uint64_t>(v.held == d.identity &&
                                       theirs.held == d.identity);
  }
  return comm.bcastValue(d, 0);
}

Key intraKey(transport::Comm& comm, const DistObject& srcObj,
             const SetOfRegions& srcSet, const DistObject& dstObj,
             const SetOfRegions& dstSet, Method method) {
  HashStream h;
  h.str("intra");
  h.pod(method);
  h.pod(comm.program());
  h.pod(comm.size());
  hashScheduleSide(h, srcObj, srcSet);
  hashScheduleSide(h, dstObj, dstSet);
  return h.digest();
}

}  // namespace

void hashScheduleSide(HashStream& h, const DistObject& obj,
                      const SetOfRegions& set) {
  h.str(obj.library());
  h.pod(adapterFor(obj).localFingerprint(obj));
  h.pod(set.regions().size());
  for (const Region& r : set.regions()) hashRegion(h, r);
}

ScheduleCache::ScheduleCache(std::size_t capacity) : capacity_(capacity) {
  MC_REQUIRE(capacity > 0, "cache capacity must be positive");
}

template <typename Build>
std::shared_ptr<const McSchedule> ScheduleCache::lookup(
    transport::Comm& comm, int remoteProgram, bool sender, const Key& key,
    Build&& build) {
  const auto it = map_.find(key);
  const Entry* local = it == map_.end() ? nullptr : it->second->entry.get();
  const Decision d = agree(comm, remoteProgram, sender, key,
                           local != nullptr ? &local->identity : nullptr);
  std::shared_ptr<const Entry> entry;
  if (d.hit != 0) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    entry = it->second->entry;
  } else {
    ++stats_.misses;
    entry = std::make_shared<const Entry>(
        Entry{d.identity, std::forward<Build>(build)()});
    insert(key, entry);
  }
  return std::shared_ptr<const McSchedule>(entry, &entry->schedule);
}

std::shared_ptr<const McSchedule> ScheduleCache::getOrBuild(
    transport::Comm& comm, const DistObject& srcObj,
    const SetOfRegions& srcSet, const DistObject& dstObj,
    const SetOfRegions& dstSet, Method method) {
  return lookup(
      comm, /*remoteProgram=*/-1, /*sender=*/false,
      intraKey(comm, srcObj, srcSet, dstObj, dstSet, method), [&] {
        return computeSchedule(comm, srcObj, srcSet, dstObj, dstSet, method);
      });
}

std::shared_ptr<const McSchedule> ScheduleCache::getOrPatch(
    transport::Comm& comm, const DistObject& oldSrcObj,
    const DistObject& newSrcObj, const SetOfRegions& srcSet,
    const DistObject& oldDstObj, const DistObject& newDstObj,
    const SetOfRegions& dstSet, const layout::DistDelta& delta,
    Method method) {
  const Key oldKey =
      intraKey(comm, oldSrcObj, srcSet, oldDstObj, dstSet, method);
  const Key newKey =
      intraKey(comm, newSrcObj, srcSet, newDstObj, dstSet, method);
  return lookup(comm, /*remoteProgram=*/-1, /*sender=*/false, newKey, [&] {
    // Patch only when *every* rank holds a patchable old schedule built for
    // the old distributions — the fallback is a collective build, so the
    // choice must be uniform.
    const Entry* old = peek(oldKey);
    const bool patchable =
        old != nullptr &&
        patchableSchedule(old->schedule, newSrcObj, newDstObj);
    if (agree(comm, /*remoteProgram=*/-1, /*sender=*/false, oldKey,
              patchable ? &old->identity : nullptr)
            .hit != 0) {
      ++patches_;
      return patchSchedule(comm, old->schedule, delta, newSrcObj, srcSet,
                           newDstObj, dstSet);
    }
    ++patchFallbacks_;
    return computeSchedule(comm, newSrcObj, srcSet, newDstObj, dstSet,
                           method);
  });
}

std::shared_ptr<const McSchedule> ScheduleCache::getOrBuildHalf(
    transport::Comm& comm, int remoteProgram, bool sender,
    const DistObject& obj, const SetOfRegions& set, Method method) {
  HashStream h;
  h.str(sender ? "send" : "recv");
  h.pod(method);
  h.pod(comm.size());
  h.pod(comm.programInfo(remoteProgram).nprocs);
  h.pod(comm.program());
  h.pod(remoteProgram);
  hashScheduleSide(h, obj, set);
  return lookup(comm, remoteProgram, sender, h.digest(), [&] {
    return sender ? computeScheduleSend(comm, obj, set, remoteProgram, method)
                  : computeScheduleRecv(comm, obj, set, remoteProgram, method);
  });
}

void ScheduleCache::insertEntry(const HashStream::Digest& key,
                                const HashStream::Digest& identity,
                                McSchedule schedule) {
  insert(key, std::make_shared<const Entry>(
                  Entry{identity, std::move(schedule)}));
}

void ScheduleCache::setCapacity(std::size_t capacity) {
  MC_REQUIRE(capacity > 0, "cache capacity must be positive");
  capacity_ = capacity;
  evictOverCapacity();
}

const ScheduleCache::Entry* ScheduleCache::peek(const Key& key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second->entry.get();
}

void ScheduleCache::insert(const Key& key, std::shared_ptr<const Entry> entry) {
  ++stats_.insertions;
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Slot{key, std::move(entry)});
  map_.emplace(key, lru_.begin());
  evictOverCapacity();
}

void ScheduleCache::evictOverCapacity() {
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

HashStream::Digest scheduleSideDigest(const DistObject& obj,
                                      const SetOfRegions& set) {
  HashStream h;
  h.str("side");
  hashScheduleSide(h, obj, set);
  return h.digest();
}

ScheduleCache& defaultScheduleCache() {
  thread_local ScheduleCache cache;
  // Register the singleton's counters into the rank's metrics registry the
  // first time the cache exists on this thread (same lifetime: both are
  // thread_local, and the registry never samples after thread exit).
  thread_local bool registered = [] {
    obs::registerCacheMetrics(obs::threadRegistry(), "core.sched_cache",
                              cache);
    return true;
  }();
  (void)registered;
  return cache;
}

}  // namespace mc::core
