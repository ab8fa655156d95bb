// Per-rank dereference cache for translation-table lookups.
//
// Inspector phases dereference the same off-processor references over and
// over: every schedule build against a translation table re-asks the
// table's home processors for (owner, localOffset) pairs that have not
// changed since the last build.  The cache memoizes resolved locations per
// rank (thread_local — each virtual processor has its own), keyed by the
// table's process-unique uid(), so repeated inspector calls resolve
// entirely locally and only genuinely new references travel.
//
// Invalidation contract: a table's entries are immutable after build, so a
// cached location can only go stale when the *data* migrates — i.e. at
// chaos::remap, which drops the old table's shard on every participating
// rank (remap is collective, so the invalidation is too).  uids are minted
// from a monotone process-wide counter and never reused; a new table that
// happens to live at a recycled address cannot alias a stale shard.
//
// Storage is a sorted parallel array per table (globals ascending +
// locations), probed with narrowing binary searches over a sorted query
// batch and grown by linear merges — no per-element hashing anywhere.
// Stats live in a plain thread_local POD surfaced through the obs
// MetricsRegistry as localize.deref_cache.* counters; the samplers touch
// only the POD, so they stay valid whatever order thread_locals die in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chaos/ttable.h"
#include "layout/index.h"

namespace mc::chaos {

/// Monotone per-rank cache telemetry (entries is the current size).
struct DerefCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;     // entries added
  std::uint64_t invalidations = 0;  // shards dropped by invalidate()
  std::uint64_t evictions = 0;      // entries dropped by the capacity cap
  std::uint64_t entries = 0;        // current resident entries (gauge)
  std::uint64_t retargets = 0;      // shards carried across a remap
  std::uint64_t retargetDropped = 0;  // migrated entries dropped by retarget
};

const DerefCacheStats& derefCacheStats();

/// A dereference batch made distinct: `uniq` ascends without duplicates,
/// and query i is uniq[uniqOf[i]].
struct SortedBatch {
  std::vector<layout::Index> uniq;
  std::vector<std::uint32_t> uniqOf;
};

/// The inspector's one sort-unique (localize and dereferenceCached both
/// call it): checks every query against [0, globalSize) — mc::Error
/// otherwise — so the sorted distinct batch is what the cache probes in
/// one pass.  A dense batch, whose key span [min, max] needs no more
/// 64-bit words than it has queries, is answered from a bitmap of that
/// span; a sparse one radix-sorts its (global, position) pairs.  Both give
/// the same bits.
SortedBatch sortUnique(std::span<const layout::Index> globals,
                       layout::Index globalSize);

class DerefCache {
 public:
  /// Resident-entry cap per rank (~48 MiB of (Index, ElementLoc) pairs at
  /// the default).  An insert that would exceed it evicts whole shards,
  /// oldest table first.
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 21;

  /// Probes one table's shard with a sorted, duplicate-free query batch.
  /// For query i: hit[i] = 1 and out[i] is filled on a hit, hit[i] = 0
  /// otherwise.  Returns the hit count; bumps hits/misses.
  std::size_t lookupSorted(std::uint64_t uid,
                           std::span<const layout::Index> sortedGlobals,
                           ElementLoc* out, std::uint8_t* hit);

  /// Merges freshly resolved locations into the table's shard.  `globals`
  /// must be sorted, duplicate-free, and disjoint from the shard (i.e. the
  /// misses of a preceding lookupSorted).
  void insertSorted(std::uint64_t uid,
                    std::span<const layout::Index> globals,
                    std::span<const ElementLoc> locs);

  /// Drops every entry cached for the table; returns true if any existed.
  /// chaos::remap calls this for the table it replaces.
  bool invalidate(std::uint64_t uid);

  /// Selective remap invalidation: rekeys the old table's shard to the new
  /// table's uid, dropping only the entries whose global index is in
  /// `sortedMigrated` (the elements whose (owner, offset) changed — see
  /// chaos::migratedGlobals).  Survivors resolve identically under the new
  /// table by the migrated-set contract, so later inspector passes against
  /// the new table hit on every reference the remap did not move.  Returns
  /// true when a shard was carried over.
  bool retarget(std::uint64_t oldUid, std::uint64_t newUid,
                std::span<const layout::Index> sortedMigrated);

  void clear();

  std::size_t entryCount() const { return total_; }

 private:
  struct Shard {
    std::uint64_t uid = 0;
    std::vector<layout::Index> keys;  // sorted ascending
    std::vector<ElementLoc> locs;     // parallel to keys
  };

  Shard* findShard(std::uint64_t uid);

  // Few live tables per rank in practice: a linear scan beats a hash map.
  // Insertion order is retained so capacity eviction drops oldest first.
  std::vector<Shard> shards_;
  std::size_t total_ = 0;
};

/// The calling rank's cache (each virtual processor is a thread).
DerefCache& derefCache();

/// Registers the localize.deref_cache.* samplers into the rank's registry
/// (idempotent).
void ensureLocalizeMetrics();

}  // namespace mc::chaos
