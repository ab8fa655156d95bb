// Translation tables: the heart of the Chaos runtime library.
//
// Chaos [Das, Saltz et al.; JPDC 1994] distributes 1-D arrays *irregularly*:
// an arbitrary assignment of global indices to processors, chosen by a
// partitioner.  The translation table records, for every global index, the
// owning processor and the element's offset in the owner's local storage.
//
// Two storage policies, both from the real library:
//  * replicated  — every processor holds the full table; dereference is a
//    local lookup, but memory is O(global size) per processor.
//  * distributed — entry g lives on processor g / ceil(N/P) (the table's
//    "home" distribution); dereference is a collective exchange.  This is
//    the policy whose cost dominates the paper's Table 2 (the "Chaos
//    dereference function" the text discusses), and whose size makes the
//    paper's *duplication* schedule method impractical across programs.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "layout/index.h"
#include "transport/comm.h"
#include "util/hash.h"

namespace mc::chaos {

/// Location of one element: owning processor and offset in its local data.
struct ElementLoc {
  int proc = -1;
  layout::Index offset = -1;
  bool operator==(const ElementLoc& o) const {
    return proc == o.proc && offset == o.offset;
  }
};

class TranslationTable {
 public:
  enum class Storage { kReplicated, kDistributed };

  /// Collective build.  `myGlobals` lists the global indices owned by the
  /// calling processor, in local storage order; the union over processors
  /// must be exactly {0, ..., globalSize-1} with no duplicates.
  /// `modeledQueryCostSeconds`: virtual-clock charge per dereferenced
  /// element, calibrated to the original library's per-element lookup cost
  /// (the paper's Table 2 implies ~15us/element on the SP2).  The charge
  /// lands on whichever processor resolves the query, so dereference work
  /// spreads across processors exactly as in Chaos.  Zero (the default)
  /// keeps dereference at this host's native speed.
  static TranslationTable build(transport::Comm& comm,
                                std::span<const layout::Index> myGlobals,
                                layout::Index globalSize, Storage storage,
                                double modeledQueryCostSeconds = 0.0);

  /// Builds a replicated table directly from a complete entry list (entry g
  /// = location of global index g).  Used to reconstruct a table shipped to
  /// another program; no communication.  The entries must form rows: each
  /// owner's offsets are exactly 0 .. count-1, each once (mc::Error
  /// otherwise).
  static TranslationTable replicatedFromEntries(
      std::vector<ElementLoc> entries, int nprocs,
      double modeledQueryCostSeconds = 0.0);

  Storage storage() const { return storage_; }
  layout::Index globalSize() const { return globalSize_; }
  /// Number of elements owned by processor `proc`.
  layout::Index localCount(int proc) const {
    return localCounts_[static_cast<size_t>(proc)];
  }

  /// Collective dereference: every processor passes its own query list and
  /// receives the locations in query order.  Replicated tables answer
  /// locally; distributed tables exchange query/answer messages with each
  /// entry's home processor (the expensive path the paper measures).
  std::vector<ElementLoc> dereference(
      transport::Comm& comm, std::span<const layout::Index> globals) const;

  /// Batched, cached dereference — same collective contract and same
  /// results as dereference(), different cost model.  Queries are
  /// sort-and-uniqued by chaos::sortUnique (deref_cache.h; a query outside
  /// [0, globalSize) throws mc::Error), the per-rank dereference cache is
  /// probed in one sorted pass, and only the distinct *misses* travel to
  /// their home processors (grouped page-contiguously by the sort); the
  /// modeled per-element query cost is likewise charged per miss only.
  /// Results are inserted into the cache under this table's uid() for
  /// reuse by later inspector calls.  Every processor must call this
  /// (distributed tables exchange even when a rank's queries all hit).
  std::vector<ElementLoc> dereferenceCached(
      transport::Comm& comm, std::span<const layout::Index> globals) const;

  /// dereferenceCached for a batch that is already sorted ascending and
  /// duplicate-free (a chaos::sortUnique batch's `uniq`, which also checked
  /// its range): the same collective contract, cache probes, counters and
  /// charges, with no second sort.  Returns the locations in batch order.
  /// chaos::localize calls it with its own sorted references.
  std::vector<ElementLoc> dereferenceSorted(
      transport::Comm& comm, std::span<const layout::Index> uniq) const;

  /// Local lookup; requires replicated storage.
  ElementLoc dereferenceLocal(layout::Index g) const;

  /// Collective: materializes the complete table on every processor.  For a
  /// distributed table this ships O(globalSize) data — provided to let the
  /// benchmarks demonstrate *why* the paper rules out the duplication
  /// schedule method for Chaos-distributed data across programs.
  std::vector<ElementLoc> gatherFull(transport::Comm& comm) const;

  /// Home processor of entry g in the distributed policy.
  int homeOf(layout::Index g) const {
    return static_cast<int>(g / homeBlock_);
  }

  /// Modeled per-element dereference cost (see build()).
  double modeledQueryCost() const { return modeledQueryCost_; }

  /// Process-unique identity of this table, minted at construction.  The
  /// per-rank dereference cache keys on it: uids are never reused, so a
  /// cache entry can only ever describe the table that minted it (a new
  /// table at a recycled address cannot alias a stale entry).
  std::uint64_t uid() const { return uid_; }

  /// Serializes the locally held table state (storage policy, extents, this
  /// processor's entry shard) to a framed blob (util/blob_io.h).  The uid is
  /// deliberately NOT serialized — see deserialize().
  std::vector<std::byte> serialize() const;

  /// Inverse of serialize(); validates the frame and every internal count,
  /// and that a replicated table's entries form rows (as
  /// replicatedFromEntries does).
  /// Uid remint rule: the restored table mints a FRESH process-unique uid
  /// rather than reusing the saved one, so the per-rank DerefCache — which
  /// keys entries on table uids — can never serve a stale pre-restore (or
  /// other-process) entry against a restored table.  The saved uid would be
  /// meaningless in this process anyway; reminting makes that explicit.
  static TranslationTable deserialize(std::span<const std::byte> blob);

  /// Communication-free digest of the locally held table state.  Recipe:
  /// the header (storage policy, global extent, home block, owner counts,
  /// this processor's rank, query cost), then
  ///  * replicated: the P row digests in rank order, where row p lists
  ///    processor p's globals in local order and its digest is the 128-bit
  ///    HashStream digest of that list (HashStream::podSpan).  build()
  ///    has each rank digest its own row and ship the digest with it, so
  ///    no rank hashes the whole table; replicatedFromEntries() and
  ///    deserialize() rebuild the rows from the entries and hash them the
  ///    same way, so all three factories agree;
  ///  * distributed: this processor's entry shard, (owner, offset) per
  ///    entry.  No single processor can fingerprint the whole mapping;
  ///    callers that key caches on this value must combine the
  ///    per-processor digests collectively (the schedule cache does).
  /// A table never changes after construction, so every factory computes
  /// the digest once and this returns it: a schedule-cache key costs O(1)
  /// per table.
  std::uint64_t localFingerprint() const { return fingerprint_; }

 private:
  TranslationTable() = default;

  /// Hashes the locally held state into fingerprint_ (see
  /// localFingerprint(); `rowDigests` is used by replicated storage only).
  /// Every factory calls it last.
  void computeFingerprint(std::span<const HashStream::Digest> rowDigests);

  /// The distributed query/answer exchange, collective: queryTo[h] lists
  /// the globals this rank asks home processor h; returns h's answers in
  /// the same order.  The modeled per-query cost is charged on the
  /// answering processor, so dereference work spreads over the processors
  /// holding the table.
  std::vector<std::vector<ElementLoc>> askHomes(
      transport::Comm& comm,
      const std::vector<std::vector<layout::Index>>& queryTo) const;

  Storage storage_ = Storage::kReplicated;
  layout::Index globalSize_ = 0;
  layout::Index homeBlock_ = 1;          // ceil(N/P)
  std::vector<layout::Index> localCounts_;
  // kReplicated: full table, indexed by global index.
  // kDistributed: my home slice, indexed by g - homeBlock*rank.
  std::vector<ElementLoc> entries_;
  int myRank_ = 0;
  double modeledQueryCost_ = 0.0;
  std::uint64_t uid_ = 0;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace mc::chaos
