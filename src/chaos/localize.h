// The Chaos localize inspector.
//
// Given the global indices an irregular loop references (e.g. the ia/ib
// indirection arrays of the paper's Figure 1, Loop 3), localize
//   1. dereferences every distinct reference through the translation table,
//   2. assigns each distinct off-processor reference a ghost slot appended
//      after the owned elements,
//   3. rewrites the references as local indices (owned offset, or
//      localCount + ghost slot), and
//   4. builds the gather schedule (owners -> ghost slots) and its reverse,
//      the scatter-add schedule (ghost contributions -> owners).
//
// This is the classic inspector whose cost — dominated by translation-table
// dereference — the paper measures in Tables 1 and 2.
#pragma once

#include "chaos/irreg_array.h"
#include "sched/executor.h"

namespace mc::chaos {

struct Localized {
  /// For each input reference: local index into [0, localCount + ghostCount).
  std::vector<layout::Index> localIndices;
  layout::Index ghostCount = 0;
  /// Gather: pack from owned data (sends), unpack into the ghost area
  /// (recvs index the ghost buffer, not owned storage).
  sched::Schedule gatherSched;
  /// Scatter-add: pack from the ghost area, accumulate into owned data.
  sched::Schedule scatterAddSched;
};

/// Collective inspector over the calling processor's reference list; a
/// reference outside [0, globalSize) throws mc::Error before any exchange.
/// Batched: references are sort-and-uniqued, resolved through the per-rank
/// dereference cache (deref_cache.h) in one sorted pass — only distinct
/// uncached references travel to the table's home processors — and ghost
/// slots are assigned in first-appearance order, so the result is
/// bit-identical to the hash-based, uncached test oracle
/// (tests/oracle/localize_oracle.h).
Localized localize(transport::Comm& comm, const TranslationTable& table,
                   std::span<const layout::Index> refs);

/// Gather executor: fills `ghost` (size >= ghostCount) with the current
/// owner values for the localized off-processor references.  Collective.
/// One-shot convenience; a time-step loop should bind a sched::Executor to
/// gatherSched once and run() it per step (see chaos::EdgeSweep).
template <typename T>
void gatherGhosts(transport::Comm& comm, const Localized& loc,
                  std::span<const T> owned, std::span<T> ghost) {
  const int tag = comm.nextUserTag();
  sched::execute<T>(comm, loc.gatherSched, owned, ghost, tag);
}

/// Scatter-add executor: accumulates ghost contributions into their owners'
/// elements.  Collective.
template <typename T>
void scatterAddGhosts(transport::Comm& comm, const Localized& loc,
                      std::span<const T> ghost, std::span<T> owned) {
  const int tag = comm.nextUserTag();
  sched::executeAdd<T>(comm, loc.scatterAddSched, ghost, owned, tag);
}

}  // namespace mc::chaos
