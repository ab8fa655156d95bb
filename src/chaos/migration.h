// Migration analysis for adaptive repartitioning.
//
// An adaptive application re-partitions as its load evolves (RCB after
// particle drift, client grow/shrink).  Rebuilding every inspector product
// from scratch on each repartitioning wastes the observation that most
// elements usually stay put.  This module derives the *migrated set* — the
// global indices whose (owner, local offset) actually changed — which is
// what feeds the delta-schedule machinery (core::deltaFromMigratedIndices,
// core::patchSchedule) and the dereference cache's selective invalidation
// (DerefCache::retarget).
//
// It also provides the slot policy that keeps the migrated set small:
// stableRemapOrder re-orders a partitioner's raw assignment so that
// surviving elements keep their local offsets.  Partitioners emit local
// order ascending-by-global-index; after even a tiny boundary shift that
// ordering shifts *every* element's offset and the "delta" becomes the
// whole array.  With stable slots, only genuine arrivals/departures count.
#pragma once

#include <span>
#include <vector>

#include "layout/index.h"
#include "transport/comm.h"

namespace mc::chaos {

/// Collective: the sorted global indices whose (owner, local offset)
/// mapping differs between the old assignment (`oldMine`, this rank's
/// elements in local order) and the new one (`newMine`).  Indices owned in
/// only one of the two assignments count as migrated.  Every rank returns
/// the same (global) sorted, duplicate-free vector.
///
/// Contract: each global index appears at most once in each assignment
/// (over all ranks), so an index keeps its (owner, offset) exactly when it
/// sits in the same slot of the same rank in both lists.  Each rank
/// therefore reports only the globals at the slots where its two lists
/// differ, plus the longer list's tail: the cost is one allgather of the
/// changed slots, O(n/P) local compares, and a radix sort of what the
/// allgather returns.  Every index of both lists must lie in
/// [0, globalSize); otherwise every rank throws mc::Error.
std::vector<layout::Index> migratedGlobals(transport::Comm& comm,
                                           std::span<const layout::Index> oldMine,
                                           std::span<const layout::Index> newMine,
                                           layout::Index globalSize);

/// Re-orders a new local assignment to minimize offset churn against the
/// old one: surviving elements keep their old slots, arrivals fill the
/// departures' slots in place (ascending), extras append, and when the
/// assignment shrinks the tail compacts.  The result is a permutation of
/// `newMineAnyOrder`.  Both inputs are duplicate-free lists of
/// non-negative global indices.  Local (no communication): two radix sorts
/// (skipped for already-ascending input, which is what the partitioners
/// emit), one set difference each way, and a pass over the old slots that
/// searches only the departures.
std::vector<layout::Index> stableRemapOrder(
    std::span<const layout::Index> oldMine,
    std::span<const layout::Index> newMineAnyOrder);

}  // namespace mc::chaos
