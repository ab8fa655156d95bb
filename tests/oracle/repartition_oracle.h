// The whole-tree reference versions of the adaptive-epoch helpers.
//
// chaos::rcbPartition descends only the cut tree's branch that holds the
// caller's rank and selects each cut with std::nth_element; the oracle
// here builds the whole tree, sorting every part at every level, into an
// n-sized owner array.  chaos::stableRemapOrder finds arrivals and
// departures with one set difference each; the oracle binary-searches the
// whole old and new sets for every element.  chaos::migratedGlobals
// compares slots and allgathers only the changed ones; the oracle routes
// every rank's whole assignment to block-home ranks, which compare each
// global's (owner, offset) in both.  The production functions must return
// exactly what these give.  Test-only oracles for test_rcb and
// test_schedule_delta.
#pragma once

#include <span>
#include <vector>

#include "layout/index.h"
#include "transport/comm.h"

namespace mc::chaos::oracle {

/// Whole-tree recursive coordinate bisection: the part (rank) of every
/// point.  chaos::rcbPartition(x, y, nprocs, r) must equal the points with
/// owner r, ascending.
std::vector<int> rcbOwners(std::span<const double> x,
                           std::span<const double> y, int nprocs);

/// Binary-search stable remap order; same contract and result as
/// chaos::stableRemapOrder.
std::vector<layout::Index> stableRemapOrder(
    std::span<const layout::Index> oldMine,
    std::span<const layout::Index> newMineAnyOrder);

/// Home-routing migrated set (two alltoalls of the whole assignments, one
/// allgather); same contract and result as chaos::migratedGlobals for
/// indices in [0, globalSize).  Collective.
std::vector<layout::Index> migratedGlobals(
    transport::Comm& comm, std::span<const layout::Index> oldMine,
    std::span<const layout::Index> newMine, layout::Index globalSize);

}  // namespace mc::chaos::oracle
