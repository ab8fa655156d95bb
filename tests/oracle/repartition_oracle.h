// The whole-tree reference versions of the adaptive-epoch helpers.
//
// chaos::rcbPartition descends only the cut tree's branch that holds the
// caller's rank and selects each cut with std::nth_element; the oracle
// here builds the whole tree, sorting every part at every level, into an
// n-sized owner array.  chaos::stableRemapOrder finds arrivals and
// departures with one set difference each; the oracle binary-searches the
// whole old and new sets for every element.  The production functions
// must return exactly what these give.  Test-only oracles for test_rcb and
// test_schedule_delta.
#pragma once

#include <span>
#include <vector>

#include "layout/index.h"

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

}  // namespace mc::chaos::oracle
