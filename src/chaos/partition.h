// Partitioners: assignments of global indices to processors.
//
// Chaos separates data distribution (the partitioner's choice) from the
// runtime machinery (translation table + schedules).  These generators are
// deterministic in (n, nprocs, rank[, seed]) so every processor can compute
// every processor's assignment without communication.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "layout/index.h"

namespace mc::chaos {

/// Contiguous blocks: processor r owns [r*ceil(n/P), ...).
std::vector<layout::Index> blockPartition(layout::Index n, int nprocs,
                                          int rank);

/// Round-robin: processor r owns {r, r+P, r+2P, ...}.
std::vector<layout::Index> cyclicPartition(layout::Index n, int nprocs,
                                           int rank);

/// Pseudo-random assignment (deterministic in seed): global index g is owned
/// by perm(g) mod P, where perm is a seed-derived permutation.  Local order
/// is ascending global index.  This stands in for the graph-partitioner
/// output a real unstructured-mesh code would use: neighbours land on
/// arbitrary processors, which maximizes the irregular-communication stress
/// on the runtime.
std::vector<layout::Index> randomPartition(layout::Index n, int nprocs,
                                           int rank, std::uint64_t seed);

/// Recursive coordinate bisection: element i sits at (x[i], y[i]); the
/// point set is cut recursively along its wider axis into spatially compact
/// parts of near-equal size.  This is the geometric partitioner family real
/// Chaos applications feed the runtime with (the runtime itself is
/// partitioner-agnostic — any owner assignment works).  Deterministic; no
/// communication; local order is ascending global index.
///
/// Every rank runs this over all n points, so it computes only its own
/// part: each level selects its cut with std::nth_element under the
/// (coordinate, global index) order and descends into the branch that holds
/// `rank`.  Cost: O(n + n/2 + ...) = O(n) for the cuts along that one
/// branch, plus a radix sort of the kept leaf, O(n/P).
std::vector<layout::Index> rcbPartition(std::span<const double> x,
                                        std::span<const double> y, int nprocs,
                                        int rank);

}  // namespace mc::chaos
