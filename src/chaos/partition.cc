#include "chaos/partition.h"

#include "util/error.h"
#include "util/radix_sort.h"
#include "util/rng.h"

#include <algorithm>
#include <limits>

namespace mc::chaos {

using layout::Index;

std::vector<Index> blockPartition(Index n, int nprocs, int rank) {
  MC_REQUIRE(n >= 0 && nprocs > 0 && rank >= 0 && rank < nprocs);
  const Index block = (n + nprocs - 1) / nprocs;
  const Index lo = block * rank;
  const Index hi = std::min(n, block * (rank + 1));
  std::vector<Index> out;
  out.reserve(static_cast<size_t>(std::max<Index>(0, hi - lo)));
  for (Index g = lo; g < hi; ++g) out.push_back(g);
  return out;
}

std::vector<Index> cyclicPartition(Index n, int nprocs, int rank) {
  MC_REQUIRE(n >= 0 && nprocs > 0 && rank >= 0 && rank < nprocs);
  std::vector<Index> out;
  out.reserve(static_cast<size_t>(n / nprocs + 1));
  for (Index g = rank; g < n; g += nprocs) out.push_back(g);
  return out;
}

std::vector<Index> randomPartition(Index n, int nprocs, int rank,
                                   std::uint64_t seed) {
  MC_REQUIRE(n >= 0 && nprocs > 0 && rank >= 0 && rank < nprocs);
  Rng rng(seed);
  const auto perm = rng.permutation(static_cast<std::uint64_t>(n));
  std::vector<Index> out;
  out.reserve(static_cast<size_t>(n / nprocs + 1));
  for (Index g = 0; g < n; ++g) {
    if (static_cast<int>(perm[static_cast<size_t>(g)] %
                         static_cast<std::uint64_t>(nprocs)) == rank) {
      out.push_back(g);
    }
  }
  return out;
}

std::vector<Index> rcbPartition(std::span<const double> x,
                                std::span<const double> y, int nprocs,
                                int rank) {
  MC_REQUIRE(x.size() == y.size(), "coordinate arrays differ in length");
  MC_REQUIRE(nprocs > 0 && rank >= 0 && rank < nprocs);
  std::vector<Index> ids(x.size());
  for (std::size_t g = 0; g < ids.size(); ++g) ids[g] = static_cast<Index>(g);
  // Walk the one branch of the cut tree that holds `rank`: [lo, hi) is the
  // point set of the part of ranks [rankLo, rankLo + nparts).
  auto lo = ids.begin();
  auto hi = ids.end();
  int rankLo = 0;
  int nparts = nprocs;
  while (nparts > 1) {
    double xMin = std::numeric_limits<double>::infinity(), xMax = -xMin;
    double yMin = xMin, yMax = -xMin;
    for (auto it = lo; it != hi; ++it) {
      const auto g = static_cast<std::size_t>(*it);
      xMin = std::min(xMin, x[g]);
      xMax = std::max(xMax, x[g]);
      yMin = std::min(yMin, y[g]);
      yMax = std::max(yMax, y[g]);
    }
    // Cut along the wider axis.  (coordinate, global index) is a strict
    // total order, so the left part is the same set of points whichever
    // order the range is in.
    const std::span<const double> c =
        (xMax - xMin) >= (yMax - yMin) ? x : y;
    const int leftParts = nparts / 2;
    const auto leftCount = static_cast<std::ptrdiff_t>(
        static_cast<std::size_t>(hi - lo) * static_cast<std::size_t>(leftParts) /
        static_cast<std::size_t>(nparts));
    const auto cut = lo + leftCount;
    std::nth_element(lo, cut, hi, [c](Index a, Index b) {
      const double ca = c[static_cast<std::size_t>(a)];
      const double cb = c[static_cast<std::size_t>(b)];
      return ca != cb ? ca < cb : a < b;
    });
    if (rank < rankLo + leftParts) {
      hi = cut;
      nparts = leftParts;
    } else {
      lo = cut;
      rankLo += leftParts;
      nparts -= leftParts;
    }
  }
  std::vector<Index> mine(lo, hi);
  radixSort(mine);
  return mine;
}

}  // namespace mc::chaos
