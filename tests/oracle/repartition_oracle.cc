#include "oracle/repartition_oracle.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace mc::chaos::oracle {
namespace {

using layout::Index;

/// Assigns ranks [rankLo, rankLo+nparts) to `ids`, cutting along the wider
/// axis.  `ids` is reordered freely; `ownerOf` receives the result.
void rcbSplit(std::vector<Index>& ids, std::span<const double> x,
              std::span<const double> y, int rankLo, int nparts,
              std::vector<int>& ownerOf) {
  if (nparts == 1) {
    for (Index g : ids) ownerOf[static_cast<size_t>(g)] = rankLo;
    return;
  }
  double xMin = std::numeric_limits<double>::infinity(), xMax = -xMin;
  double yMin = xMin, yMax = -xMin;
  for (Index g : ids) {
    const auto gg = static_cast<size_t>(g);
    xMin = std::min(xMin, x[gg]);
    xMax = std::max(xMax, x[gg]);
    yMin = std::min(yMin, y[gg]);
    yMax = std::max(yMax, y[gg]);
  }
  const bool cutX = (xMax - xMin) >= (yMax - yMin);
  // Deterministic order: sort by cut coordinate, ties by global index.
  std::sort(ids.begin(), ids.end(), [&](Index a, Index b) {
    const double ca = cutX ? x[static_cast<size_t>(a)] : y[static_cast<size_t>(a)];
    const double cb = cutX ? x[static_cast<size_t>(b)] : y[static_cast<size_t>(b)];
    return ca != cb ? ca < cb : a < b;
  });
  const int leftParts = nparts / 2;
  const size_t leftCount =
      ids.size() * static_cast<size_t>(leftParts) / static_cast<size_t>(nparts);
  std::vector<Index> left(ids.begin(), ids.begin() + static_cast<long>(leftCount));
  std::vector<Index> right(ids.begin() + static_cast<long>(leftCount), ids.end());
  rcbSplit(left, x, y, rankLo, leftParts, ownerOf);
  rcbSplit(right, x, y, rankLo + leftParts, nparts - leftParts, ownerOf);
}

}  // namespace

std::vector<int> rcbOwners(std::span<const double> x,
                           std::span<const double> y, int nprocs) {
  MC_REQUIRE(x.size() == y.size(), "coordinate arrays differ in length");
  MC_REQUIRE(nprocs > 0);
  const auto n = static_cast<Index>(x.size());
  std::vector<Index> ids(static_cast<size_t>(n));
  for (Index g = 0; g < n; ++g) ids[static_cast<size_t>(g)] = g;
  std::vector<int> ownerOf(static_cast<size_t>(n), -1);
  if (n > 0) rcbSplit(ids, x, y, 0, nprocs, ownerOf);
  return ownerOf;
}

std::vector<Index> stableRemapOrder(std::span<const Index> oldMine,
                                    std::span<const Index> newMineAnyOrder) {
  std::vector<Index> oldSorted(oldMine.begin(), oldMine.end());
  std::sort(oldSorted.begin(), oldSorted.end());
  std::vector<Index> newSorted(newMineAnyOrder.begin(),
                               newMineAnyOrder.end());
  std::sort(newSorted.begin(), newSorted.end());
  const auto inOld = [&](Index g) {
    return std::binary_search(oldSorted.begin(), oldSorted.end(), g);
  };
  const auto inNew = [&](Index g) {
    return std::binary_search(newSorted.begin(), newSorted.end(), g);
  };
  std::vector<Index> arrivals;
  for (const Index g : newSorted) {
    if (!inOld(g)) arrivals.push_back(g);
  }
  std::vector<Index> out;
  out.reserve(newSorted.size());
  std::size_t a = 0;
  for (const Index g : oldMine) {
    if (inNew(g)) {
      out.push_back(g);  // survivor keeps its slot
    } else if (a < arrivals.size()) {
      out.push_back(arrivals[a++]);  // departure's slot reused in place
    }
  }
  for (; a < arrivals.size(); ++a) out.push_back(arrivals[a]);
  return out;
}

namespace {

/// One routed assignment entry: global index + the local offset its owner
/// holds it at (the owner is implied by the alltoall source row).
struct GlobalOffset {
  Index g = 0;
  Index off = 0;
};

/// Routes an assignment to block-home ranks: home(g) = g / homeBlock.
std::vector<std::vector<GlobalOffset>> routeToHomes(
    std::span<const Index> mine, Index homeBlock, int nprocs) {
  std::vector<std::vector<GlobalOffset>> rows(
      static_cast<std::size_t>(nprocs));
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const Index g = mine[i];
    rows[static_cast<std::size_t>(g / homeBlock)].push_back(
        GlobalOffset{g, static_cast<Index>(i)});
  }
  return rows;
}

}  // namespace

std::vector<Index> migratedGlobals(transport::Comm& comm,
                                   std::span<const Index> oldMine,
                                   std::span<const Index> newMine,
                                   Index globalSize) {
  const int nprocs = comm.size();
  const Index homeBlock =
      std::max<Index>(1, (globalSize + nprocs - 1) / nprocs);
  // Each index has a home rank that sees both assignments' claims for it
  // and decides migration locally.
  auto oldAt = comm.alltoall(routeToHomes(oldMine, homeBlock, nprocs));
  auto newAt = comm.alltoall(routeToHomes(newMine, homeBlock, nprocs));

  const Index myLo = std::min(globalSize, homeBlock * comm.rank());
  const Index myHi = std::min(globalSize, myLo + homeBlock);
  struct OwnerOffset {
    int owner = -1;  // -1: not owned in this assignment
    Index off = 0;
  };
  std::vector<OwnerOffset> oldLoc(static_cast<std::size_t>(myHi - myLo));
  std::vector<OwnerOffset> newLoc(static_cast<std::size_t>(myHi - myLo));
  for (int r = 0; r < nprocs; ++r) {
    for (const GlobalOffset& e : oldAt[static_cast<std::size_t>(r)]) {
      oldLoc[static_cast<std::size_t>(e.g - myLo)] = OwnerOffset{r, e.off};
    }
    for (const GlobalOffset& e : newAt[static_cast<std::size_t>(r)]) {
      newLoc[static_cast<std::size_t>(e.g - myLo)] = OwnerOffset{r, e.off};
    }
  }
  std::vector<Index> mineMigrated;
  for (Index g = myLo; g < myHi; ++g) {
    const OwnerOffset& a = oldLoc[static_cast<std::size_t>(g - myLo)];
    const OwnerOffset& b = newLoc[static_cast<std::size_t>(g - myLo)];
    if (a.owner != b.owner || (a.owner >= 0 && a.off != b.off)) {
      mineMigrated.push_back(g);
    }
  }
  // Home ranges ascend with rank, so concatenating the rows in rank order
  // yields the globally sorted migrated set directly.
  auto rows = comm.allgather<Index>(std::span<const Index>(mineMigrated));
  std::vector<Index> migrated;
  for (const std::vector<Index>& row : rows) {
    migrated.insert(migrated.end(), row.begin(), row.end());
  }
  return migrated;
}

}  // namespace mc::chaos::oracle
