#include "chaos/migration.h"

#include <algorithm>
#include <iterator>

namespace mc::chaos {

using layout::Index;

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
  // and decides migration locally — two all-to-alls and one allgather,
  // independent of how irregular the distributions are.
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

std::vector<Index> stableRemapOrder(std::span<const Index> oldMine,
                                    std::span<const Index> newMineAnyOrder) {
  const auto sorted = [](std::span<const Index> v) {
    std::vector<Index> out(v.begin(), v.end());
    if (!std::is_sorted(out.begin(), out.end())) {
      std::sort(out.begin(), out.end());
    }
    return out;
  };
  const std::vector<Index> oldSorted = sorted(oldMine);
  const std::vector<Index> newSorted = sorted(newMineAnyOrder);
  // One merge each: the points that arrive and the (usually few) that
  // leave, both ascending.
  std::vector<Index> arrivals, departures;
  std::set_difference(newSorted.begin(), newSorted.end(), oldSorted.begin(),
                      oldSorted.end(), std::back_inserter(arrivals));
  std::set_difference(oldSorted.begin(), oldSorted.end(), newSorted.begin(),
                      newSorted.end(), std::back_inserter(departures));
  std::vector<Index> out;
  out.reserve(newSorted.size());
  std::size_t a = 0;
  for (const Index g : oldMine) {
    if (!std::binary_search(departures.begin(), departures.end(), g)) {
      out.push_back(g);  // survivor keeps its slot
    } else if (a < arrivals.size()) {
      out.push_back(arrivals[a++]);  // departure's slot reused in place
    }
    // else: the assignment shrank past this slot; later survivors shift
    // left — unavoidable without holes in the local buffer.
  }
  out.insert(out.end(), arrivals.begin() + static_cast<std::ptrdiff_t>(a),
             arrivals.end());
  return out;
}

}  // namespace mc::chaos
