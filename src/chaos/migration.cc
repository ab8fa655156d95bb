#include "chaos/migration.h"

#include <algorithm>
#include <iterator>

#include "util/error.h"
#include "util/radix_sort.h"

namespace mc::chaos {

using layout::Index;

std::vector<Index> migratedGlobals(transport::Comm& comm,
                                   std::span<const Index> oldMine,
                                   std::span<const Index> newMine,
                                   Index globalSize) {
  const auto outOfRange = [globalSize](Index g) {
    return g < 0 || g >= globalSize;
  };
  // Each global appears at most once per assignment, so it keeps its
  // (owner, offset) exactly when it sits in the same slot of the same rank
  // in both lists: report the globals of the slots that differ and the
  // longer list's tail.  An out-of-range index in an unchanged slot is
  // reported too, so every rank rejects it below.
  std::vector<Index> changed;
  const std::size_t common = std::min(oldMine.size(), newMine.size());
  for (std::size_t i = 0; i < common; ++i) {
    const Index a = oldMine[i];
    const Index b = newMine[i];
    if (a != b) {
      changed.push_back(a);
      changed.push_back(b);
    } else if (outOfRange(a)) {
      changed.push_back(a);
    }
  }
  for (const auto tail : {oldMine.subspan(common), newMine.subspan(common)}) {
    changed.insert(changed.end(), tail.begin(), tail.end());
  }
  const auto rows = comm.allgather<Index>(std::span<const Index>(changed));
  std::vector<Index> migrated;
  for (const std::vector<Index>& row : rows) {
    for (const Index g : row) {
      MC_REQUIRE(!outOfRange(g), "global index %lld outside [0, %lld)",
                 static_cast<long long>(g),
                 static_cast<long long>(globalSize));
    }
    migrated.insert(migrated.end(), row.begin(), row.end());
  }
  // A global that moved between ranks is reported by both.
  radixSort(migrated);
  migrated.erase(std::unique(migrated.begin(), migrated.end()),
                 migrated.end());
  return migrated;
}

std::vector<Index> stableRemapOrder(std::span<const Index> oldMine,
                                    std::span<const Index> newMineAnyOrder) {
  const auto sorted = [](std::span<const Index> v) {
    std::vector<Index> out(v.begin(), v.end());
    if (!std::is_sorted(out.begin(), out.end())) radixSort(out);
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
