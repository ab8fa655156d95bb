#include "oracle/localize_oracle.h"

#include <unordered_map>
#include <utility>

#include "oracle/run_reference.h"

namespace mc::chaos::oracle {

using layout::Index;

Localized localizeReference(transport::Comm& comm,
                            const TranslationTable& table,
                            std::span<const Index> refs) {
  Localized out;
  const int np = comm.size();
  const int me = comm.rank();
  const Index ownedCount = table.localCount(me);

  // Distinct references in first-appearance order.
  std::vector<Index> unique;
  std::unordered_map<Index, size_t> uniqueIdx;
  unique.reserve(refs.size());
  for (Index g : refs) {
    if (uniqueIdx.emplace(g, unique.size()).second) unique.push_back(g);
  }

  // One dereference per distinct reference (collective), uncached.
  const std::vector<ElementLoc> locs = comm.computeValue([&] {
    return table.dereference(comm, unique);
  });

  // Assign ghost slots to distinct off-processor references and group the
  // needed remote offsets by owner.
  std::vector<Index> localOfUnique(unique.size());
  std::vector<std::vector<Index>> wantOffsets(static_cast<size_t>(np));
  std::vector<std::vector<Index>> wantGhostSlots(static_cast<size_t>(np));
  Index ghostCount = 0;
  for (size_t u = 0; u < unique.size(); ++u) {
    const ElementLoc& loc = locs[u];
    if (loc.proc == me) {
      localOfUnique[u] = loc.offset;
    } else {
      localOfUnique[u] = ownedCount + ghostCount;
      wantOffsets[static_cast<size_t>(loc.proc)].push_back(loc.offset);
      wantGhostSlots[static_cast<size_t>(loc.proc)].push_back(ghostCount);
      ++ghostCount;
    }
  }
  out.ghostCount = ghostCount;

  // Rewrite the full reference list.
  out.localIndices.reserve(refs.size());
  for (Index g : refs) {
    out.localIndices.push_back(localOfUnique[uniqueIdx[g]]);
  }

  // Exchange requests: the owner's send plan is my request list, in my
  // request order; my recv plan is the matching ghost slots.
  auto requests = comm.alltoall(wantOffsets);
  for (int q = 0; q < np; ++q) {
    const auto qq = static_cast<size_t>(q);
    if (q != me && !wantOffsets[qq].empty()) {
      sched::OffsetPlan plan;
      plan.peer = q;
      plan.runs =
          sched::reference::compressOffsets(wantGhostSlots[qq]);  // ghost slots
      out.gatherSched.recvs.push_back(std::move(plan));
    }
    if (q != me && !requests[qq].empty()) {
      sched::OffsetPlan plan;
      plan.peer = q;
      // My owned offsets they want, in their request order.
      plan.runs = sched::reference::compressOffsets(requests[qq]);
      out.gatherSched.sends.push_back(std::move(plan));
    }
  }
  out.gatherSched.sortByPeer();
  out.scatterAddSched = sched::reverse(out.gatherSched);
  return out;
}

}  // namespace mc::chaos::oracle
