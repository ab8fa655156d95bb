#include "chaos/localize.h"

#include <algorithm>
#include <utility>

#include "chaos/deref_cache.h"

namespace mc::chaos {

using layout::Index;

Localized localize(transport::Comm& comm, const TranslationTable& table,
                   std::span<const Index> refs) {
  Localized out;
  const int np = comm.size();
  const int me = comm.rank();
  const Index ownedCount = table.localCount(me);

  // Sort-and-unique the references; uniqOf maps each reference to its
  // distinct slot.  The sorted distinct batch is what the dereference
  // cache probes in one pass.
  std::vector<Index> uniq;
  std::vector<std::uint32_t> uniqOf(refs.size());
  comm.compute([&] {
    std::vector<std::pair<Index, std::uint32_t>> order(refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
      order[i] = {refs[i], static_cast<std::uint32_t>(i)};
    }
    std::sort(order.begin(), order.end());
    uniq.reserve(order.size());
    for (const auto& [g, pos] : order) {
      if (uniq.empty() || uniq.back() != g) uniq.push_back(g);
      uniqOf[pos] = static_cast<std::uint32_t>(uniq.size() - 1);
    }
  });

  // Batched, cached dereference of the distinct references (collective).
  const std::vector<ElementLoc> locs = table.dereferenceCached(comm, uniq);

  // Walk the references in their original order, assigning each distinct
  // off-processor reference a ghost slot at its FIRST appearance — the
  // same slot sequence the hash-based oracle produces — and rewrite the
  // reference list in the same pass.
  std::vector<std::vector<Index>> wantOffsets(static_cast<size_t>(np));
  std::vector<std::vector<Index>> wantGhostSlots(static_cast<size_t>(np));
  comm.compute([&] {
    std::vector<Index> localOfUnique(uniq.size());
    std::vector<std::uint8_t> seen(uniq.size(), 0);
    Index ghostCount = 0;
    out.localIndices.reserve(refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
      const std::uint32_t u = uniqOf[i];
      if (!seen[u]) {
        seen[u] = 1;
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
      out.localIndices.push_back(localOfUnique[u]);
    }
    out.ghostCount = ghostCount;
  });

  // Exchange requests: the owner's send plan is my request list, in my
  // request order; my recv plan is the matching ghost slots.
  auto requests = comm.alltoall(wantOffsets);
  for (int q = 0; q < np; ++q) {
    const auto qq = static_cast<size_t>(q);
    if (q != me && !wantOffsets[qq].empty()) {
      sched::OffsetPlan plan;
      plan.peer = q;
      plan.offsets = std::move(wantGhostSlots[qq]);  // ghost-buffer indices
      out.gatherSched.recvs.push_back(std::move(plan));
    }
    if (q != me && !requests[qq].empty()) {
      sched::OffsetPlan plan;
      plan.peer = q;
      plan.offsets = std::move(requests[qq]);  // my owned offsets they want
      out.gatherSched.sends.push_back(std::move(plan));
    }
  }
  out.gatherSched.sortByPeer();
  out.scatterAddSched = sched::reverse(out.gatherSched);
  return out;
}

}  // namespace mc::chaos
