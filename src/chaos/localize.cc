#include "chaos/localize.h"

#include "chaos/deref_cache.h"

namespace mc::chaos {

using layout::Index;

Localized localize(transport::Comm& comm, const TranslationTable& table,
                   std::span<const Index> refs) {
  Localized out;
  const int np = comm.size();
  const int me = comm.rank();
  const Index ownedCount = table.localCount(me);

  // Sort-and-unique the references (deref_cache.h); batch.uniqOf maps each
  // reference to its distinct slot.
  const SortedBatch batch = comm.computeValue(
      [&] { return sortUnique(refs, table.globalSize()); });
  const std::vector<Index>& uniq = batch.uniq;
  const std::vector<std::uint32_t>& uniqOf = batch.uniqOf;

  // Batched, cached dereference of the distinct references (collective);
  // the batch is already sorted and distinct, so it is not sorted again.
  const std::vector<ElementLoc> locs = table.dereferenceSorted(comm, uniq);

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
    if (q != me && !wantOffsets[qq].empty()) {  // ghost-buffer indices
      out.gatherSched.recvs.push_back(sched::OffsetPlan{
          q, {}, sched::compressOffsets(wantGhostSlots[qq])});
    }
    if (q != me && !requests[qq].empty()) {  // my owned offsets they want
      out.gatherSched.sends.push_back(
          sched::OffsetPlan{q, {}, sched::compressOffsets(requests[qq])});
    }
  }
  out.gatherSched.sortByPeer();
  out.scatterAddSched = sched::reverse(out.gatherSched);
  return out;
}

}  // namespace mc::chaos
