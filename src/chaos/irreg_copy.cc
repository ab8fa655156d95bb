#include "chaos/irreg_copy.h"

namespace mc::chaos {

using layout::Index;

sched::Schedule buildIrregCopySchedule(transport::Comm& comm,
                                       const TranslationTable& dstTable,
                                       std::span<const Index> mySrcOffsets,
                                       std::span<const Index> dstGlobals) {
  MC_REQUIRE(mySrcOffsets.size() == dstGlobals.size(),
             "mapping lists differ in length (%zu vs %zu)",
             mySrcOffsets.size(), dstGlobals.size());
  const int np = comm.size();
  const int me = comm.rank();
  sched::Schedule out;

  // The dominant cost: dereferencing the destination side — batched and
  // cached, so a rebuild against the same table resolves locally.
  const std::vector<ElementLoc> locs = comm.computeValue([&] {
    return dstTable.dereferenceCached(comm, dstGlobals);
  });

  // Group by destination owner; ship the destination local offsets so the
  // receiver can build its unpack plan without further lookups.
  std::vector<std::vector<Index>> srcOffTo(static_cast<size_t>(np));
  std::vector<std::vector<Index>> dstOffTo(static_cast<size_t>(np));
  for (size_t i = 0; i < dstGlobals.size(); ++i) {
    const ElementLoc& loc = locs[i];
    if (loc.proc == me) {
      sched::appendLocalRun(out.localRuns,
                            sched::LocalRun{mySrcOffsets[i], loc.offset, 1,
                                            0, 0});
    } else {
      srcOffTo[static_cast<size_t>(loc.proc)].push_back(mySrcOffsets[i]);
      dstOffTo[static_cast<size_t>(loc.proc)].push_back(loc.offset);
    }
  }
  auto incoming = comm.alltoall(dstOffTo);
  for (int q = 0; q < np; ++q) {
    const auto qq = static_cast<size_t>(q);
    if (q != me && !srcOffTo[qq].empty()) {
      out.sends.push_back(
          sched::OffsetPlan{q, {}, sched::compressOffsets(srcOffTo[qq])});
    }
    if (q != me && !incoming[qq].empty()) {
      out.recvs.push_back(
          sched::OffsetPlan{q, {}, sched::compressOffsets(incoming[qq])});
    }
  }
  out.sortByPeer();
  return out;
}

}  // namespace mc::chaos
