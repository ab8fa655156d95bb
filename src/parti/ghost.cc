#include "parti/ghost.h"

namespace mc::parti {

namespace {

/// `peer`'s plan over the stride-1 box `cells`: one run of `addr` offsets
/// per last-dimension row.
OffsetPlan rowPlan(int peer, const layout::RegularSection& cells,
                   const PartiAddr& addr) {
  OffsetPlan plan;
  plan.peer = peer;
  cells.forEachRow([&](const layout::Point& first, layout::Index count) {
    sched::appendOffsetRun(plan.runs,
                           sched::OffsetRun{addr.offsetOf(first), count, 1});
  });
  return plan;
}

}  // namespace

Schedule buildGhostSchedule(const PartiDesc& desc, int myProc) {
  Schedule sched;
  if (desc.ghost == 0) return sched;
  const layout::BlockDecomp& decomp = desc.decomp;
  const layout::Shape& domain = decomp.globalShape();
  const layout::RegularSection myBox = decomp.ownedBox(myProc);
  if (myBox.empty()) return sched;
  const layout::RegularSection myHalo =
      layout::expandBox(myBox, desc.ghost, domain);
  const PartiAddr myAddr = desc.addrOf(myProc);

  for (int q = 0; q < decomp.nprocs(); ++q) {
    if (q == myProc) continue;
    const layout::RegularSection qBox = decomp.ownedBox(q);
    if (qBox.empty()) continue;
    // Halo cells I need that q owns.
    const layout::RegularSection need = layout::intersectBoxes(myHalo, qBox);
    if (!need.empty()) sched.recvs.push_back(rowPlan(q, need, myAddr));
    // Cells I own that fall in q's halo.
    const layout::RegularSection qHalo =
        layout::expandBox(qBox, desc.ghost, domain);
    const layout::RegularSection give = layout::intersectBoxes(qHalo, myBox);
    if (!give.empty()) sched.sends.push_back(rowPlan(q, give, myAddr));
  }
  sched.sortByPeer();
  return sched;
}

}  // namespace mc::parti
