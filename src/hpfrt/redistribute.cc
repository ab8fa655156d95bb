#include "hpfrt/redistribute.h"

namespace mc::hpfrt {

sched::Schedule buildRedistSchedule(const HpfDist& srcDist,
                                    const layout::RegularSection& srcSec,
                                    const HpfDist& dstDist,
                                    const layout::RegularSection& dstSec,
                                    int myProc) {
  MC_REQUIRE(srcSec.numElements() == dstSec.numElements(),
             "sections must have equal element counts (%lld vs %lld)",
             static_cast<long long>(srcSec.numElements()),
             static_cast<long long>(dstSec.numElements()));
  sched::Schedule out;
  std::vector<sched::OffsetPlan> sendBy(static_cast<size_t>(dstDist.nprocs()));
  std::vector<sched::OffsetPlan> recvBy(static_cast<size_t>(srcDist.nprocs()));
  const layout::Index n = srcSec.numElements();
  for (layout::Index k = 0; k < n; ++k) {
    const layout::Point sp = srcSec.pointAt(k);
    const layout::Point dp = dstSec.pointAt(k);
    const int sOwner = srcDist.ownerOf(sp);
    const int dOwner = dstDist.ownerOf(dp);
    if (sOwner == myProc && dOwner == myProc) {
      sched::appendRun(out.localRuns,
                       sched::LocalRun{srcDist.localOffset(myProc, sp),
                                       dstDist.localOffset(myProc, dp), 1, 0,
                                       0});
    } else if (sOwner == myProc) {
      sched::appendRun(
          sendBy[static_cast<size_t>(dOwner)].runs,
          sched::OffsetRun{srcDist.localOffset(myProc, sp), 1, 0});
    } else if (dOwner == myProc) {
      sched::appendRun(
          recvBy[static_cast<size_t>(sOwner)].runs,
          sched::OffsetRun{dstDist.localOffset(myProc, dp), 1, 0});
    }
  }
  for (int q = 0; q < dstDist.nprocs(); ++q) {
    auto& plan = sendBy[static_cast<size_t>(q)];
    if (plan.runs.empty()) continue;
    plan.peer = q;
    out.sends.push_back(std::move(plan));
  }
  for (int q = 0; q < srcDist.nprocs(); ++q) {
    auto& plan = recvBy[static_cast<size_t>(q)];
    if (plan.runs.empty()) continue;
    plan.peer = q;
    out.recvs.push_back(std::move(plan));
  }
  out.sortByPeer();
  return out;
}

}  // namespace mc::hpfrt
