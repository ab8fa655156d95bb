#include "parti/section_copy.h"

namespace mc::parti {

namespace {

using layout::Index;
using layout::Point;
using layout::RegularSection;

/// Maps point `p`, which lies on section `from`, to the corresponding point
/// of conformant section `to` (dimension-wise position preservation).
Point mapPoint(const RegularSection& from, const RegularSection& to,
               const Point& p) {
  Point out;
  out.rank = p.rank;
  for (int d = 0; d < p.rank; ++d) {
    const auto dd = static_cast<size_t>(d);
    out[d] = to.lo[dd] + (p[d] - from.lo[dd]) / from.stride[dd] * to.stride[dd];
  }
  return out;
}

/// Maps a sub-lattice of `from` (same stride multiples, aligned lo/hi) onto
/// the corresponding sub-lattice of `to`.
RegularSection mapSection(const RegularSection& sub, const RegularSection& from,
                          const RegularSection& to) {
  RegularSection out;
  out.rank = sub.rank;
  for (int d = 0; d < sub.rank; ++d) {
    const auto dd = static_cast<size_t>(d);
    if (sub.hi[dd] < sub.lo[dd]) {
      // Empty dimension: keep it empty in the image.
      out.lo[dd] = 1;
      out.hi[dd] = 0;
      out.stride[dd] = 1;
      continue;
    }
    MC_CHECK(sub.stride[dd] % from.stride[dd] == 0);
    const Index steps = sub.stride[dd] / from.stride[dd];
    out.lo[dd] = to.lo[dd] +
                 (sub.lo[dd] - from.lo[dd]) / from.stride[dd] * to.stride[dd];
    out.hi[dd] = to.lo[dd] +
                 (sub.hi[dd] - from.lo[dd]) / from.stride[dd] * to.stride[dd];
    out.stride[dd] = steps * to.stride[dd];
  }
  return out;
}

Point boxLo(const RegularSection& s) {
  Point p;
  p.rank = s.rank;
  for (int d = 0; d < s.rank; ++d) p[d] = s.lo[static_cast<size_t>(d)];
  return p;
}

Point boxHi(const RegularSection& s) {
  Point p;
  p.rank = s.rank;
  for (int d = 0; d < s.rank; ++d) p[d] = s.hi[static_cast<size_t>(d)];
  return p;
}

}  // namespace

Schedule buildSectionCopySchedule(const PartiDesc& srcDesc,
                                  const layout::RegularSection& srcSec,
                                  const PartiDesc& dstDesc,
                                  const layout::RegularSection& dstSec,
                                  int myProc) {
  MC_REQUIRE(srcSec.rank == dstSec.rank && srcSec.rank >= 1,
             "sections must have equal, nonzero rank (%d vs %d)", srcSec.rank,
             dstSec.rank);
  for (int d = 0; d < srcSec.rank; ++d) {
    MC_REQUIRE(srcSec.count(d) == dstSec.count(d),
               "sections must be conformant: dim %d has %lld vs %lld elements",
               d, static_cast<long long>(srcSec.count(d)),
               static_cast<long long>(dstSec.count(d)));
  }
  Schedule sched;
  const PartiAddr mySrcAddr = srcDesc.addrOf(myProc);
  const PartiAddr myDstAddr = dstDesc.addrOf(myProc);
  // Every lane walks destination rows; consecutive row elements are one
  // section stride apart on each side.
  const auto last = static_cast<size_t>(srcSec.rank - 1);
  const Index srcStep = srcSec.stride[last];
  const Index dstStep = dstSec.stride[last];

  // --- sends: section elements I own in the source array ---------------
  const RegularSection myBoxSrc = srcDesc.decomp.ownedBox(myProc);
  if (!myBoxSrc.empty()) {
    const RegularSection minePart =
        srcSec.clampToBox(boxLo(myBoxSrc), boxHi(myBoxSrc));
    if (!minePart.empty()) {
      const RegularSection mineInDst = mapSection(minePart, srcSec, dstSec);
      for (int q = 0; q < dstDesc.decomp.nprocs(); ++q) {
        const RegularSection qBox = dstDesc.decomp.ownedBox(q);
        if (qBox.empty()) continue;
        const RegularSection part =
            mineInDst.clampToBox(boxLo(qBox), boxHi(qBox));
        if (part.empty()) continue;
        if (q == myProc) {
          // Local transfer; enumerated in dst row-major order like remote
          // lanes, pairing (my src offset, my dst offset).
          part.forEachRow([&](const Point& pDst, Index n) {
            const Point pSrc = mapPoint(dstSec, srcSec, pDst);
            sched::appendLocalRun(
                sched.localRuns,
                sched::LocalRun{mySrcAddr.offsetOf(pSrc),
                                myDstAddr.offsetOf(pDst), n, srcStep,
                                dstStep});
          });
          continue;
        }
        OffsetPlan plan;
        plan.peer = q;
        part.forEachRow([&](const Point& pDst, Index n) {
          const Point pSrc = mapPoint(dstSec, srcSec, pDst);
          sched::appendOffsetRun(
              plan.runs,
              sched::OffsetRun{mySrcAddr.offsetOf(pSrc), n, srcStep});
        });
        sched.sends.push_back(std::move(plan));
      }
    }
  }

  // --- recvs: section elements I own in the destination array ----------
  const RegularSection myBoxDst = dstDesc.decomp.ownedBox(myProc);
  if (!myBoxDst.empty()) {
    const RegularSection minePart =
        dstSec.clampToBox(boxLo(myBoxDst), boxHi(myBoxDst));
    if (!minePart.empty()) {
      const RegularSection mineInSrc = mapSection(minePart, dstSec, srcSec);
      for (int q = 0; q < srcDesc.decomp.nprocs(); ++q) {
        if (q == myProc) continue;  // local pairs recorded on the send side
        const RegularSection qBox = srcDesc.decomp.ownedBox(q);
        if (qBox.empty()) continue;
        const RegularSection part =
            mineInSrc.clampToBox(boxLo(qBox), boxHi(qBox));
        if (part.empty()) continue;
        // Enumerate in *destination* row-major order to match the sender.
        const RegularSection partInDst = mapSection(part, srcSec, dstSec);
        OffsetPlan plan;
        plan.peer = q;
        partInDst.forEachRow([&](const Point& pDst, Index n) {
          sched::appendOffsetRun(
              plan.runs,
              sched::OffsetRun{myDstAddr.offsetOf(pDst), n, dstStep});
        });
        sched.recvs.push_back(std::move(plan));
      }
    }
  }
  sched.sortByPeer();
  return sched;
}

}  // namespace mc::parti
