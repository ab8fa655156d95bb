// Intra-HPF redistribution: copy (a section of) one HPF array into (a
// section of) another with a different distribution.
//
// The schedule builder is closed-form: both sides' ownership is computable
// locally from the two HpfDist descriptors, so the build needs no
// communication — the HPF analogue of the "duplication" path.  Sections are
// paired element-by-element in row-major linearization order, HPF
// array-assignment semantics (A[s1] = B[s2] with conformant sections).
#pragma once

#include "hpfrt/hpf_array.h"
#include "sched/executor.h"

namespace mc::hpfrt {

/// Builds the redistribution schedule on `myProc`.  `srcSec` and `dstSec`
/// must contain the same number of elements (they are paired in row-major
/// linearization order, which for conformant sections is dimension-wise).
sched::Schedule buildRedistSchedule(const HpfDist& srcDist,
                                    const layout::RegularSection& srcSec,
                                    const HpfDist& dstDist,
                                    const layout::RegularSection& dstSec,
                                    int myProc);

/// Executes the redistribution (collective).
template <typename T>
void redistribute(const sched::Schedule& sched, const HpfArray<T>& src,
                  HpfArray<T>& dst) {
  transport::Comm& comm = src.comm();
  const int tag = comm.nextUserTag();
  sched::execute<T>(comm, sched, src.raw(), dst.raw(), tag);
}

/// HPF array-section assignment, dst[dstSec] = src[srcSec], in one call —
/// the runtime operation behind `A(1:50, 10:60) = B(50:99, 50:100)`.
/// One-shot: builds and executes; a loop repeating the same assignment
/// keeps buildRedistSchedule's result and calls redistribute.
template <typename T>
void sectionAssign(const HpfArray<T>& src, const layout::RegularSection& srcSec,
                   HpfArray<T>& dst, const layout::RegularSection& dstSec) {
  redistribute(buildRedistSchedule(src.dist(), srcSec, dst.dist(), dstSec,
                                   src.comm().rank()),
               src, dst);
}

}  // namespace mc::hpfrt
