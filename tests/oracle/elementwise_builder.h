// The element-wise reference schedule builder.
//
// Same entry points and the same build methods as core::computeSchedule /
// computeScheduleSend / computeScheduleRecv, but
// every ownership table holds one (owner, offset) entry per element and
// every join walks positions one at a time; plans are listed element by
// element and compressed last.  The run-native builder must produce
// bit-identical schedules and identical provenance.  It is a test-only
// oracle:
//
//   * the oracle for the builder's differential tests (test_run_join,
//     ScheduleDelta.ElementwiseProvenanceParity and
//     ScheduleDelta.RedistMoveMatchesElementwiseOracle), and
//   * the baseline leg of bench/micro_schedule_build, which links the
//     mc_test_oracles target.
//
// Ownership reaches the chunk owners by the paper's owner-routing protocol:
// each processor lists the elements it owns (forEachElement's owner filter,
// or for Chaos a sliced dereferenceCached whose results travel to their
// owners) and routes them to the chunk owners, where the production
// builder asks the adapter for each chunk by position.  Every other
// ownership table — a locally enumerable chunk, the duplication method's
// whole sets — comes element by element from forEachElement
// (element_reference.h), never from the adapters' run inquiries.  Both
// derivations resolve Chaos ownership through the same dereference cache.
// The oracle shares no appender with the production builder: its
// ownership streams, marching orders and provenance grow through the
// element-wise appenders below, and its plans through sched::reference
// (run_reference.h).  Its inter-program halves speak the owner-routing
// wire protocol, so they pair with each other, not with the production
// halves.
#pragma once

#include <cstddef>
#include <vector>

#include "core/schedule_builder.h"

namespace mc::core::elementwise {

/// The oracle's element-wise appenders: each extends the tail of `lane`
/// with one element or starts a new run, the greedy sched::appendRun must
/// reproduce for that run type.  emitLin fills one owner's lane of any run
/// type with LinRun's (lin, off, count, offStride) fields: core::LinRun
/// (owner left 0) or the oracle's owner-free wire row, whose owner is its
/// sender.  A RecvSeg has a LinRun's shape, so emitRecv also serves as the
/// reference for core::RunEmitter.
template <typename Run>
void emitLin(std::vector<Run>& lane, layout::Index lin, layout::Index off) {
  if (!lane.empty()) {
    Run& run = lane.back();
    if (lin == run.lin + run.count) {
      if (run.count == 1) {
        run.offStride = off - run.off;
        ++run.count;
        return;
      }
      if (off == run.off + run.count * run.offStride) {
        ++run.count;
        return;
      }
    }
  }
  lane.push_back(Run{lin, off, 1, 0});
}
void emitSend(std::vector<SendSeg>& lane, layout::Index lin,
              layout::Index srcOff, layout::Index dstOff,
              layout::Index dstOwner);
void emitRecv(std::vector<RecvSeg>& lane, layout::Index lin,
              layout::Index dstOff, layout::Index srcOwner);

/// Element-wise core::computeSchedule.  `tableBytes`, when non-null,
/// receives the bytes of ownership-table state this rank materialized.
McSchedule computeSchedule(transport::Comm& comm, const DistObject& srcObj,
                           const SetOfRegions& srcSet,
                           const DistObject& dstObj,
                           const SetOfRegions& dstSet,
                           Method method = Method::kCooperation,
                           std::size_t* tableBytes = nullptr);

/// Element-wise core::computeScheduleSend; pairs with the oracle's
/// computeScheduleRecv on the remote program (with either builder's, for
/// the duplication method, whose wire protocol they share).
McSchedule computeScheduleSend(transport::Comm& comm, const DistObject& srcObj,
                               const SetOfRegions& srcSet, int remoteProgram,
                               Method method = Method::kCooperation,
                               std::size_t* tableBytes = nullptr);

/// Element-wise core::computeScheduleRecv.
McSchedule computeScheduleRecv(transport::Comm& comm, const DistObject& dstObj,
                               const SetOfRegions& dstSet, int remoteProgram,
                               Method method = Method::kCooperation,
                               std::size_t* tableBytes = nullptr);

/// Element-wise core::buildRedistMove: for every delta position, the old
/// and the new (owner, offset) from forEachElement, listed element by
/// element and compressed last.
sched::Schedule buildRedistMove(transport::Comm& comm,
                                const DistObject& oldObj,
                                const DistObject& newObj,
                                const SetOfRegions& set,
                                const layout::DistDelta& delta);

}  // namespace mc::core::elementwise
