// The element-wise reference schedule builder.
//
// Same entry points, same build methods and the same wire protocol as
// core::computeSchedule / computeScheduleSend / computeScheduleRecv, but
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
// Ownership comes through the same LibraryAdapter inquiry functions the
// production builder calls (including the Chaos dereference cache), so an
// A/B against this builder compares only the join pipelines.
#pragma once

#include <cstddef>

#include "core/schedule_builder.h"

namespace mc::core::elementwise {

/// Element-wise core::computeSchedule.  `tableBytes`, when non-null,
/// receives the bytes of ownership-table state this rank materialized.
McSchedule computeSchedule(transport::Comm& comm, const DistObject& srcObj,
                           const SetOfRegions& srcSet,
                           const DistObject& dstObj,
                           const SetOfRegions& dstSet,
                           Method method = Method::kCooperation,
                           std::size_t* tableBytes = nullptr);

/// Element-wise core::computeScheduleSend; pairs with either builder's
/// computeScheduleRecv on the remote program.
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
/// and the new (owner, offset) from enumerateAll, listed element by element
/// and compressed last.
sched::Schedule buildRedistMove(transport::Comm& comm,
                                const DistObject& oldObj,
                                const DistObject& newObj,
                                const SetOfRegions& set,
                                const layout::DistDelta& delta);

}  // namespace mc::core::elementwise
