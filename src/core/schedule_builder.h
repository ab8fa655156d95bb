// Meta-Chaos communication-schedule computation (paper Sections 4.1.3,
// Figure 8).
//
// Given a source SetOfRegions (data distributed by library X) and a
// destination SetOfRegions (library Y) with equal element counts, the
// builder pairs element i of the source linearization with element i of the
// destination linearization and derives, for every processor, which
// elements to send where / receive whence — aggregated to at most one
// message per processor pair.
//
// Two build methods, as in the paper (Section 5.1):
//
//  * duplication — every processor holds (or has been shipped) both
//    distribution descriptors, enumerates *both* linearizations locally,
//    and extracts its own plans.  No communication during the build, but
//    the ownership computation runs twice (hence ~2x the dereference cost
//    in Table 2), and for Chaos the descriptor itself is huge.
//
//  * cooperation — the source side enumerates only source ownership, the
//    destination side only destination ownership; the halves are joined at
//    the destination side (each destination processor owns a contiguous
//    chunk of linearization positions), which then returns each source
//    processor its send plan.  One ownership pass per side, at the price of
//    some build-time communication.
//
// Both intra-program builds (one program, two libraries) and inter-program
// builds (source and destination in different programs) are supported; all
// builds are collective over every program involved.
#pragma once

#include "core/adapter.h"
#include "core/registry.h"
#include "layout/dist_delta.h"
#include "sched/executor_slot.h"
#include "sched/schedule.h"

namespace mc::core {

enum class Method { kCooperation, kDuplication };

/// Build provenance: one maximal greedy-coalesced segment of linearization
/// positions this rank *sources* (srcOwner == me).  Covers both remote
/// sends (dstOwner != me) and local copies (dstOwner == me).  Sorted by
/// lin, disjoint; the canonical greedy cut (sched::appendRun), so two
/// builds of the same distributions produce bit-identical segment streams.
struct SendSeg {
  layout::Index lin = 0;  ///< first linearization position of the segment
  layout::Index srcOff = 0;
  layout::Index dstOff = 0;
  layout::Index count = 0;
  layout::Index srcStride = 0;
  layout::Index dstStride = 0;
  layout::Index dstOwner = 0;
  bool operator==(const SendSeg&) const = default;
  static constexpr sched::RunShape<SendSeg, 2> kShape{
      {{{&SendSeg::srcOff, &SendSeg::srcStride},
        {&SendSeg::dstOff, &SendSeg::dstStride}}},
      &SendSeg::lin,
      &SendSeg::dstOwner};
};

/// Build provenance: one segment this rank *receives* (dstOwner == me,
/// srcOwner != me).
struct RecvSeg {
  layout::Index lin = 0;
  layout::Index dstOff = 0;
  layout::Index count = 0;
  layout::Index dstStride = 0;
  layout::Index srcOwner = 0;
  bool operator==(const RecvSeg&) const = default;
  static constexpr sched::RunShape<RecvSeg, 1> kShape{
      {{{&RecvSeg::dstOff, &RecvSeg::dstStride}}},
      &RecvSeg::lin,
      &RecvSeg::srcOwner};
};

/// A Meta-Chaos communication schedule.  Sends' offsets index the local
/// source buffer; recvs' offsets index the local destination buffer; local
/// pairs (intra-program only) copy directly — Meta-Chaos never stages local
/// transfers through an intermediate buffer (Section 5.3).
///
/// The contract sched::Executor already has: a plan does not change once
/// it has been executed, and only the rank that holds a schedule executes
/// it.  dataMove, dataMoveSend and dataMoveRecv bind an executor to the
/// plan on their first call and keep it in `executor`, so every later call
/// with the same element type and Comm runs without binding again.  A
/// copied, moved or assigned schedule starts with an empty slot.
struct McSchedule {
  sched::Schedule plan;
  layout::Index numElements = 0;
  /// -1 for intra-program schedules; otherwise the peer program id (send
  /// plans target its ranks).
  int remoteProgram = -1;
  bool isSender = false;  ///< inter-program only: which side this half is
  /// Per-lin provenance recorded by the intra-program builders (empty for
  /// inter-program halves).  patchSchedule subtracts a DistDelta against
  /// these streams to rebuild only migrated intervals.
  bool hasProvenance = false;
  std::vector<SendSeg> sendSegs;
  std::vector<RecvSeg> recvSegs;
  /// The executor bound to `plan` by the first dataMove* call (see above).
  mutable sched::ExecutorSlot executor;
};

/// Intra-program build: both data structures live in the calling program.
/// Collective over the program.
McSchedule computeSchedule(transport::Comm& comm, const DistObject& srcObj,
                           const SetOfRegions& srcSet,
                           const DistObject& dstObj,
                           const SetOfRegions& dstSet,
                           Method method = Method::kCooperation);

/// Inter-program build, source side: the calling program owns the source
/// data; the destination program (`remoteProgram`) must concurrently call
/// computeScheduleRecv.  Collective over both programs.
McSchedule computeScheduleSend(transport::Comm& comm, const DistObject& srcObj,
                               const SetOfRegions& srcSet, int remoteProgram,
                               Method method = Method::kCooperation);

/// Inter-program build, destination side.
McSchedule computeScheduleRecv(transport::Comm& comm, const DistObject& dstObj,
                               const SetOfRegions& dstSet, int remoteProgram,
                               Method method = Method::kCooperation);

/// Reverses a schedule: the same schedule then copies data the other way
/// (paper Section 4.3: "the communication schedule is also symmetric").
/// Provenance is not carried through a reversal (reversed schedules are
/// not patchable).
McSchedule reverseSchedule(const McSchedule& sched);

/// True when `old` can be patched against new descriptors: it was built
/// intra-program with provenance recorded, and both new descriptors can be
/// enumerated locally (patching is communication-free).
bool patchableSchedule(const McSchedule& old, const DistObject& newSrcObj,
                       const DistObject& newDstObj);

/// Patches a cached schedule across a repartitioning instead of a full
/// inspector rebuild.  `delta` marks every linearization position whose
/// (owner, offset) mapping changed on either side (over-approximation is
/// safe); `newSrcObj`/`newDstObj` describe the *new* distributions.  Only
/// segments intersecting the delta are re-derived (one local ownership
/// enumeration per migrated interval); everything else is reused from the
/// old schedule's provenance via two-pointer interval subtraction.  The
/// result — plans and provenance — is bit-identical to a fresh
/// computeSchedule of the new distributions, so patched schedules are
/// themselves patchable.  Collective only in modeled cost (no messages);
/// every rank must call it with the same delta.
McSchedule patchSchedule(transport::Comm& comm, const McSchedule& old,
                         const layout::DistDelta& delta,
                         const DistObject& newSrcObj,
                         const SetOfRegions& srcSet,
                         const DistObject& newDstObj,
                         const SetOfRegions& dstSet);

/// Computes the DistDelta between two distributions of the same set: the
/// linearization positions whose (owner, offset) mapping differs.  Both
/// descriptors must support local enumeration; communication-free.
layout::DistDelta computeDelta(const DistObject& oldObj,
                               const DistObject& newObj,
                               const SetOfRegions& set);

/// Maps a sorted list of migrated global indices (e.g. from
/// chaos::migratedGlobals) to linearization positions of `set`.  Supports
/// index-list and range regions (the kinds whose elements *are* global
/// indices).  Marks the migrated globals in a bitmap sized by the set's
/// largest element (globals beyond it are ignored), then tests each set
/// element once: O(set + migrated).
layout::DistDelta deltaFromMigratedIndices(
    const SetOfRegions& set, std::span<const layout::Index> sortedMigrated);

/// Builds the data-redistribution move for a repartitioning: a run-native
/// schedule that migrates the payloads of delta-marked elements from their
/// old homes (offsets into the *old* local buffer) to their new homes
/// (offsets into the *new* local buffer).  Unmarked elements keep their
/// (owner, offset) by the delta contract, so the caller carries them over
/// by straight copy.  Both descriptors must support local enumeration.
sched::Schedule buildRedistMove(transport::Comm& comm,
                                const DistObject& oldObj,
                                const DistObject& newObj,
                                const SetOfRegions& set,
                                const layout::DistDelta& delta);

/// Telemetry from the last computeSchedule/computeScheduleSend/
/// computeScheduleRecv call on this thread (each virtual processor is a
/// thread, so the figures are per-rank): the bytes of ownership-table state
/// the build materialized.  The builder keeps this proportional to the
/// number of ownership runs, not the number of elements.
struct BuildStats {
  std::size_t ownershipTableBytes = 0;
};
const BuildStats& lastBuildStats();

/// Telemetry from the last patchSchedule call on this thread.
struct PatchStats {
  std::size_t segmentsReused = 0;   ///< old provenance slices kept as-is
  std::size_t segmentsRebuilt = 0;  ///< fresh segments from delta intervals
  layout::Index elementsPatched = 0;  ///< delta positions re-derived
};
const PatchStats& lastPatchStats();

}  // namespace mc::core
