// Ghost (overlap) cell exchange for Parti arrays.
//
// buildGhostSchedule is the *inspector*: from the replicated distribution
// descriptor alone — no communication — each processor derives which halo
// cells it must receive from which owner, and which of its owned cells its
// neighbours need.  Executing the schedule (the *executor*) fills every halo
// cell with the owner's current value; it is typically run once per
// time-step, as in Loop 1 of the paper's Figure 1 code.
#pragma once

#include <memory>

#include "parti/dist_array.h"
#include "parti/schedule.h"

namespace mc::parti {

/// Builds the ghost-fill schedule for processor `myProc` of an array
/// described by `desc`.  Pure local computation.
Schedule buildGhostSchedule(const PartiDesc& desc, int myProc);

/// Convenience: build for the calling processor of `array`.
template <typename T>
Schedule buildGhostSchedule(const BlockDistArray<T>& array) {
  return buildGhostSchedule(array.desc(), array.comm().rank());
}

/// Executes a ghost fill on `array` (collective).  One-shot; time-step
/// loops should hold a GhostExchanger instead.
template <typename T>
void exchangeGhosts(BlockDistArray<T>& array, const Schedule& sched) {
  const int tag = array.comm().nextUserTag();
  execute<T>(array.comm(), sched, array.raw(), array.raw(), tag);
}

/// A persistent ghost-fill executor for one array: builds the array's ghost
/// schedule once (run-compressed, no communication) and keeps a bound
/// sched::Executor across exchanges, so steady-state fills reuse their
/// message buffers (zero transport payload copies or allocations per
/// step).  The array must outlive the exchanger and keep its distribution.
template <typename T>
class GhostExchanger {
 public:
  explicit GhostExchanger(BlockDistArray<T>& array)
      : array_(&array), exec_(array.comm(), compressedSchedule(array)) {}

  /// One collective ghost fill (src and dst alias the array's storage).
  void exchange() { exec_.run(array_->raw(), array_->raw()); }

  /// Split-phase ghost fill: posts the sends and returns a handle; the
  /// caller computes away from the footprint (see sched/footprint.h),
  /// polls, and finishes with finish(array().raw()).
  typename Executor<T>::Pending startExchange() {
    return exec_.start(array_->raw());
  }

  const Schedule& schedule() const { return exec_.schedule(); }
  Executor<T>& executor() { return exec_; }

 private:
  static std::shared_ptr<const Schedule> compressedSchedule(
      const BlockDistArray<T>& array) {
    auto sched = std::make_shared<Schedule>(buildGhostSchedule(array));
    sched->compress();
    return sched;
  }

  BlockDistArray<T>* array_;
  Executor<T> exec_;
};

}  // namespace mc::parti
