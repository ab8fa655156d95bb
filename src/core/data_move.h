// Meta-Chaos data movement (paper Section 4.1.4).
//
// Executing a schedule packs source elements per destination processor in
// linearization order, ships at most one message per processor pair, copies
// processor-local elements *directly* (no staging buffer — the advantage
// over Multiblock Parti the paper notes in Section 5.3), and unpacks on the
// destination side.  Schedules are reusable: the typical pattern builds one
// schedule before a time-step loop and moves data every step.
//
//   * dataMove        — both data structures in the calling program.
//   * dataMoveSend    — source half of an inter-program move; the remote
//                       program concurrently calls dataMoveRecv.
//   * dataMoveRecv    — destination half.
//   * dataMoveBegin / dataMoveEnd — split-phase form of dataMove: Begin
//                       posts the sends and returns a PendingMove the
//                       caller can poll() while computing away from the
//                       schedule's destination footprint; End drains the
//                       rest and unpacks.  Results are bitwise identical
//                       to dataMove.
//
// All of them are collective over the program(s) involved: every processor
// must call them, even processors with nothing to transfer, so that
// inter-program tag counters stay paired.
//
// Bind once: dataMove, dataMoveSend and dataMoveRecv bind a sched::Executor
// to the schedule's plan on their first call and keep it in the schedule
// (McSchedule::executor); every later call with the same element type and
// Comm runs on it, with its compiled kernels and recycled payload buffers.
// A time-step loop therefore pays the bind once, like the build.
// dataMoveBegin binds its own executor per call instead, because several
// split-phase moves of one schedule may be in flight at once and each
// needs its own exchange state.
#pragma once

#include <memory>
#include <optional>

#include "core/schedule_builder.h"
#include "sched/executor.h"

namespace mc::core {

template <typename T>
void dataMove(transport::Comm& comm, const McSchedule& sched,
              std::span<const T> src, std::span<T> dst) {
  MC_REQUIRE(sched.remoteProgram < 0,
             "inter-program schedules need dataMoveSend/dataMoveRecv");
  const int tag = comm.nextUserTag();
  sched.executor
      .get<sched::Executor<T>>(
          comm, [&] { return sched::Executor<T>(comm, sched.plan); })
      .run(src, dst, tag);
}

/// A split-phase dataMove in flight: owns the executor it binds (one per
/// move, so moves of one schedule can overlap) plus the pending handle.
/// Move-only.  Call finish(dst) (or dataMoveEnd) exactly once; a
/// PendingMove dropped without finishing cancels cleanly (drains and
/// discards the exchange's messages).  The schedule must outlive the
/// PendingMove.
template <typename T>
class PendingMove {
 public:
  PendingMove(transport::Comm& comm, const McSchedule& sched,
              std::span<const T> src, int tag)
      : exec_(std::make_unique<sched::Executor<T>>(comm, sched.plan)) {
    pending_.emplace(exec_->start(src, tag));
  }
  PendingMove(PendingMove&&) noexcept = default;

  /// Non-blocking drain of already-arrived messages; true when all are in.
  bool poll() { return pending_->poll(); }
  bool done() const { return pending_->done(); }
  /// Drains the rest, applies local transfers, unpacks into dst.
  void finish(std::span<T> dst) { pending_->finish(dst); }
  /// Offsets the move touches (see sched/footprint.h for the contract on
  /// what the caller may compute between begin and end).
  const sched::Footprint& footprint() const { return exec_->footprint(); }

 private:
  std::unique_ptr<sched::Executor<T>> exec_;  // stable address for pending_
  std::optional<typename sched::Executor<T>::Pending> pending_;
};

/// Starts a split-phase intra-program move; pair with dataMoveEnd.
/// Collective (every processor begins and ends in the same order).
template <typename T>
PendingMove<T> dataMoveBegin(transport::Comm& comm, const McSchedule& sched,
                             std::span<const T> src) {
  MC_REQUIRE(sched.remoteProgram < 0,
             "inter-program schedules need dataMoveSend/dataMoveRecv");
  return PendingMove<T>(comm, sched, src, comm.nextUserTag());
}

template <typename T>
void dataMoveEnd(PendingMove<T>& move, std::span<T> dst) {
  move.finish(dst);
}

template <typename T>
void dataMoveSend(transport::Comm& comm, const McSchedule& sched,
                  std::span<const T> src) {
  MC_REQUIRE(sched.remoteProgram >= 0 && sched.isSender,
             "dataMoveSend needs the sending half of an inter-program "
             "schedule");
  sched.executor
      .get<sched::Executor<T>>(comm,
                               [&] {
                                 return sched::Executor<T>::sender(
                                     comm, sched.plan, sched.remoteProgram);
                               })
      .runSend(src);
}

template <typename T>
void dataMoveRecv(transport::Comm& comm, const McSchedule& sched,
                  std::span<T> dst) {
  MC_REQUIRE(sched.remoteProgram >= 0 && !sched.isSender,
             "dataMoveRecv needs the receiving half of an inter-program "
             "schedule");
  sched.executor
      .get<sched::Executor<T>>(comm,
                               [&] {
                                 return sched::Executor<T>::receiver(
                                     comm, sched.plan, sched.remoteProgram);
                               })
      .runRecv(dst);
}

}  // namespace mc::core
