// sched::ExecutorSlot — the one executor a schedule keeps once it has run.
//
// A schedule is built once and executed every time-step (paper Section
// 4.1.4); binding an Executor (slot table, outbox, compiled kernels,
// payload buffers) per execution would repeat the bind as often as the
// run.  The slot holds the executor a schedule's first execution binds,
// type-erased and keyed by the element type and the Comm it was bound
// with, so later executions with the same pair run on it and any other
// pair replaces it.
#pragma once

#include <cstdint>
#include <memory>
#include <typeinfo>
#include <utility>

#include "transport/comm.h"

namespace mc::sched {

/// Copying or moving a slot leaves the destination empty, and a move also
/// empties the source: an executor is bound to the plan of the schedule
/// that holds it and never follows that plan into another object.
class ExecutorSlot {
 public:
  ExecutorSlot() = default;
  ExecutorSlot(const ExecutorSlot&) noexcept {}
  ExecutorSlot(ExecutorSlot&& other) noexcept { other.reset(); }
  ExecutorSlot& operator=(const ExecutorSlot& other) noexcept {
    if (this != &other) reset();
    return *this;
  }
  ExecutorSlot& operator=(ExecutorSlot&& other) noexcept {
    if (this != &other) {
      reset();
      other.reset();
    }
    return *this;
  }

  /// The held executor when it is an `E` bound through `comm`; otherwise
  /// drops whatever the slot holds and keeps `bind()`'s result instead.
  template <typename E, typename Bind>
  E& get(const transport::Comm& comm, Bind&& bind) {
    if (held_ != nullptr && commId_ == comm.id() && *type_ == typeid(E)) {
      return *static_cast<E*>(held_.get());
    }
    reset();
    E* e = new E(std::forward<Bind>(bind)());
    held_ = Held(e, [](void* p) { delete static_cast<E*>(p); });
    type_ = &typeid(E);
    commId_ = comm.id();
    return *e;
  }

  void reset() noexcept {
    held_.reset();
    type_ = nullptr;
    commId_ = 0;
  }

 private:
  using Held = std::unique_ptr<void, void (*)(void*)>;
  Held held_{nullptr, nullptr};
  const std::type_info* type_ = nullptr;
  std::uint64_t commId_ = 0;
};

}  // namespace mc::sched
