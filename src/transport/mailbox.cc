#include "transport/mailbox.h"

#include <chrono>
#include <limits>

namespace mc::transport {

MailboxTable::MailboxTable(int nprocs) {
  MC_REQUIRE(nprocs > 0);
  boxes_.reserve(static_cast<size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) boxes_.push_back(std::make_unique<Box>());
}

void MailboxTable::deliver(int dst, Message msg) {
  Box& box = *boxes_.at(static_cast<size_t>(dst));
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queue.push_back(std::move(msg));
  }
  // Wake only this box's waiter.  Each box belongs to exactly one virtual
  // processor and that processor is the only thread that ever blocks on it,
  // so one wakeup suffices; abort() still uses notify_all since it must
  // reach a waiter regardless of which predicate it is parked on.
  box.cv.notify_one();
}

Message MailboxTable::receive(int dst, int src, int tag,
                              double timeoutSeconds) {
  return src == kAnySource
             ? receiveRange(dst, 0, std::numeric_limits<int>::max(), tag,
                            timeoutSeconds)
             : receiveRange(dst, src, src, tag, timeoutSeconds);
}

Message MailboxTable::receiveRange(int dst, int srcLo, int srcHi, int tag,
                                   double timeoutSeconds) {
  Box& box = *boxes_.at(static_cast<size_t>(dst));
  std::unique_lock<std::mutex> lock(box.mutex);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeoutSeconds));
  for (;;) {
    // First match in enqueue order: messages between one (source, tag) pair
    // never overtake each other, the MPI non-overtaking guarantee the
    // libraries' executors rely on.  (A later message can still carry an
    // earlier virtual arrival — e.g. a small message "overtaking" a large
    // one on the wire — but consumption order stays FIFO and the receiver
    // clock simply maxes with whatever arrival it sees.)
    auto best = box.queue.end();
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (matchesRange(*it, srcLo, srcHi, tag)) {
        best = it;
        break;
      }
    }
    if (best != box.queue.end()) {
      Message out = std::move(*best);
      box.queue.erase(best);
      return out;
    }
    {
      std::lock_guard<std::mutex> alock(abortMutex_);
      if (aborted_) {
        throw Error("transport aborted while rank " + std::to_string(dst) +
                    " waited for a message: " + abortReason_);
      }
    }
    if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      throw Error(strprintf(
          "transport deadlock guard: rank %d timed out waiting for a message "
          "(src=[%d,%d] tag=%d)",
          dst, srcLo, srcHi, tag));
    }
  }
}

std::optional<Message> MailboxTable::tryReceiveRange(int dst, int srcLo,
                                                     int srcHi, int tag) {
  Box& box = *boxes_.at(static_cast<size_t>(dst));
  std::lock_guard<std::mutex> lock(box.mutex);
  // Same first-match-in-enqueue-order scan as receiveRange, so a poll
  // consumes exactly the message a blocking receive would have.
  for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
    if (matchesRange(*it, srcLo, srcHi, tag)) {
      Message out = std::move(*it);
      box.queue.erase(it);
      return out;
    }
  }
  {
    std::lock_guard<std::mutex> alock(abortMutex_);
    if (aborted_) {
      throw Error("transport aborted while rank " + std::to_string(dst) +
                  " polled for a message: " + abortReason_);
    }
  }
  return std::nullopt;
}

void MailboxTable::abort(std::string reason) {
  {
    std::lock_guard<std::mutex> lock(abortMutex_);
    if (aborted_) return;
    aborted_ = true;
    abortReason_ = std::move(reason);
  }
  for (auto& box : boxes_) {
    // Take the box mutex so a receiver cannot miss the wakeup between its
    // aborted-flag check and entering the wait.
    std::lock_guard<std::mutex> lock(box->mutex);
    box->cv.notify_all();
  }
}

}  // namespace mc::transport
