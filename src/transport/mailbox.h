// Per-destination mailboxes with (source, tag) matching.
//
// Sends are buffered (the payload is copied into the Message), so a send
// never blocks — the rendezvous deadlocks of eager SPMD code cannot occur,
// matching the buffered/asynchronous semantics the paper's libraries rely
// on.  Receives block until a matching message is queued.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "transport/message.h"
#include "util/error.h"

namespace mc::transport {

/// One mailbox per destination global rank.  Thread safe.
class MailboxTable {
 public:
  explicit MailboxTable(int nprocs);

  /// Enqueues `msg` for destination `dst` and wakes waiting receivers.
  void deliver(int dst, Message msg);

  /// Blocks until a message matching (src, tag) is available at `dst`, then
  /// removes and returns it.  `src` / `tag` may be kAnySource / kAnyTag.
  /// Matching is FIFO in enqueue order, so messages between one
  /// (source, tag) pair never overtake each other — the MPI non-overtaking
  /// guarantee.
  ///
  /// Throws mc::Error if the table is aborted while waiting, or after
  /// `timeoutSeconds` of wall-clock inactivity (deadlock guard for tests).
  Message receive(int dst, int src, int tag, double timeoutSeconds);

  /// Range-source receive: matches any message whose source global rank
  /// lies in [srcLo, srcHi] (inclusive) with a matching tag.  This is how
  /// arrival-order schedule drains scope an any-source match to one
  /// program's rank range, so wildcard receives can never steal another
  /// program's same-tag traffic.
  Message receiveRange(int dst, int srcLo, int srcHi, int tag,
                       double timeoutSeconds);

  /// Non-blocking receiveRange: removes and returns the first queued message
  /// matching ([srcLo, srcHi], tag), or nullopt if none is queued yet.  This
  /// is the opportunistic drain behind sched::Executor's split-phase
  /// Pending::poll() — a caller computing between start() and finish() can
  /// consume messages that have already arrived without ever blocking.
  /// Throws mc::Error if the table has been aborted.
  std::optional<Message> tryReceiveRange(int dst, int srcLo, int srcHi,
                                         int tag);

  /// Wakes all waiters with an error; used when a peer thread throws so the
  /// whole world fails fast instead of deadlocking.
  void abort(std::string reason);

 private:
  struct Box {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> queue;
  };

  bool matchesRange(const Message& m, int srcLo, int srcHi, int tag) const {
    return m.srcGlobal >= srcLo && m.srcGlobal <= srcHi &&
           (tag == kAnyTag || m.tag == tag);
  }

  std::vector<std::unique_ptr<Box>> boxes_;
  std::mutex abortMutex_;
  bool aborted_ = false;
  std::string abortReason_;
};

}  // namespace mc::transport
