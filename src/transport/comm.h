// Comm: the per-virtual-processor communication handle.
//
// A transport *world* runs one or more *programs* (SPMD process groups),
// each with `size()` virtual processors; a Comm is the handle one virtual
// processor holds.  It provides:
//
//   * identity:       rank within the program, program id, global rank
//   * point-to-point: buffered sends and blocking receives, within the
//                     program or across programs (intercommunication)
//   * collectives:    barrier, bcast, gather(v), allgather(v), alltoall(v),
//                     reduce, allreduce — all program-scoped
//   * virtual time:   a per-processor clock advanced by measured thread CPU
//                     time (compute) and by the network cost model (messages)
//
// Typed operations require trivially copyable element types, mirroring the
// POD buffers the paper's libraries ship over MPI/PVM/MPL.
#pragma once

#include <atomic>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "transport/buffer_pool.h"
#include "transport/mailbox.h"
#include "transport/message.h"
#include "transport/netmodel.h"
#include "util/error.h"
#include "util/timer.h"

namespace mc::transport {

/// Description of one program (process group) in a world.
struct ProgramInfo {
  std::string name;
  int nprocs = 0;
  int firstGlobalRank = 0;
};

/// Shared state of a running world; owned by World::run, referenced by every
/// Comm.  Not user-visible API.
struct WorldState {
  std::vector<ProgramInfo> programs;
  std::vector<int> programOf;    // global rank -> program id
  std::vector<int> localRankOf;  // global rank -> rank within program
  MailboxTable mail;
  NetworkModel net;
  /// Shared payload recycler (payloads cross threads).  Every rank's
  /// acquire and release writes its lock and counters, so it starts on its
  /// own cache line, off the read-mostly network model every message reads.
  alignas(64) BufferPool pool;
  double recvTimeoutSeconds;

  WorldState(std::vector<ProgramInfo> progs, std::vector<int> progOf,
             std::vector<int> localOf, int worldSize, NetworkModel model,
             double timeout)
      : programs(std::move(progs)),
        programOf(std::move(progOf)),
        localRankOf(std::move(localOf)),
        mail(worldSize),
        net(std::move(model)),
        recvTimeoutSeconds(timeout) {}
};

/// Per-Comm traffic counters, used by tests to verify the message-count
/// invariants the paper states (at most one message per processor pair),
/// and — via bytesCopied / allocations — to observe the zero-copy executor
/// path: in steady state a schedule run performs no transport-layer payload
/// copies and no payload heap allocations.
struct TrafficStats {
  std::uint64_t messagesSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t messagesReceived = 0;
  std::uint64_t bytesReceived = 0;
  /// Payload bytes memcpy'd *inside the transport* (copying sends, vector
  /// receives).  The zero-copy move-send / payload-view paths add nothing.
  std::uint64_t bytesCopied = 0;
  /// Payload buffers heap-allocated on behalf of this rank (copying sends,
  /// vector receives, and BufferPool misses).  Pool hits add nothing.
  std::uint64_t allocations = 0;
  /// Wall-clock seconds this rank spent *blocked* inside mailbox receives
  /// (cv waits included).  Non-blocking polls add nothing, so split-phase
  /// overlap shows up here directly: communication hidden behind interior
  /// computation converts receive wait into (near-)zero.
  double recvWaitSeconds = 0.0;
  /// Messages consumed by a non-blocking try-receive (sched::Executor's
  /// Pending::poll()) — i.e. drained *early*, while the caller was still
  /// computing, instead of in the blocking finish drain.
  std::uint64_t messagesDrainedEarly = 0;
  /// Link-class breakdown of the sends: a message is inter_node when its
  /// endpoints live on different physical nodes (inter-program messages
  /// always do), intra_node otherwise (self-messages included).  The
  /// inter_node count is what the paper's §5.4 NIC-contention curve rises
  /// with, and what node-aggregated schedule execution bounds at
  /// nodes-1 per rank per step.
  std::uint64_t interNodeMessages = 0;
  std::uint64_t interNodeBytes = 0;
  std::uint64_t intraNodeMessages = 0;
  std::uint64_t intraNodeBytes = 0;
  /// Payloads this rank re-sent on behalf of a remote sender as a node
  /// leader (sched::Executor node aggregation).  The sends themselves are
  /// also counted in the intra_node line; this isolates the forwarding
  /// volume.
  std::uint64_t forwardedMessages = 0;
  std::uint64_t forwardedBytes = 0;
};

/// Epoch snapshot/diff: counters are monotone, so the traffic of a code
/// region is `after - before`.  This is how multi-case benches attribute
/// messages/bytes/allocations to the right case without resetStats()
/// clobbering the cumulative counters the obs registry samples.
inline TrafficStats operator-(const TrafficStats& a, const TrafficStats& b) {
  TrafficStats d;
  d.messagesSent = a.messagesSent - b.messagesSent;
  d.bytesSent = a.bytesSent - b.bytesSent;
  d.messagesReceived = a.messagesReceived - b.messagesReceived;
  d.bytesReceived = a.bytesReceived - b.bytesReceived;
  d.bytesCopied = a.bytesCopied - b.bytesCopied;
  d.allocations = a.allocations - b.allocations;
  d.recvWaitSeconds = a.recvWaitSeconds - b.recvWaitSeconds;
  d.messagesDrainedEarly = a.messagesDrainedEarly - b.messagesDrainedEarly;
  d.interNodeMessages = a.interNodeMessages - b.interNodeMessages;
  d.interNodeBytes = a.interNodeBytes - b.interNodeBytes;
  d.intraNodeMessages = a.intraNodeMessages - b.intraNodeMessages;
  d.intraNodeBytes = a.intraNodeBytes - b.intraNodeBytes;
  d.forwardedMessages = a.forwardedMessages - b.forwardedMessages;
  d.forwardedBytes = a.forwardedBytes - b.forwardedBytes;
  return d;
}

class Comm {
 public:
  Comm(WorldState* world, int globalRank);
  /// Unregisters this rank's transport.* metrics from the thread registry.
  ~Comm();

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  // --- identity -----------------------------------------------------------
  int rank() const { return localRank_; }
  int size() const { return programInfo().nprocs; }
  int program() const { return program_; }
  int numPrograms() const { return static_cast<int>(world_->programs.size()); }
  const ProgramInfo& programInfo() const {
    return world_->programs[static_cast<size_t>(program_)];
  }
  const ProgramInfo& programInfo(int p) const {
    return world_->programs.at(static_cast<size_t>(p));
  }
  int globalRank() const { return globalRank_; }
  /// Process-wide unique id of this handle.  Unlike the handle's address,
  /// a later world's handle never reuses it.
  std::uint64_t id() const { return id_; }
  int worldSize() const {
    return static_cast<int>(world_->programOf.size());
  }
  int globalRankOf(int prog, int localRank) const;
  /// Program-local rank of a world (global) rank.
  int localRankOfGlobal(int globalRank) const {
    return world_->localRankOf.at(static_cast<size_t>(globalRank));
  }

  // --- topology (program scope) ---------------------------------------------
  // Placement comes from the NetworkModel tables World::run built; ranks are
  // program-local.  The *node leader* of a node is the lowest program rank
  // placed there, so rank 0 is always a leader and the leader list is sorted.
  /// Physical node id this rank lives on.
  int myNode() const { return world_->net.nodeOf(globalRank_); }
  /// Physical node id of a program-local rank.
  int nodeOfRank(int localRank) const {
    return world_->net.nodeOf(globalRankOf(program_, localRank));
  }
  /// Node leader (lowest rank) of `localRank`'s node.
  int leaderOfRank(int localRank) const {
    return leaderOf_[static_cast<size_t>(localRank)];
  }
  /// Node leader of this rank's node.
  int nodeLeader() const { return leaderOf_[static_cast<size_t>(localRank_)]; }
  bool isNodeLeader() const { return nodeLeader() == localRank_; }
  /// All program ranks on this rank's node (sorted; includes this rank).
  const std::vector<int>& nodePeers() const { return nodePeers_; }
  /// One leader rank per distinct node of the program (sorted; front() == 0).
  const std::vector<int>& nodeLeaders() const { return nodeLeaders_; }
  /// Number of distinct physical nodes the program spans.
  int programNodes() const { return static_cast<int>(nodeLeaders_.size()); }
  /// The world's network configuration (placement, link costs and the
  /// messaging knobs executors and collectives read).
  const NetConfig& netConfig() const { return world_->net.config(); }

  // --- virtual clock ------------------------------------------------------
  double now() const { return clock_; }
  /// Advances the clock by a modeled amount of compute (deterministic).
  void advance(double seconds) {
    MC_REQUIRE(seconds >= 0.0);
    clock_ += seconds;
  }
  /// Runs `fn` and charges its measured thread-CPU time to the clock.
  template <typename F>
  void compute(F&& fn) {
    ThreadCpuTimer t;
    std::forward<F>(fn)();
    clock_ += t.elapsed();
  }
  /// Runs `fn`, charging its CPU time, and returns its result.
  template <typename F>
  auto computeValue(F&& fn) {
    ThreadCpuTimer t;
    auto result = std::forward<F>(fn)();
    clock_ += t.elapsed();
    return result;
  }

  const TrafficStats& stats() const { return stats_; }
  void resetStats() { stats_ = TrafficStats{}; }
  /// Records that this rank re-sent `bytes` of payload on behalf of a remote
  /// sender (node-leader forwarding in sched::Executor's aggregated mode).
  /// The forwarding send itself goes through sendBytes and is counted there;
  /// this tracks the forwarded volume for transport.forwarded.*.
  void noteForwarded(std::size_t bytes) {
    ++stats_.forwardedMessages;
    stats_.forwardedBytes += bytes;
  }

  // --- tag allocation -------------------------------------------------------
  /// Allocates a tag for an intra-program communication phase.  All
  /// processors of a program must allocate in the same (SPMD) order — the
  /// usual collective-call discipline — so peers agree on the value.
  int nextUserTag() { return kUserTagBase + (userTagSeq_++ % kUserTagRange); }
  /// Allocates a tag for a communication phase paired with program `prog`.
  /// Both programs must make paired allocations in the same order; the
  /// counter only advances for phases with that specific peer program, so
  /// unrelated intra-program activity cannot desynchronize it.
  int nextInterTag(int prog) {
    MC_REQUIRE(prog >= 0 && prog < numPrograms() && prog != program_);
    if (interTagSeq_.size() < static_cast<size_t>(numPrograms())) {
      interTagSeq_.resize(static_cast<size_t>(numPrograms()), 0);
    }
    return kInterTagBase +
           (interTagSeq_[static_cast<size_t>(prog)]++ % kUserTagRange);
  }

  // --- point to point (program scope; ranks are program-local) -------------
  void sendBytes(int dst, int tag, std::span<const std::byte> data);
  /// Zero-copy send: the buffer is *moved* into the Message — no payload
  /// copy, no allocation.  The steady-state path of sched::Executor.
  void sendBytes(int dst, int tag, std::vector<std::byte>&& data);
  /// Blocking receive; src may be kAnySource, tag may be kAnyTag.
  Message recvMsg(int src, int tag);
  /// Blocking receive matching any rank of program `prog` (which may be the
  /// calling program) with tag `tag`.  Unlike a bare kAnySource match, the
  /// wildcard is scoped to that program's global-rank range, so same-tag
  /// traffic from other programs can never be stolen.  This is the
  /// arrival-order drain primitive of sched::Executor.
  Message recvMsgAnyOf(int prog, int tag);
  /// Non-blocking recvMsgAnyOf — the opportunistic drain primitive of the
  /// split-phase executor (Pending::poll()).  Returns the queued matching
  /// message, or nullopt without blocking; a returned message pays the
  /// usual receive clock charges and counts toward messagesDrainedEarly.
  std::optional<Message> tryRecvMsgAnyOf(int prog, int tag);
  /// Blocking receive matching any rank of any program in [progLo, progHi]
  /// (a contiguous program span) with tag `tag`.  Built on the same
  /// MailboxTable::receiveRange rank-range scoping as recvMsgAnyOf — this
  /// is the control-plane primitive of the multi-tenant compute server,
  /// whose rank 0 serves requests from a whole span of client programs
  /// without knowing which will speak next.
  Message recvMsgAnyOfPrograms(int progLo, int progHi, int tag);
  /// Non-blocking recvMsgAnyOfPrograms.
  std::optional<Message> tryRecvMsgAnyOfPrograms(int progLo, int progHi,
                                                 int tag);
  /// Program id of a world (global) rank — e.g. to identify the client a
  /// wildcard control message came from.
  int programOf(int globalRank) const {
    return world_->programOf.at(static_cast<size_t>(globalRank));
  }

  // --- point to point across programs --------------------------------------
  void sendBytesTo(int prog, int rankInProg, int tag,
                   std::span<const std::byte> data);
  /// Zero-copy variant (buffer moved into the Message).
  void sendBytesTo(int prog, int rankInProg, int tag,
                   std::vector<std::byte>&& data);
  Message recvMsgFrom(int prog, int rankInProg, int tag);

  // --- pooled payload buffers ----------------------------------------------
  /// A payload buffer with size() == nbytes from the world's BufferPool
  /// (class-rounded capacity).  Counts an allocation only on a pool miss;
  /// pass the filled buffer to the move overload of sendBytes for an
  /// allocation-free, copy-free send.
  std::vector<std::byte> acquirePayload(std::size_t nbytes) {
    bool fresh = false;
    std::vector<std::byte> buf = world_->pool.acquire(nbytes, &fresh);
    if (fresh) ++stats_.allocations;
    return buf;
  }
  /// Recycles a payload buffer (typically a received Message's) so a later
  /// acquirePayload — on any rank — reuses its capacity.
  void releasePayload(std::vector<std::byte>&& buf) {
    world_->pool.release(std::move(buf));
  }

  // --- typed convenience ----------------------------------------------------
  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    sendBytes(dst, tag, std::as_bytes(data));
  }
  template <typename T>
  void send(int dst, int tag, const std::vector<T>& data) {
    send(dst, tag, std::span<const T>(data));
  }
  template <typename T>
  void sendValue(int dst, int tag, const T& v) {
    send(dst, tag, std::span<const T>(&v, 1));
  }
  template <typename T>
  std::vector<T> recv(int src, int tag, int* srcOut = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m = recvMsg(src, tag);
    if (srcOut != nullptr) {
      *srcOut = world_->localRankOf[static_cast<size_t>(m.srcGlobal)];
    }
    return unpackVector<T>(m);
  }
  template <typename T>
  T recvValue(int src, int tag) {
    std::vector<T> v = recv<T>(src, tag);
    MC_REQUIRE(v.size() == 1, "expected a single %zu-byte value, got %zu "
               "elements", sizeof(T), v.size());
    return v[0];
  }
  template <typename T>
  void sendValueTo(int prog, int rankInProg, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    sendBytesTo(prog, rankInProg, tag,
                std::as_bytes(std::span<const T>(&v, 1)));
  }
  template <typename T>
  void sendTo(int prog, int rankInProg, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    sendBytesTo(prog, rankInProg, tag, std::as_bytes(data));
  }
  template <typename T>
  void sendTo(int prog, int rankInProg, int tag, const std::vector<T>& data) {
    sendTo(prog, rankInProg, tag, std::span<const T>(data));
  }
  template <typename T>
  std::vector<T> recvFrom(int prog, int rankInProg, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m = recvMsgFrom(prog, rankInProg, tag);
    return unpackVector<T>(m);
  }
  template <typename T>
  T recvValueFrom(int prog, int rankInProg, int tag) {
    std::vector<T> v = recvFrom<T>(prog, rankInProg, tag);
    MC_REQUIRE(v.size() == 1);
    return v[0];
  }

  // --- collectives (program scope) ------------------------------------------
  /// Synchronizes all processors of the program and their clocks (every
  /// clock becomes at least the maximum participating clock).
  void barrier();

  /// Root's buffer is broadcast to everyone; others' buffers are replaced.
  void bcastBytes(std::vector<std::byte>& buf, int root);

  /// Gathers each rank's buffer at root; result[r] = rank r's buffer (empty
  /// vector everywhere except root).
  std::vector<std::vector<std::byte>> gatherBytes(
      std::span<const std::byte> mine, int root);

  /// Personalized all-to-all: sendTo[r] goes to rank r; returns recvFrom[r].
  /// Both loops walk peers in the pairwise rotation (me + i) % size(), so
  /// under contention no single low rank's NIC serializes every sender.
  std::vector<std::vector<std::byte>> alltoallBytes(
      const std::vector<std::vector<std::byte>>& sendTo);
  /// Rvalue variant: the self row is moved into the result, not deep-copied.
  std::vector<std::vector<std::byte>> alltoallBytes(
      std::vector<std::vector<std::byte>>&& sendTo);

  template <typename T>
  void bcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> buf(data.size() * sizeof(T));
    if (!buf.empty()) std::memcpy(buf.data(), data.data(), buf.size());
    bcastBytes(buf, root);
    data.resize(buf.size() / sizeof(T));
    if (!buf.empty()) std::memcpy(data.data(), buf.data(), buf.size());
  }
  template <typename T>
  T bcastValue(T v, int root) {
    std::vector<T> tmp{v};
    bcast(tmp, root);
    return tmp[0];
  }
  template <typename T>
  std::vector<std::vector<T>> gather(std::span<const T> mine, int root) {
    return typedBuffers<T>(gatherBytes(std::as_bytes(mine), root));
  }
  template <typename T>
  std::vector<std::vector<T>> allgather(std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Parse typed rows straight out of the size-prefixed flat buffer —
    // one copy per row, instead of a byte-rows round trip (flat -> byte
    // rows -> typed rows).
    const std::vector<std::byte> flat = allgatherFlat(std::as_bytes(mine));
    std::vector<std::vector<T>> out(static_cast<size_t>(size()));
    forEachFlatRow(flat, [&](int r, std::span<const std::byte> row) {
      MC_CHECK(row.size() % sizeof(T) == 0);
      auto& dst = out[static_cast<size_t>(r)];
      dst.resize(row.size() / sizeof(T));
      if (!row.empty()) {
        std::memcpy(dst.data(), row.data(), row.size());
        stats_.bytesCopied += row.size();
        ++stats_.allocations;
      }
    });
    return out;
  }
  template <typename T>
  std::vector<T> allgatherValue(const T& v) {
    auto rows = allgather<T>(std::span<const T>(&v, 1));
    std::vector<T> out;
    out.reserve(rows.size());
    for (auto& r : rows) {
      MC_REQUIRE(r.size() == 1);
      out.push_back(r[0]);
    }
    return out;
  }
  template <typename T>
  std::vector<std::vector<T>> alltoall(
      const std::vector<std::vector<T>>& sendTo) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::vector<std::byte>> raw(sendTo.size());
    for (size_t r = 0; r < sendTo.size(); ++r) {
      raw[r].resize(sendTo[r].size() * sizeof(T));
      if (!raw[r].empty()) {
        std::memcpy(raw[r].data(), sendTo[r].data(), raw[r].size());
      }
    }
    return typedBuffers<T>(alltoallBytes(std::move(raw)));
  }
  /// Element-wise reduction with `op` at every rank (allreduce):
  /// binomial-tree reduce to rank 0 followed by a binomial broadcast, so
  /// the modeled message volume is O(p log p) rather than the O(p^2) a
  /// rank-0 fan-in allgather would cost.  `op` must be associative and
  /// commutative; reduction order is deterministic (fixed tree shape) but
  /// not rank order.  Under hierarchical collectives the leaf values travel
  /// members -> node leader -> rank 0 and rank 0 replays the *same* binomial
  /// combination order locally, so the result stays bitwise identical.
  template <typename T, typename Op>
  T allreduceValue(T v, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int tag = collectiveTag();
    const int me = rank();
    const int np = size();
    if (hierarchicalOn()) {
      struct Entry {
        std::int32_t rank;
        T value;
      };
      if (!isNodeLeader()) {
        Entry e{};
        e.rank = me;
        e.value = v;
        send(nodeLeader(), tag, std::span<const Entry>(&e, 1));
      } else {
        std::vector<Entry> batch;
        batch.reserve(nodePeers_.size());
        Entry mine{};
        mine.rank = me;
        mine.value = v;
        batch.push_back(mine);
        for (int r : nodePeers_) {
          if (r == me) continue;
          std::vector<Entry> got = recv<Entry>(r, tag);
          MC_REQUIRE(got.size() == 1);
          batch.push_back(got[0]);
        }
        if (me != 0) {
          send(0, tag, batch);
        } else {
          // Rank 0 is always a node leader; collect every leaf value in
          // rank order, then combine with the flat tree's association.
          std::vector<T> values(static_cast<size_t>(np), v);
          for (size_t l = 1; l < nodeLeaders_.size(); ++l) {
            for (const Entry& e : recv<Entry>(nodeLeaders_[l], tag)) {
              batch.push_back(e);
            }
          }
          for (const Entry& e : batch) {
            MC_REQUIRE(e.rank >= 0 && e.rank < np);
            values[static_cast<size_t>(e.rank)] = e.value;
          }
          v = binomialCombine(values, op);
        }
      }
      return bcastValue(v, 0);  // bcastValue rides the hierarchical bcast
    }
    T acc = v;
    for (int mask = 1; mask < np; mask <<= 1) {
      if ((me & mask) != 0) {
        sendValue(me - mask, tag, acc);
        break;
      }
      if (me + mask < np) acc = op(acc, recvValue<T>(me + mask, tag));
    }
    return bcastValue(acc, 0);
  }
  double allreduceMax(double v) {
    return allreduceValue(v, [](double a, double b) { return a > b ? a : b; });
  }
  double allreduceSum(double v) {
    return allreduceValue(v, [](double a, double b) { return a + b; });
  }

 private:
  /// True when collectives should run the two-level (node-hierarchical)
  /// algorithms: the flag is set and the program both spans more than one
  /// node and packs more than one rank on some node (otherwise the flat
  /// algorithms already match the topology).
  bool hierarchicalOn() const {
    return netConfig().hierarchicalCollectives &&
           nodeLeaders_.size() > 1 &&
           static_cast<int>(nodeLeaders_.size()) < size();
  }
  /// Index of `leaderRank` in nodeLeaders_ (must be a leader).
  int leaderIndexOfRank(int leaderRank) const;
  void hierarchicalBarrier();
  void hierarchicalBcast(std::vector<std::byte>& buf, int root);
  std::vector<std::byte> allgatherFlatHierarchical(
      std::span<const std::byte> mine);
  /// Shared alltoall body; `selfRow` non-null means the self row may be
  /// moved from instead of copied.
  std::vector<std::vector<std::byte>> alltoallImpl(
      const std::vector<std::vector<std::byte>>& sendTo,
      std::vector<std::byte>* selfRow);

  /// Combines values[0..n) with exactly the association the flat binomial
  /// reduce uses (rank r merges rank r+mask at each mask level), so a
  /// root-side replay is bitwise identical to the distributed tree.
  template <typename T, typename Op>
  static T binomialCombine(std::vector<T> values, Op op) {
    const int np = static_cast<int>(values.size());
    MC_REQUIRE(np > 0);
    for (int mask = 1; mask < np; mask <<= 1) {
      for (int r = 0; r + mask < np; r += 2 * mask) {
        values[static_cast<size_t>(r)] =
            op(values[static_cast<size_t>(r)],
               values[static_cast<size_t>(r + mask)]);
      }
    }
    return values[0];
  }

  template <typename T>
  std::vector<T> unpackVector(const Message& m) {
    MC_REQUIRE(m.payload.size() % sizeof(T) == 0,
               "message size %zu not a multiple of element size %zu",
               m.payload.size(), sizeof(T));
    std::vector<T> out(m.payload.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), m.payload.data(), m.payload.size());
      stats_.bytesCopied += m.payload.size();
      ++stats_.allocations;
    }
    return out;
  }
  template <typename T>
  std::vector<std::vector<T>> typedBuffers(
      std::vector<std::vector<std::byte>> raw) {
    std::vector<std::vector<T>> out(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      MC_REQUIRE(raw[i].size() % sizeof(T) == 0);
      out[i].resize(raw[i].size() / sizeof(T));
      if (!raw[i].empty()) {
        std::memcpy(out[i].data(), raw[i].data(), raw[i].size());
        stats_.bytesCopied += raw[i].size();
        ++stats_.allocations;
      }
    }
    return out;
  }

  /// The single gather + flatten behind allgather<T>:
  /// every rank ends up with [u64 size][bytes] per rank, in rank order.
  std::vector<std::byte> allgatherFlat(std::span<const std::byte> mine);
  /// Walks the rows of an allgatherFlat buffer: fn(rank, row bytes).
  template <typename F>
  void forEachFlatRow(std::span<const std::byte> flat, F&& fn) {
    size_t pos = 0;
    for (int r = 0; r < size(); ++r) {
      MC_CHECK(pos + sizeof(std::uint64_t) <= flat.size());
      std::uint64_t n = 0;
      std::memcpy(&n, flat.data() + pos, sizeof(n));
      pos += sizeof(n);
      MC_CHECK(pos + n <= flat.size());
      fn(r, flat.subspan(pos, static_cast<size_t>(n)));
      pos += static_cast<size_t>(n);
    }
    MC_CHECK(pos == flat.size());
  }

  void sendGlobal(int dstGlobal, int tag, std::span<const std::byte> data);
  void sendGlobal(int dstGlobal, int tag, std::vector<std::byte>&& data);
  void finishSend(int dstGlobal, int tag, Message&& msg);
  Message recvGlobal(int srcGlobal, int tag);
  Message recvGlobalRange(int srcLo, int srcHi, int tag);
  std::optional<Message> tryRecvGlobalRange(int srcLo, int srcHi, int tag);
  Message finishRecv(Message m);
  int collectiveTag() {
    return kCollectiveTagBase + (collectiveSeq_++ % kCollectiveTagRange);
  }

  static constexpr int kCollectiveTagBase = 1 << 28;
  static constexpr int kCollectiveTagRange = 1 << 20;
  static constexpr int kUserTagBase = 1 << 20;
  static constexpr int kInterTagBase = 1 << 24;
  static constexpr int kUserTagRange = 1 << 18;

  WorldState* world_;
  std::uint64_t id_;
  int globalRank_;
  int program_;
  int localRank_;
  double clock_ = 0.0;
  int collectiveSeq_ = 0;
  int userTagSeq_ = 0;
  std::vector<int> interTagSeq_;
  TrafficStats stats_;
  // Topology tables (program scope), derived from the NetworkModel placement
  // in the constructor.  See the topology accessor section.
  std::vector<int> leaderOf_;     // local rank -> its node leader
  std::vector<int> nodePeers_;    // local ranks on my node (sorted)
  std::vector<int> nodeLeaders_;  // one leader per node (sorted)
};

}  // namespace mc::transport
