#include "transport/comm.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "obs/metrics.h"

namespace mc::transport {

namespace {
std::uint64_t nextCommId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Comm::Comm(WorldState* world, int globalRank)
    : world_(world), id_(nextCommId()), globalRank_(globalRank) {
  MC_REQUIRE(world != nullptr);
  MC_REQUIRE(globalRank >= 0 &&
             globalRank < static_cast<int>(world->programOf.size()));
  program_ = world_->programOf[static_cast<size_t>(globalRank)];
  localRank_ = world_->localRankOf[static_cast<size_t>(globalRank)];

  // Topology tables.  A node's leader is the lowest program rank placed on
  // it, so the discovery order below (ranks ascending) yields sorted leader
  // and peer lists, and rank 0 is always a leader.
  const ProgramInfo& info = world_->programs[static_cast<size_t>(program_)];
  const int myNodeId = world_->net.nodeOf(globalRank_);
  leaderOf_.resize(static_cast<size_t>(info.nprocs));
  std::unordered_map<int, int> leaderOfNode;
  for (int r = 0; r < info.nprocs; ++r) {
    const int node = world_->net.nodeOf(info.firstGlobalRank + r);
    const auto [it, fresh] = leaderOfNode.try_emplace(node, r);
    if (fresh) nodeLeaders_.push_back(r);
    leaderOf_[static_cast<size_t>(r)] = it->second;
    if (node == myNodeId) nodePeers_.push_back(r);
  }

  // The rank's counters become visible through its thread registry: obs
  // snapshots sample these closures, the counters themselves stay plain
  // struct fields (zero hot-path cost).  Each rank is one thread, so the
  // thread_local registry *is* the per-rank registry.
  obs::MetricsRegistry& reg = obs::threadRegistry();
  reg.setVirtualClock([this] { return clock_; });
  const auto counter = [&reg, this](const char* name,
                                    const std::uint64_t TrafficStats::*f) {
    reg.registerCounter(name, [this, f] {
      return static_cast<double>(stats_.*f);
    });
  };
  counter("transport.messages_sent", &TrafficStats::messagesSent);
  counter("transport.bytes_sent", &TrafficStats::bytesSent);
  counter("transport.messages_received", &TrafficStats::messagesReceived);
  counter("transport.bytes_received", &TrafficStats::bytesReceived);
  counter("transport.bytes_copied", &TrafficStats::bytesCopied);
  counter("transport.allocations", &TrafficStats::allocations);
  counter("transport.messages_drained_early",
          &TrafficStats::messagesDrainedEarly);
  counter("transport.inter_node.messages", &TrafficStats::interNodeMessages);
  counter("transport.inter_node.bytes", &TrafficStats::interNodeBytes);
  counter("transport.intra_node.messages", &TrafficStats::intraNodeMessages);
  counter("transport.intra_node.bytes", &TrafficStats::intraNodeBytes);
  counter("transport.forwarded.messages", &TrafficStats::forwardedMessages);
  counter("transport.forwarded.bytes", &TrafficStats::forwardedBytes);
  reg.registerCounter("transport.recv_wait_seconds",
                      [this] { return stats_.recvWaitSeconds; });
  // The world's shared payload pool (counters are world-wide, not
  // per-rank; a per-rank snapshot diff shows pool activity in the window).
  reg.registerCounter("transport.pool.acquires", [this] {
    return static_cast<double>(world_->pool.stats().acquires);
  });
  reg.registerCounter("transport.pool.hits", [this] {
    return static_cast<double>(world_->pool.stats().hits);
  });
  reg.registerCounter("transport.pool.allocations", [this] {
    return static_cast<double>(world_->pool.stats().allocations);
  });
  reg.registerCounter("transport.pool.releases", [this] {
    return static_cast<double>(world_->pool.stats().releases);
  });
  reg.registerCounter("transport.pool.dropped", [this] {
    return static_cast<double>(world_->pool.stats().dropped);
  });
  reg.registerCounter("transport.virtual_seconds",
                      [this] { return clock_; });
}

Comm::~Comm() {
  obs::MetricsRegistry& reg = obs::threadRegistry();
  reg.unregisterPrefix("transport.");
  reg.clearVirtualClock();
}

int Comm::globalRankOf(int prog, int localRank) const {
  const ProgramInfo& info = programInfo(prog);
  MC_REQUIRE(localRank >= 0 && localRank < info.nprocs,
             "rank %d out of range for program %d (size %d)", localRank, prog,
             info.nprocs);
  return info.firstGlobalRank + localRank;
}

void Comm::sendGlobal(int dstGlobal, int tag,
                      std::span<const std::byte> data) {
  // Copying path: the payload is a fresh heap buffer filled from `data`.
  stats_.bytesCopied += data.size();
  if (!data.empty()) ++stats_.allocations;
  Message msg;
  msg.payload.assign(data.begin(), data.end());
  finishSend(dstGlobal, tag, std::move(msg));
}

void Comm::sendGlobal(int dstGlobal, int tag, std::vector<std::byte>&& data) {
  // Zero-copy path: the caller's buffer becomes the payload outright.
  Message msg;
  msg.payload = std::move(data);
  finishSend(dstGlobal, tag, std::move(msg));
}

void Comm::finishSend(int dstGlobal, int tag, Message&& msg) {
  const NetParams& p = world_->net.paramsFor(globalRank_, dstGlobal);
  const size_t nbytes = msg.payload.size();
  clock_ += p.sendOverhead +
            world_->net.senderOccupancy(globalRank_, dstGlobal, nbytes);
  msg.srcGlobal = globalRank_;
  msg.tag = tag;
  msg.arrival = world_->net.arrival(clock_, globalRank_, dstGlobal, nbytes);
  ++stats_.messagesSent;
  stats_.bytesSent += nbytes;
  if (world_->net.nodeOf(globalRank_) != world_->net.nodeOf(dstGlobal)) {
    ++stats_.interNodeMessages;
    stats_.interNodeBytes += nbytes;
  } else {
    ++stats_.intraNodeMessages;
    stats_.intraNodeBytes += nbytes;
  }
  world_->mail.deliver(dstGlobal, std::move(msg));
}

Message Comm::recvGlobal(int srcGlobal, int tag) {
  const auto t0 = std::chrono::steady_clock::now();
  Message m = world_->mail.receive(globalRank_, srcGlobal, tag,
                                   world_->recvTimeoutSeconds);
  stats_.recvWaitSeconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return finishRecv(std::move(m));
}

Message Comm::recvGlobalRange(int srcLo, int srcHi, int tag) {
  const auto t0 = std::chrono::steady_clock::now();
  Message m = world_->mail.receiveRange(globalRank_, srcLo, srcHi, tag,
                                        world_->recvTimeoutSeconds);
  stats_.recvWaitSeconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return finishRecv(std::move(m));
}

std::optional<Message> Comm::tryRecvGlobalRange(int srcLo, int srcHi,
                                                int tag) {
  std::optional<Message> m =
      world_->mail.tryReceiveRange(globalRank_, srcLo, srcHi, tag);
  if (!m.has_value()) return std::nullopt;
  ++stats_.messagesDrainedEarly;
  return finishRecv(std::move(*m));
}

Message Comm::finishRecv(Message m) {
  const NetParams& p = world_->net.paramsFor(m.srcGlobal, globalRank_);
  clock_ = std::max(clock_, m.arrival) + p.recvOverhead +
           world_->net.receiverOccupancy(m.srcGlobal, globalRank_,
                                         m.payload.size());
  ++stats_.messagesReceived;
  stats_.bytesReceived += m.payload.size();
  return m;
}

void Comm::sendBytes(int dst, int tag, std::span<const std::byte> data) {
  sendGlobal(globalRankOf(program_, dst), tag, data);
}

void Comm::sendBytes(int dst, int tag, std::vector<std::byte>&& data) {
  sendGlobal(globalRankOf(program_, dst), tag, std::move(data));
}

Message Comm::recvMsg(int src, int tag) {
  const int srcGlobal =
      (src == kAnySource) ? kAnySource : globalRankOf(program_, src);
  // kAnySource within a program must not match cross-program traffic; the
  // libraries in this reproduction always use distinct tags for the two, so
  // plain global matching is sufficient and keeps the mailbox simple.
  // (Arrival-order schedule drains use recvMsgAnyOf instead, which scopes
  // the wildcard to one program's rank range.)
  return recvGlobal(srcGlobal, tag);
}

Message Comm::recvMsgAnyOf(int prog, int tag) {
  const ProgramInfo& info = programInfo(prog);
  return recvGlobalRange(info.firstGlobalRank,
                         info.firstGlobalRank + info.nprocs - 1, tag);
}

std::optional<Message> Comm::tryRecvMsgAnyOf(int prog, int tag) {
  const ProgramInfo& info = programInfo(prog);
  return tryRecvGlobalRange(info.firstGlobalRank,
                            info.firstGlobalRank + info.nprocs - 1, tag);
}

Message Comm::recvMsgAnyOfPrograms(int progLo, int progHi, int tag) {
  MC_REQUIRE(progLo >= 0 && progLo <= progHi && progHi < numPrograms(),
             "bad program span [%d, %d] of %d", progLo, progHi,
             numPrograms());
  const ProgramInfo& lo = programInfo(progLo);
  const ProgramInfo& hi = programInfo(progHi);
  return recvGlobalRange(lo.firstGlobalRank,
                         hi.firstGlobalRank + hi.nprocs - 1, tag);
}

std::optional<Message> Comm::tryRecvMsgAnyOfPrograms(int progLo, int progHi,
                                                     int tag) {
  MC_REQUIRE(progLo >= 0 && progLo <= progHi && progHi < numPrograms(),
             "bad program span [%d, %d] of %d", progLo, progHi,
             numPrograms());
  const ProgramInfo& lo = programInfo(progLo);
  const ProgramInfo& hi = programInfo(progHi);
  return tryRecvGlobalRange(lo.firstGlobalRank,
                            hi.firstGlobalRank + hi.nprocs - 1, tag);
}

void Comm::sendBytesTo(int prog, int rankInProg, int tag,
                       std::span<const std::byte> data) {
  sendGlobal(globalRankOf(prog, rankInProg), tag, data);
}

void Comm::sendBytesTo(int prog, int rankInProg, int tag,
                       std::vector<std::byte>&& data) {
  sendGlobal(globalRankOf(prog, rankInProg), tag, std::move(data));
}

Message Comm::recvMsgFrom(int prog, int rankInProg, int tag) {
  return recvGlobal(globalRankOf(prog, rankInProg), tag);
}

int Comm::leaderIndexOfRank(int leaderRank) const {
  const auto it =
      std::lower_bound(nodeLeaders_.begin(), nodeLeaders_.end(), leaderRank);
  MC_REQUIRE(it != nodeLeaders_.end() && *it == leaderRank,
             "rank %d is not a node leader", leaderRank);
  return static_cast<int>(it - nodeLeaders_.begin());
}

void Comm::hierarchicalBarrier() {
  // Two-level clock max: members report to their node leader over the cheap
  // intraNode link, node maxima meet at rank 0 (always a leader), and the
  // global max fans back out leaders-then-members.  All receives are in
  // fixed rank order so virtual clocks stay deterministic.
  const int tag = collectiveTag();
  if (!isNodeLeader()) {
    sendValue(nodeLeader(), tag, clock_);
    clock_ = std::max(clock_, recvValue<double>(nodeLeader(), tag));
    return;
  }
  double maxClock = clock_;
  for (int r : nodePeers_) {
    if (r == localRank_) continue;
    maxClock = std::max(maxClock, recvValue<double>(r, tag));
  }
  if (localRank_ != 0) {
    sendValue(0, tag, maxClock);
    clock_ = std::max(clock_, recvValue<double>(0, tag));
  } else {
    for (size_t l = 1; l < nodeLeaders_.size(); ++l) {
      maxClock = std::max(maxClock, recvValue<double>(nodeLeaders_[l], tag));
    }
    clock_ = std::max(clock_, maxClock);
    for (size_t l = 1; l < nodeLeaders_.size(); ++l) {
      sendValue(nodeLeaders_[l], tag, clock_);
    }
  }
  for (int r : nodePeers_) {
    if (r == localRank_) continue;
    sendValue(r, tag, clock_);
  }
}

void Comm::barrier() {
  if (hierarchicalOn()) {
    hierarchicalBarrier();
    return;
  }
  const int tag = collectiveTag();
  const int root = 0;
  if (localRank_ == root) {
    double maxClock = clock_;
    // Receive in rank order (not kAnySource): the clock arithmetic of
    // interleaved max/overhead updates must not depend on wall-clock
    // arrival order, or virtual times would vary run to run.
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      Message m = recvMsg(r, tag);
      double peer = 0.0;
      MC_CHECK(m.payload.size() == sizeof(double));
      std::memcpy(&peer, m.payload.data(), sizeof(double));
      maxClock = std::max(maxClock, peer);
    }
    clock_ = std::max(clock_, maxClock);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      sendValue(r, tag, clock_);
    }
  } else {
    sendValue(root, tag, clock_);
    const double rootClock = recvValue<double>(root, tag);
    clock_ = std::max(clock_, rootClock);
  }
}

void Comm::hierarchicalBcast(std::vector<std::byte>& buf, int root) {
  // Hand the buffer to the root's node leader, binomial-broadcast across
  // the leaders (same tree shape as the flat path, over the leader list),
  // then fan out within each node.  The payload is forwarded verbatim, so
  // every rank ends with exactly the root's bytes.
  const int tag = collectiveTag();
  const int rootLeader = leaderOfRank(root);
  if (localRank_ == root && root != rootLeader) {
    sendBytes(rootLeader, tag, buf);
  }
  if (localRank_ == rootLeader && root != rootLeader) {
    Message m = recvMsg(root, tag);
    buf = std::move(m.payload);
  }
  if (isNodeLeader()) {
    const int nl = static_cast<int>(nodeLeaders_.size());
    const int rootIdx = leaderIndexOfRank(rootLeader);
    const int rel = (leaderIndexOfRank(localRank_) - rootIdx + nl) % nl;
    int mask = 1;
    while (mask < nl) {
      if (rel & mask) {
        const int parentIdx = (rel - mask + rootIdx) % nl;
        Message m = recvMsg(nodeLeaders_[static_cast<size_t>(parentIdx)], tag);
        buf = std::move(m.payload);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (rel + mask < nl) {
        const int childIdx = (rel + mask + rootIdx) % nl;
        sendBytes(nodeLeaders_[static_cast<size_t>(childIdx)], tag, buf);
      }
      mask >>= 1;
    }
    for (int r : nodePeers_) {
      if (r == localRank_ || r == root) continue;
      sendBytes(r, tag, buf);
    }
  } else if (localRank_ != root) {
    Message m = recvMsg(nodeLeader(), tag);
    buf = std::move(m.payload);
  }
}

void Comm::bcastBytes(std::vector<std::byte>& buf, int root) {
  if (hierarchicalOn()) {
    hierarchicalBcast(buf, root);
    return;
  }
  // Binomial tree (the classic MPI algorithm): O(log P) latency chains
  // instead of a flat root fan-out, and the root's per-message overheads
  // spread over the tree.
  const int tag = collectiveTag();
  const int np = size();
  const int relative = (localRank_ - root + np) % np;
  int mask = 1;
  while (mask < np) {
    if (relative & mask) {
      const int parent = (relative - mask + root) % np;
      Message m = recvMsg(parent, tag);
      buf = std::move(m.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < np) {
      const int child = (relative + mask + root) % np;
      sendBytes(child, tag, buf);
    }
    mask >>= 1;
  }
}

std::vector<std::vector<std::byte>> Comm::gatherBytes(
    std::span<const std::byte> mine, int root) {
  const int tag = collectiveTag();
  std::vector<std::vector<std::byte>> out;
  if (localRank_ == root) {
    out.resize(static_cast<size_t>(size()));
    out[static_cast<size_t>(root)].assign(mine.begin(), mine.end());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      Message m = recvMsg(r, tag);
      out[static_cast<size_t>(r)] = std::move(m.payload);
    }
  } else {
    sendBytes(root, tag, mine);
  }
  return out;
}

std::vector<std::byte> Comm::allgatherFlatHierarchical(
    std::span<const std::byte> mine) {
  // Members hand their row to the node leader; each leader ships one framed
  // batch ([i32 rank][u64 size][bytes] per member) to rank 0, which splices
  // the rows back into rank order — so the flat buffer is byte-identical to
  // the flat path's — and the hierarchical bcast fans it out.
  const int tag = collectiveTag();
  std::vector<std::byte> flat;
  if (!isNodeLeader()) {
    sendBytes(nodeLeader(), tag, mine);
  } else {
    std::vector<std::byte> batch;
    const auto appendEntry = [&](int rank, std::span<const std::byte> row) {
      const std::int32_t r32 = rank;
      const std::uint64_t n = row.size();
      const auto* pr = reinterpret_cast<const std::byte*>(&r32);
      const auto* pn = reinterpret_cast<const std::byte*>(&n);
      batch.insert(batch.end(), pr, pr + sizeof(r32));
      batch.insert(batch.end(), pn, pn + sizeof(n));
      batch.insert(batch.end(), row.begin(), row.end());
    };
    appendEntry(localRank_, mine);
    for (int r : nodePeers_) {
      if (r == localRank_) continue;
      Message m = recvMsg(r, tag);
      appendEntry(r, m.payload);
      releasePayload(std::move(m.payload));
    }
    if (localRank_ != 0) {
      sendBytes(0, tag, std::move(batch));
    } else {
      std::vector<std::vector<std::byte>> rows(static_cast<size_t>(size()));
      std::vector<bool> have(static_cast<size_t>(size()), false);
      const auto splitBatch = [&](std::span<const std::byte> b) {
        size_t pos = 0;
        while (pos < b.size()) {
          std::int32_t rank = 0;
          std::uint64_t n = 0;
          MC_CHECK(pos + sizeof(rank) + sizeof(n) <= b.size());
          std::memcpy(&rank, b.data() + pos, sizeof(rank));
          pos += sizeof(rank);
          std::memcpy(&n, b.data() + pos, sizeof(n));
          pos += sizeof(n);
          MC_CHECK(rank >= 0 && rank < size());
          MC_CHECK(pos + n <= b.size());
          MC_CHECK(!have[static_cast<size_t>(rank)]);
          have[static_cast<size_t>(rank)] = true;
          rows[static_cast<size_t>(rank)].assign(b.data() + pos,
                                                 b.data() + pos + n);
          pos += static_cast<size_t>(n);
        }
        MC_CHECK(pos == b.size());
      };
      splitBatch(batch);
      for (size_t l = 1; l < nodeLeaders_.size(); ++l) {
        Message m = recvMsg(nodeLeaders_[l], tag);
        splitBatch(m.payload);
        releasePayload(std::move(m.payload));
      }
      for (int r = 0; r < size(); ++r) {
        MC_CHECK(have[static_cast<size_t>(r)]);
        const std::uint64_t n = rows[static_cast<size_t>(r)].size();
        const auto* pn = reinterpret_cast<const std::byte*>(&n);
        flat.insert(flat.end(), pn, pn + sizeof(n));
        flat.insert(flat.end(), rows[static_cast<size_t>(r)].begin(),
                    rows[static_cast<size_t>(r)].end());
      }
    }
  }
  bcastBytes(flat, 0);
  return flat;
}

std::vector<std::byte> Comm::allgatherFlat(std::span<const std::byte> mine) {
  if (hierarchicalOn()) return allgatherFlatHierarchical(mine);
  // Single flatten: the root writes each arriving payload straight into the
  // size-prefixed flat buffer — no intermediate row-of-rows and no second
  // memcpy per row (the old gather + flatten round trip copied every row
  // into `rows` and again into `flat` at root).  Rank order is preserved so
  // the clock arithmetic stays deterministic.
  const int root = 0;
  const int tag = collectiveTag();
  std::vector<std::byte> flat;
  if (localRank_ == root) {
    const auto appendRow = [&](std::span<const std::byte> row) {
      std::uint64_t n = row.size();
      const auto* p = reinterpret_cast<const std::byte*>(&n);
      flat.insert(flat.end(), p, p + sizeof(n));
      flat.insert(flat.end(), row.begin(), row.end());
    };
    for (int r = 0; r < size(); ++r) {
      if (r == root) {
        appendRow(mine);
        continue;
      }
      Message m = recvMsg(r, tag);
      appendRow(m.payload);
      releasePayload(std::move(m.payload));
    }
  } else {
    sendBytes(root, tag, mine);
  }
  bcastBytes(flat, root);
  return flat;
}

std::vector<std::vector<std::byte>> Comm::alltoallImpl(
    const std::vector<std::vector<std::byte>>& sendTo,
    std::vector<std::byte>* selfRow) {
  MC_REQUIRE(static_cast<int>(sendTo.size()) == size(),
             "alltoall requires one buffer per rank (%d), got %zu", size(),
             sendTo.size());
  const int tag = collectiveTag();
  const int np = size();
  std::vector<std::vector<std::byte>> out(static_cast<size_t>(np));
  if (selfRow != nullptr) {
    out[static_cast<size_t>(localRank_)] = std::move(*selfRow);
  } else {
    out[static_cast<size_t>(localRank_)] = sendTo[static_cast<size_t>(
        localRank_)];
  }
  // Pairwise rotation: at step i rank me pairs off against me+i / me-i, so
  // under contention every node's NIC sees one message per step instead of
  // all P-1 senders hammering rank 0's node first, then rank 1's, ...
  for (int i = 1; i < np; ++i) {
    const int peer = (localRank_ + i) % np;
    sendBytes(peer, tag, sendTo[static_cast<size_t>(peer)]);
  }
  for (int i = 1; i < np; ++i) {
    const int peer = (localRank_ + i) % np;
    Message m = recvMsg(peer, tag);
    out[static_cast<size_t>(peer)] = std::move(m.payload);
  }
  return out;
}

std::vector<std::vector<std::byte>> Comm::alltoallBytes(
    const std::vector<std::vector<std::byte>>& sendTo) {
  return alltoallImpl(sendTo, nullptr);
}

std::vector<std::vector<std::byte>> Comm::alltoallBytes(
    std::vector<std::vector<std::byte>>&& sendTo) {
  MC_REQUIRE(static_cast<int>(sendTo.size()) == size(),
             "alltoall requires one buffer per rank (%d), got %zu", size(),
             sendTo.size());
  return alltoallImpl(sendTo, &sendTo[static_cast<size_t>(localRank_)]);
}

}  // namespace mc::transport
