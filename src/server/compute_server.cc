#include "server/compute_server.h"

#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/adapters/hpf_adapter.h"
#include "core/data_move.h"
#include "core/schedule_cache.h"
#include "hpfrt/matvec.h"
#include "obs/metrics.h"
#include "sched/serialize.h"
#include "server/protocol.h"
#include "snapshot/array_io.h"
#include "snapshot/mc_schedule_io.h"
#include "snapshot/snapshot.h"
#include "util/blob_io.h"

namespace mc::server {

namespace {

enum CmdKind : int {
  kCmdAttach = 1,
  kCmdStage = 2,
  kCmdExec = 3,
  kCmdDetach = 4,
  kCmdShutdown = 5,
};

/// One control-plane decision, broadcast from server rank 0 so every rank
/// executes the identical handler sequence in the identical order — the
/// invariant that keeps collective builds, barriers, and per-client
/// inter-program tag counters aligned across the server program.
struct Command {
  int kind = 0;  // CmdKind
  int client = -1;
  long long sessionId = -1;
  int layoutSlot = -1;
  int cached = 0;
  int needMatrix = 0;
  int matrixId = 0;
  int method = 0;
  int count = 0;  // kCmdStage: batch occupancy
  long long members[kMaxBatch] = {0};  // kCmdStage: batched session ids
};
static_assert(std::is_trivially_copyable_v<Command>);

ControlMsg parseControl(const transport::Message& m) {
  MC_REQUIRE(m.payload.size() == sizeof(ControlMsg),
             "malformed control message (%zu bytes)", m.payload.size());
  ControlMsg msg;
  std::memcpy(&msg, m.payload.data(), sizeof(msg));
  return msg;
}

}  // namespace

struct ComputeServer::Impl {
  transport::Comm& c;
  ServerConfig cfg;
  ServerStats stats;

  // Data plane, identical on every server rank.
  core::SetOfRegions mSet, vSet;
  hpfrt::HpfArray<double> x;  // operand-distribution anchor
  hpfrt::MatvecEngine<double> engine;
  layout::Index localLen;

  /// One attached layout: the server's receive half, built once for the
  /// slot, plus the reversed send half for results.  Indexed by slot;
  /// identical on every rank.
  struct LayoutEntry {
    std::shared_ptr<const core::McSchedule> xRecv;
    std::shared_ptr<const sched::Schedule> xPlan;  // alias into xRecv
    std::shared_ptr<const sched::Schedule> yPlan;  // reversed
  };
  std::vector<LayoutEntry> layouts;

  /// A live session: persistent executor halves bound to the layout
  /// slot's plans, retargeted to this session's client program.
  struct Session {
    int client;
    int layoutSlot;
    int matrixId;
    sched::Executor<double> xRecv;
    sched::Executor<double> ySend;
  };
  std::map<long long, std::unique_ptr<Session>> sessions;
  std::map<int, std::unique_ptr<hpfrt::HpfArray<double>>> matrices;

  /// A staged batch: split-phase receives already posted, so its operand
  /// blocks drain underneath the preceding batch's multiply.
  struct Staged {
    Command cmd;
    std::vector<sched::Executor<double>::Pending> pendings;
    std::vector<double> xs;  // k operand blocks, back to back
  };
  std::deque<Staged> staged;
  std::vector<double> ys;

  // Control plane (rank 0 only).
  int clientLo = 0, clientHi = 0;  // contiguous client program span
  long long nextSession = 0;
  // (client layout digest, client width, method) -> layout slot.
  std::map<std::tuple<std::uint64_t, std::uint64_t, int, int>, int> slotOf;
  // Archived client-side send halves, serialized: slot -> client rank ->
  // blob.  A cached attach downloads these instead of building.
  std::vector<std::vector<std::vector<std::byte>>> blobs;
  std::vector<std::size_t> sharingDegree;  // attaches per slot
  struct Request {
    long long sessionId;
  };
  std::deque<Request> queue;     // granted, not yet staged
  std::deque<Request> deferred;  // retried while full; grant is pending
  double perReqEstimate = 0;     // EMA of per-request compute seconds

  Impl(transport::Comm& comm, ServerConfig config)
      : c(comm),
        cfg(config),
        x(comm, hpfrt::matvecVectorDist(config.n, comm.size())),
        engine(x),
        localLen(engine.operandLocalLen()) {
    MC_REQUIRE(cfg.maxBatch >= 1 && cfg.maxBatch <= kMaxBatch,
               "maxBatch must be in [1, %d]", kMaxBatch);
    MC_REQUIRE(cfg.queueDepth >= 1, "queueDepth must be >= 1");
    const layout::Index n = cfg.n;
    mSet.add(core::Region::section(
        layout::RegularSection::box({0, 0}, {n - 1, n - 1})));
    vSet.add(
        core::Region::section(layout::RegularSection::box({0}, {n - 1})));
    // Clients are every program but ours; the span must be contiguous for
    // recvMsgAnyOfPrograms, so the server sits first or last.
    const int np = c.numPrograms();
    MC_REQUIRE(np >= 2, "a compute server needs at least one client program");
    if (c.program() == 0) {
      clientLo = 1;
      clientHi = np - 1;
    } else {
      MC_REQUIRE(c.program() == np - 1,
                 "server program must be first or last");
      clientLo = 0;
      clientHi = np - 2;
    }
    perReqEstimate = 2.0 * static_cast<double>(n) * static_cast<double>(n) /
                         (static_cast<double>(c.size()) *
                          cfg.flopsPerSecond) +
                     1e-3;
  }

  // --- shared handlers (all ranks, in broadcast order) ---------------------

  void dispatch(const Command& cmd) {
    switch (cmd.kind) {
      case kCmdAttach:
        handleAttach(cmd);
        break;
      case kCmdStage:
        handleStage(cmd);
        break;
      case kCmdExec:
        execFront();
        break;
      case kCmdDetach:
        sessions.erase(cmd.sessionId);
        break;
      default:
        MC_REQUIRE(false, "unknown server command %d", cmd.kind);
    }
  }

  void handleAttach(const Command& cmd) {
    if (cmd.cached == 0) {
      // First sighting of this layout (rank 0's slot map decided):
      // collective inspector paired with the client's build.  The layout
      // entry keeps the receive half for every later client program
      // presenting the same layout.
      MC_REQUIRE(cmd.layoutSlot == static_cast<int>(layouts.size()));
      core::McSchedule built = core::computeScheduleRecv(
          c, core::HpfAdapter::describe(x), vSet, cmd.client,
          static_cast<core::Method>(cmd.method));
      built.plan.compress();
      built.plan.releaseExpandedForms();
      LayoutEntry e;
      e.xRecv = std::make_shared<const core::McSchedule>(std::move(built));
      e.xPlan = std::shared_ptr<const sched::Schedule>(e.xRecv,
                                                       &e.xRecv->plan);
      e.yPlan = std::make_shared<const sched::Schedule>(
          sched::reverse(e.xRecv->plan));
      layouts.push_back(std::move(e));
      if (c.rank() == 0) {
        // Archive the client's serialized send halves for later tenants.
        std::vector<std::vector<std::byte>> perRank;
        const int np = c.programInfo(cmd.client).nprocs;
        perRank.reserve(static_cast<std::size_t>(np));
        for (int i = 0; i < np; ++i) {
          perRank.push_back(
              std::move(c.recvMsgFrom(cmd.client, i, kControlTag).payload));
        }
        blobs.push_back(std::move(perRank));
      }
    } else if (c.rank() == 0) {
      // Shared layout: the client skips its inspector entirely and
      // downloads the archived send half instead.
      const auto& perRank = blobs[static_cast<std::size_t>(cmd.layoutSlot)];
      for (std::size_t i = 0; i < perRank.size(); ++i) {
        c.sendBytesTo(cmd.client, static_cast<int>(i), kControlTag,
                      std::vector<std::byte>(perRank[i]));
      }
    }

    if (cmd.needMatrix != 0) {
      auto A = std::make_unique<hpfrt::HpfArray<double>>(
          c, hpfrt::matvecMatrixDist(cfg.n, c.size()));
      const auto mRecv = core::defaultScheduleCache().getOrBuildRecv(
          c, core::HpfAdapter::describe(*A), mSet, cmd.client,
          static_cast<core::Method>(cmd.method));
      core::dataMoveRecv<double>(c, *mRecv, A->raw());
      c.barrier();
      if (c.rank() == 0) c.sendValueTo(cmd.client, 0, kControlTag, 1);
      matrices[cmd.matrixId] = std::move(A);
    }

    const LayoutEntry& e = layouts[static_cast<std::size_t>(cmd.layoutSlot)];
    auto s = std::make_unique<Session>(Session{
        cmd.client, cmd.layoutSlot, cmd.matrixId,
        sched::Executor<double>::receiver(c, e.xPlan, cmd.client),
        sched::Executor<double>::sender(c, e.yPlan, cmd.client)});
    sessions.emplace(cmd.sessionId, std::move(s));
  }

  void handleStage(const Command& cmd) {
    Staged st;
    st.cmd = cmd;
    st.xs.resize(static_cast<std::size_t>(cmd.count) *
                 static_cast<std::size_t>(localLen));
    st.pendings.reserve(static_cast<std::size_t>(cmd.count));
    for (int j = 0; j < cmd.count; ++j) {
      st.pendings.push_back(
          sessions.at(cmd.members[j])->xRecv.startRecv());
    }
    staged.push_back(std::move(st));
  }

  void execFront() {
    MC_REQUIRE(!staged.empty());
    Staged st = std::move(staged.front());
    staged.pop_front();
    const int k = st.cmd.count;
    const hpfrt::HpfArray<double>& A = *matrices.at(st.cmd.matrixId);
    const layout::Index myRows = A.dist().localShape(c.rank())[0];
    const std::span<double> xs(st.xs);
    for (int j = 0; j < k; ++j) {
      st.pendings[static_cast<std::size_t>(j)].finish(xs.subspan(
          static_cast<std::size_t>(j) * static_cast<std::size_t>(localLen),
          static_cast<std::size_t>(localLen)));
    }
    ys.resize(static_cast<std::size_t>(k) * static_cast<std::size_t>(myRows));
    c.barrier();
    const double t0 = c.now();
    // Batch k+1's receives are already posted (handleStage); drain them
    // underneath this batch's compute.
    engine.multiplyBatch(A, xs, ys, k, [this] {
      if (staged.empty()) return;
      for (auto& p : staged.front().pendings) p.poll();
    });
    // Era-calibrated arithmetic cost, once for the fused sweep.
    c.advance(2.0 * static_cast<double>(myRows * cfg.n) *
              static_cast<double>(k) / cfg.flopsPerSecond);
    c.barrier();
    const double t1 = c.now();
    const std::span<const double> yspan(ys);
    for (int j = 0; j < k; ++j) {
      sessions.at(st.cmd.members[j])
          ->ySend.runSend(yspan.subspan(
              static_cast<std::size_t>(j) * static_cast<std::size_t>(myRows),
              static_cast<std::size_t>(myRows)));
    }
    if (c.rank() == 0) {
      const double per = (t1 - t0) / static_cast<double>(k);
      for (int j = 0; j < k; ++j) {
        c.sendValueTo(sessions.at(st.cmd.members[j])->client, 0, kControlTag,
                      DoneMsg{per});
      }
      perReqEstimate = 0.5 * perReqEstimate + 0.5 * per;
      stats.batches += 1;
      stats.batchedRequests += static_cast<std::uint64_t>(k);
      stats.batchOccupancy.add(static_cast<double>(k));
      if (k > stats.maxBatchOccupancy) stats.maxBatchOccupancy = k;
    }
  }

  // --- control plane (rank 0) ----------------------------------------------

  void issue(const Command& cmd) {
    c.bcastValue(cmd, 0);
    dispatch(cmd);
  }

  double backoffHint() const {
    return perReqEstimate *
           static_cast<double>(queue.size() + deferred.size() + 1);
  }

  void onAttach(const ControlMsg& msg, int srcGlobal) {
    MC_REQUIRE(msg.n == cfg.n,
               "session n=%lld does not match the server's n=%lld",
               static_cast<long long>(msg.n), static_cast<long long>(cfg.n));
    const int client = c.programOf(srcGlobal);
    const auto key = std::make_tuple(msg.xDigest[0], msg.xDigest[1],
                                     msg.clientProcs, msg.method);
    const auto it = slotOf.find(key);
    const bool cached = it != slotOf.end();
    const int slot =
        cached ? it->second : static_cast<int>(layouts.size());
    const bool needMatrix = matrices.find(msg.matrixId) == matrices.end();
    const long long sid = nextSession++;

    // Ack before the broadcast: on a miss both programs enter a collective
    // build next, and the client can only join once it knows the verdict.
    c.sendValueTo(client, 0, kControlTag,
                  AttachAck{sid, cached ? 1 : 0, needMatrix ? 1 : 0});

    Command cmd;
    cmd.kind = kCmdAttach;
    cmd.client = client;
    cmd.sessionId = sid;
    cmd.layoutSlot = slot;
    cmd.cached = cached ? 1 : 0;
    cmd.needMatrix = needMatrix ? 1 : 0;
    cmd.matrixId = msg.matrixId;
    cmd.method = msg.method;
    issue(cmd);

    if (!cached) {
      slotOf.emplace(key, slot);
      sharingDegree.push_back(0);
    }
    std::size_t& degree = sharingDegree[static_cast<std::size_t>(slot)];
    degree += 1;
    if (degree > stats.maxSharingDegree) stats.maxSharingDegree = degree;
    stats.attaches += 1;
    if (cached) {
      stats.schedShareHits += 1;
    } else {
      stats.schedShareMisses += 1;
    }
    if (needMatrix) stats.matrixShips += 1;
  }

  void onSubmit(const ControlMsg& msg) {
    const Session& s = *sessions.at(msg.sessionId);
    if (static_cast<int>(queue.size()) < cfg.queueDepth) {
      queue.push_back(Request{msg.sessionId});
      if (queue.size() > stats.maxQueueDepth) {
        stats.maxQueueDepth = queue.size();
      }
      stats.admitted += 1;
      c.sendValueTo(s.client, 0, kControlTag, SubmitAck{1, 0.0});
      return;
    }
    if (msg.retry == 0) {
      // Bounce with a backpressure hint; the client backs off and retries.
      stats.rejected += 1;
      c.sendValueTo(s.client, 0, kControlTag, SubmitAck{0, backoffHint()});
      return;
    }
    // A retry never bounces twice: hold it and grant when space frees.
    stats.deferred += 1;
    deferred.push_back(Request{msg.sessionId});
  }

  void admitDeferred() {
    while (!deferred.empty() &&
           static_cast<int>(queue.size()) < cfg.queueDepth) {
      const Request r = deferred.front();
      deferred.pop_front();
      queue.push_back(r);
      if (queue.size() > stats.maxQueueDepth) {
        stats.maxQueueDepth = queue.size();
      }
      stats.admitted += 1;
      c.sendValueTo(sessions.at(r.sessionId)->client, 0, kControlTag,
                    SubmitAck{1, 0.0});
    }
  }

  void handleControl(const transport::Message& m) {
    const ControlMsg msg = parseControl(m);
    switch (msg.kind) {
      case kMsgAttach:
        onAttach(msg, m.srcGlobal);
        break;
      case kMsgSubmit:
        onSubmit(msg);
        break;
      case kMsgDetach: {
        stats.detaches += 1;
        Command cmd;
        cmd.kind = kCmdDetach;
        cmd.sessionId = msg.sessionId;
        issue(cmd);
        break;
      }
      default:
        MC_REQUIRE(false, "unknown control message kind %d", msg.kind);
    }
  }

  /// Coalesces the longest run of queued requests compatible with the
  /// queue head — same layout slot (operand fingerprints match, so their
  /// exchanges fuse) and same matrix (one compute sweep serves all).
  void stageNext() {
    const Session& head = *sessions.at(queue.front().sessionId);
    Command cmd;
    cmd.kind = kCmdStage;
    cmd.layoutSlot = head.layoutSlot;
    cmd.matrixId = head.matrixId;
    int k = 0;
    for (auto it = queue.begin(); it != queue.end() && k < cfg.maxBatch;) {
      const Session& s = *sessions.at(it->sessionId);
      if (s.layoutSlot == head.layoutSlot && s.matrixId == head.matrixId) {
        cmd.members[k++] = it->sessionId;
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
    cmd.count = k;
    issue(cmd);
  }

  void runRank0() {
    for (;;) {
      if (staged.empty() && queue.empty() && deferred.empty()) {
        if (stats.detaches >=
            static_cast<std::uint64_t>(cfg.totalSessions)) {
          Command cmd;
          cmd.kind = kCmdShutdown;
          c.bcastValue(cmd, 0);
          return;
        }
        // Fully idle: block for the next control message.
        handleControl(c.recvMsgAnyOfPrograms(clientLo, clientHi,
                                             kControlTag));
      }
      // Drain whatever other control traffic has arrived.
      for (;;) {
        const std::optional<transport::Message> m =
            c.tryRecvMsgAnyOfPrograms(clientLo, clientHi, kControlTag);
        if (!m.has_value()) break;
        handleControl(*m);
      }
      admitDeferred();
      // Keep one batch staged ahead of the one executing, so the staged
      // batch's operand receives drain underneath the running multiply.
      while (static_cast<int>(staged.size()) < 2 && !queue.empty()) {
        stageNext();
      }
      if (!staged.empty()) {
        Command cmd;
        cmd.kind = kCmdExec;
        issue(cmd);
      }
    }
  }

  void runWorker() {
    for (;;) {
      const Command cmd = c.bcastValue(Command{}, 0);
      if (cmd.kind == kCmdShutdown) return;
      dispatch(cmd);
    }
  }

  // --- warm-start archive (snapshot section "server.archive") --------------
  //
  // What a restart must keep to make the first same-layout attach a sharing
  // hit with zero inspector builds: the per-rank layout entries (receive
  // halves; the reversed result plans are recomputed), the shipped
  // matrices (else needMatrix forces a collective matrix build), and rank
  // 0's control-plane state — the layout-fingerprint slot map, the
  // archived client send blobs, the sharing degrees, and the session-id
  // counter.  Live sessions and queued requests are deliberately NOT
  // persisted: a restart drops its tenants, warm-start only keeps what
  // they paid to build.

  std::vector<std::byte> saveArchive() const {
    std::vector<std::byte> out;
    blob::putU64(out, static_cast<std::uint64_t>(cfg.n));
    blob::putU64(out, layouts.size());
    for (const LayoutEntry& e : layouts) {
      blob::putBytes(out, snapshot::serializeMcSchedule(*e.xRecv));
    }
    blob::putU64(out, matrices.size());
    for (const auto& [id, A] : matrices) {
      blob::putU64(out,
                   static_cast<std::uint64_t>(static_cast<std::int64_t>(id)));
      blob::putBytes(out, snapshot::serializeArray(*A));
    }
    blob::putU64(out, c.rank() == 0 ? 1 : 0);
    if (c.rank() == 0) {
      blob::putU64(out, static_cast<std::uint64_t>(nextSession));
      blob::putU64(out, slotOf.size());
      for (const auto& [key, slot] : slotOf) {
        blob::putU64(out, std::get<0>(key));
        blob::putU64(out, std::get<1>(key));
        blob::putU64(out, static_cast<std::uint64_t>(std::get<2>(key)));
        blob::putU64(out, static_cast<std::uint64_t>(std::get<3>(key)));
        blob::putU64(out, static_cast<std::uint64_t>(slot));
      }
      blob::putU64(out, blobs.size());
      for (const auto& perRank : blobs) {
        blob::putU64(out, perRank.size());
        for (const auto& b : perRank) blob::putBytes(out, b);
      }
      std::vector<std::uint64_t> degrees(sharingDegree.begin(),
                                         sharingDegree.end());
      blob::putPods(out, degrees);
    }
    return out;
  }

  void restoreArchive(std::span<const std::byte> bytes) {
    MC_REQUIRE(layouts.empty() && matrices.empty() && sessions.empty(),
               "warm-start restore must run before any session attaches");
    blob::ByteReader r(bytes);
    const std::uint64_t n = r.u64();
    MC_REQUIRE(n == static_cast<std::uint64_t>(cfg.n),
               "snapshot server n=%llu does not match configured n=%lld",
               static_cast<unsigned long long>(n),
               static_cast<long long>(cfg.n));
    const std::uint64_t numLayouts = r.count(sizeof(std::uint64_t));
    layouts.reserve(static_cast<std::size_t>(numLayouts));
    for (std::uint64_t i = 0; i < numLayouts; ++i) {
      LayoutEntry e;
      auto xRecv = std::make_shared<const core::McSchedule>(
          snapshot::deserializeMcSchedule(r.bytes()));
      e.xRecv = xRecv;
      e.xPlan =
          std::shared_ptr<const sched::Schedule>(xRecv, &xRecv->plan);
      e.yPlan =
          std::make_shared<const sched::Schedule>(sched::reverse(xRecv->plan));
      layouts.push_back(std::move(e));
    }
    const std::uint64_t numMatrices = r.count(2 * sizeof(std::uint64_t));
    for (std::uint64_t i = 0; i < numMatrices; ++i) {
      const int id =
          static_cast<int>(static_cast<std::int64_t>(r.u64()));
      matrices[id] = std::make_unique<hpfrt::HpfArray<double>>(
          snapshot::deserializeHpfArray<double>(c, r.bytes()));
    }
    const bool root = r.u64() != 0;
    MC_REQUIRE(root == (c.rank() == 0),
               "snapshot control-plane state is on the wrong rank");
    if (root) {
      nextSession = static_cast<long long>(r.u64());
      MC_REQUIRE(nextSession >= 0, "corrupt server archive: session counter");
      const std::uint64_t numSlots = r.count(5 * sizeof(std::uint64_t));
      MC_REQUIRE(numSlots == numLayouts,
                 "server archive slot map covers %llu of %llu layouts",
                 static_cast<unsigned long long>(numSlots),
                 static_cast<unsigned long long>(numLayouts));
      for (std::uint64_t i = 0; i < numSlots; ++i) {
        const std::uint64_t d0 = r.u64();
        const std::uint64_t d1 = r.u64();
        const std::uint64_t procs = r.u64();
        const int method = static_cast<int>(r.u64());
        const std::uint64_t slot = r.u64();
        MC_REQUIRE(slot < numLayouts,
                   "server archive references layout slot %llu of %llu",
                   static_cast<unsigned long long>(slot),
                   static_cast<unsigned long long>(numLayouts));
        const bool fresh =
            slotOf
                .emplace(std::make_tuple(d0, d1, static_cast<int>(procs),
                                         method),
                         static_cast<int>(slot))
                .second;
        MC_REQUIRE(fresh, "server archive has a duplicate layout key");
      }
      const std::uint64_t numBlobSlots = r.count(sizeof(std::uint64_t));
      MC_REQUIRE(numBlobSlots == numLayouts,
                 "server archive blobs cover %llu of %llu layouts",
                 static_cast<unsigned long long>(numBlobSlots),
                 static_cast<unsigned long long>(numLayouts));
      for (std::uint64_t i = 0; i < numBlobSlots; ++i) {
        const std::uint64_t ranks = r.count(sizeof(std::uint64_t));
        std::vector<std::vector<std::byte>> perRank;
        perRank.reserve(static_cast<std::size_t>(ranks));
        for (std::uint64_t j = 0; j < ranks; ++j) {
          const std::span<const std::byte> b = r.bytes();
          perRank.emplace_back(b.begin(), b.end());
        }
        blobs.push_back(std::move(perRank));
      }
      const std::vector<std::uint64_t> degrees = r.pods<std::uint64_t>();
      MC_REQUIRE(degrees.size() == numLayouts,
                 "server archive sharing degrees cover %zu of %llu layouts",
                 degrees.size(),
                 static_cast<unsigned long long>(numLayouts));
      sharingDegree.assign(degrees.begin(), degrees.end());
    }
    r.requireEnd("server archive");
    // Layout-count agreement: every rank must have restored the same
    // number of layout entries, or a later broadcast attach command would
    // index out of range on some rank.
    const auto count = static_cast<std::uint64_t>(layouts.size());
    const std::uint64_t minC = c.allreduceValue(
        count,
        [](std::uint64_t a, std::uint64_t b) { return a < b ? a : b; });
    const std::uint64_t maxC = c.allreduceValue(
        count,
        [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
    MC_REQUIRE(minC == maxC,
               "restored layout counts disagree across server ranks");
  }
};

ComputeServer::ComputeServer(transport::Comm& comm, ServerConfig config)
    : impl_(std::make_unique<Impl>(comm, config)) {}

ComputeServer::~ComputeServer() = default;

void ComputeServer::run() {
  Impl& im = *impl_;
  const bool root = im.c.rank() == 0;
  const bool persist = !im.cfg.snapshotDir.empty();
  if (persist) {
    // Collective: register the archive section, then restore if a complete
    // snapshot is present (first boot starts cold, later boots warm).
    snapshot::threadSections().add(
        "server.archive",
        [this](transport::Comm&) { return impl_->saveArchive(); },
        [this](transport::Comm&, std::span<const std::byte> bytes) {
          impl_->restoreArchive(bytes);
        });
    if (snapshotAvailable(im.c, im.cfg.snapshotDir)) {
      snapshotRestore(im.c, im.cfg.snapshotDir);
    }
  }
  if (root) {
    // Control-plane visibility on the rank's metrics registry, sampled by
    // obs snapshots taken on this thread during the run.
    obs::MetricsRegistry& reg = obs::threadRegistry();
    const ServerStats& st = im.stats;
    reg.registerCounter("server.sched_share.hits",
                        [&st] { return static_cast<double>(st.schedShareHits); });
    reg.registerCounter("server.sched_share.misses", [&st] {
      return static_cast<double>(st.schedShareMisses);
    });
    reg.registerCounter("server.sharing.max_degree", [&st] {
      return static_cast<double>(st.maxSharingDegree);
    });
    reg.registerCounter("server.queue.max_depth", [&st] {
      return static_cast<double>(st.maxQueueDepth);
    });
    reg.registerCounter("server.queue.rejected",
                        [&st] { return static_cast<double>(st.rejected); });
    reg.registerCounter("server.batch.count",
                        [&st] { return static_cast<double>(st.batches); });
    reg.registerCounter("server.batch.requests", [&st] {
      return static_cast<double>(st.batchedRequests);
    });
    im.runRank0();
    reg.unregisterPrefix("server.");
  } else {
    im.runWorker();
  }
  if (persist) {
    // Collective: all ranks reach this after the shutdown broadcast.
    snapshotSave(im.c, im.cfg.snapshotDir);
    snapshot::threadSections().remove("server.archive");
  }
}

const ServerStats& ComputeServer::stats() const { return impl_->stats; }

}  // namespace mc::server
