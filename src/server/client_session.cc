#include "server/client_session.h"

#include <optional>
#include <utility>
#include <vector>

#include "core/adapters/parti_adapter.h"
#include "core/data_move.h"
#include "core/schedule_cache.h"
#include "sched/executor.h"
#include "sched/serialize.h"
#include "server/protocol.h"

namespace mc::server {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;

struct ClientSession::Impl {
  transport::Comm& c;
  SessionConfig cfg;
  parti::BlockDistArray<double> A;
  parti::BlockDistArray<double> x;
  parti::BlockDistArray<double> y;
  core::SetOfRegions mSet, vSet;
  long long sessionId = -1;
  bool attached = false;

  // The send half for x (built or downloaded) and its reverse for y; the
  // executors persist across requests (steady-state zero-copy runs).
  std::shared_ptr<const core::McSchedule> xSendKeepAlive;
  std::shared_ptr<const sched::Schedule> xPlan;
  std::shared_ptr<const sched::Schedule> yPlan;
  std::optional<sched::Executor<double>> xSendExec;
  std::optional<sched::Executor<double>> yRecvExec;

  Impl(transport::Comm& comm, SessionConfig config)
      : c(comm),
        cfg(config),
        A(comm,
          layout::BlockDecomp(Shape::of({config.n, config.n}),
                              {comm.size(), 1}),
          0),
        x(comm,
          layout::BlockDecomp(Shape::of({config.n + config.pad}),
                              {comm.size()}),
          0),
        y(comm,
          layout::BlockDecomp(Shape::of({config.n + config.pad}),
                              {comm.size()}),
          0) {
    const Index n = cfg.n;
    mSet.add(core::Region::section(
        RegularSection::box({0, 0}, {n - 1, n - 1})));
    vSet.add(
        core::Region::section(RegularSection::box({0}, {n - 1})));
    A.fillByPoint([this](const Point& p) {
      return matrixEntry(cfg.matrixId, p[0], p[1]);
    });
  }

  AttachStats attach() {
    MC_REQUIRE(!attached, "session already attached");
    const int server = cfg.serverProgram;
    c.barrier();
    const double t0 = c.now();

    // The canonical layout fingerprint is rank 0's (adapter fingerprints
    // are rank-local); broadcast it so the whole program presents one key.
    HashStream::Digest d = core::scheduleSideDigest(
        core::PartiAdapter::describe(x), vSet);
    d = c.bcastValue(d, 0);

    AttachAck ack{};
    if (c.rank() == 0) {
      ControlMsg msg;
      msg.kind = kMsgAttach;
      msg.n = cfg.n;
      msg.matrixId = cfg.matrixId;
      msg.method = static_cast<int>(cfg.method);
      msg.clientProcs = c.size();
      msg.xDigest[0] = d[0];
      msg.xDigest[1] = d[1];
      c.sendValueTo(server, 0, kControlTag, msg);
      ack = c.recvValueFrom<AttachAck>(server, 0, kControlTag);
    }
    ack = c.bcastValue(ack, 0);
    sessionId = ack.sessionId;

    if (ack.cached == 0) {
      // First client with this layout: collective build paired with the
      // server's receive half, then upload the serialized send half so
      // later tenants skip their inspector entirely.
      xSendKeepAlive = std::make_shared<const core::McSchedule>(
          core::computeScheduleSend(c, core::PartiAdapter::describe(x), vSet,
                                    server, cfg.method));
      xPlan = std::shared_ptr<const sched::Schedule>(
          xSendKeepAlive, &xSendKeepAlive->plan);
      c.sendBytesTo(server, 0, kControlTag,
                    sched::serializeSchedule(xSendKeepAlive->plan));
    } else {
      transport::Message m = c.recvMsgFrom(server, 0, kControlTag);
      xPlan = std::make_shared<const sched::Schedule>(
          sched::deserializeSchedule(m.payload));
    }
    yPlan = std::make_shared<const sched::Schedule>(sched::reverse(*xPlan));
    xSendExec.emplace(
        sched::Executor<double>::sender(c, xPlan, server));
    yRecvExec.emplace(
        sched::Executor<double>::receiver(c, yPlan, server));
    c.barrier();
    const double t1 = c.now();

    if (ack.needMatrix != 0) {
      const auto mSend = core::defaultScheduleCache().getOrBuildSend(
          c, core::PartiAdapter::describe(A), mSet, server, cfg.method);
      core::dataMoveSend<double>(c, *mSend, A.raw());
      // The ship completes when the server acknowledges unpacking.
      if (c.rank() == 0) {
        (void)c.recvValueFrom<int>(server, 0, kControlTag);
      }
    }
    c.barrier();
    const double t2 = c.now();

    attached = true;
    AttachStats stats;
    stats.scheduleSeconds = t1 - t0;
    stats.matrixSeconds = t2 - t1;
    stats.sharedSchedule = ack.cached != 0;
    stats.shippedMatrix = ack.needMatrix != 0;
    return stats;
  }

  RequestResult request() {
    MC_REQUIRE(attached, "request() before attach()");
    const int server = cfg.serverProgram;
    RequestResult res;
    double t0 = 0;
    if (c.rank() == 0) {
      t0 = c.now();
      ControlMsg msg;
      msg.kind = kMsgSubmit;
      msg.sessionId = sessionId;
      c.sendValueTo(server, 0, kControlTag, msg);
      SubmitAck ack = c.recvValueFrom<SubmitAck>(server, 0, kControlTag);
      if (ack.granted == 0) {
        // Backpressure: honor the server's hint, then retry.  A retry is
        // never bounced again — the server holds it for a deferred grant.
        res.backedOff = true;
        c.advance(ack.retryAfterSeconds);
        msg.retry = 1;
        c.sendValueTo(server, 0, kControlTag, msg);
        ack = c.recvValueFrom<SubmitAck>(server, 0, kControlTag);
        MC_REQUIRE(ack.granted != 0, "retried submit must be granted");
      }
    }
    // Non-root ranks send immediately; their operand blocks wait in the
    // server's mailboxes until the batch is staged.
    xSendExec->runSend(x.raw());
    yRecvExec->runRecv(y.raw());
    if (c.rank() == 0) {
      const DoneMsg done = c.recvValueFrom<DoneMsg>(server, 0, kControlTag);
      res.latencySeconds = c.now() - t0;
      res.serverComputeSeconds = done.computeSeconds;
    }
    res = c.bcastValue(res, 0);
    return res;
  }

  void detach() {
    MC_REQUIRE(attached, "detach() before attach()");
    c.barrier();
    if (c.rank() == 0) {
      ControlMsg msg;
      msg.kind = kMsgDetach;
      msg.sessionId = sessionId;
      c.sendValueTo(cfg.serverProgram, 0, kControlTag, msg);
    }
    attached = false;
  }
};

ClientSession::ClientSession(transport::Comm& comm, SessionConfig config)
    : impl_(std::make_unique<Impl>(comm, config)) {}

ClientSession::~ClientSession() = default;

AttachStats ClientSession::attach() { return impl_->attach(); }
RequestResult ClientSession::request() { return impl_->request(); }
void ClientSession::detach() { impl_->detach(); }

parti::BlockDistArray<double>& ClientSession::x() { return impl_->x; }
parti::BlockDistArray<double>& ClientSession::y() { return impl_->y; }
parti::BlockDistArray<double>& ClientSession::matrix() { return impl_->A; }
long long ClientSession::sessionId() const { return impl_->sessionId; }

}  // namespace mc::server
