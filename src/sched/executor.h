// sched::Executor — the zero-copy, arrival-order schedule executor.
//
// A Schedule is built once and executed many times (the inspector/executor
// split the paper inherits from Saltz et al.); the free-function execute()
// re-derived buffers and matching state on every call and paid two payload
// copies per message (pack buffer -> Message on send, Message -> temporary
// vector on receive).  An Executor instead *binds* to one schedule:
//
//   bind (construction)           run (per time-step)
//   ---------------------------   -------------------------------------
//   per-peer plan byte counts     pack runs straight into a pooled
//   recv slots indexed by         payload buffer, move it into the
//     source global rank          Message (zero copies), drain receives
//   persistent free-buffer list   in *arrival order*, unpack straight
//                                 out of the Message payload, recycle
//                                 the buffer for the next step's sends
//
// In steady state a run() performs no transport-layer payload copies and —
// for schedules whose send and receive volumes match, e.g. ghost exchanges —
// no payload heap allocations: each received buffer becomes one of the next
// step's send buffers.  TrafficStats{bytesCopied, allocations} observe this.
//
// Arrival-order drain: receives match any rank of the peer program
// (Comm::recvMsgAnyOf) and are routed to their plan by the sender's global
// rank.  This is safe for copy semantics because builders produce *disjoint*
// per-peer receive offsets — unpacks commute — and each (peer, tag) pair
// carries exactly one message per run, so the MPI non-overtaking guarantee
// is never needed across peers, only within one pair where the mailbox
// already provides it.  Accumulating runs (runAdd) are NOT order-independent
// (floating-point += does not commute across peers targeting the same
// offset), so the drain stashes payloads and applies them in peer order —
// results stay bitwise identical under any delivery interleaving.
//
// One exchange, two message layouts.  Bind fixes the messages one run sends
// and the number it receives; every run walks the outbox through one send
// loop and drains that many arrivals through one receive function and one
// intake.  The flat layout sends one headerless message per send plan and
// routes each arrival by its transport envelope.  The node-aggregated layout
// (NetConfig::nodeAggregation, intra-program only; wire format in
// node_agg.h) sends one header-tagged message per same-node plan plus one
// framed message per remote node, whose leader relays the other ranks'
// segments intra-node; arrivals route by header.
//
// Split-phase execution: run() is synchronous — it blocks draining every
// receive before the caller computes a single point, so per-step time is
// communication latency *added to* compute.  start() instead posts all
// sends and returns a Pending handle; the caller computes whatever does not
// touch the schedule's destination footprint (see footprint.h), calling
// Pending::poll() now and then to consume messages that have already
// arrived, and Pending::finish(dst) / finishAdd(dst) to drain the rest,
// apply local plans, and unpack — communication rides under computation.
// Unpacks are deferred to finish in *plan order*, so results are bitwise
// identical to run()/runAdd() under any delivery interleaving (copy unpacks
// commute; add already applied in peer order).  The buffer-recycling
// invariant survives: payloads stash by plan slot while pending and recycle
// into the executor's free list at finish, so steady-state split-phase runs
// stay zero-copy and allocation-free exactly like run().  A Pending
// destroyed without finish cancels cleanly: the abandoned exchange's
// messages are drained and discarded so the next run sees a clean mailbox.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "obs/span.h"
#include "sched/footprint.h"
#include "sched/kernels.h"
#include "sched/node_agg.h"
#include "sched/schedule.h"
#include "transport/comm.h"

namespace mc::sched {

template <typename T>
class Executor {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Binds to an intra-program schedule the caller keeps alive.
  Executor(transport::Comm& comm, const Schedule& sched)
      : Executor(comm, &sched, nullptr, /*remoteProgram=*/-1) {}

  /// Binds to an intra-program schedule, sharing ownership (the usual form
  /// for cached schedules).
  Executor(transport::Comm& comm, std::shared_ptr<const Schedule> sched)
      : Executor(comm, sched.get(), sched, /*remoteProgram=*/-1) {}

  /// The sending half of an inter-program move (peer ranks of the
  /// schedule's sends live in `remoteProgram`).
  static Executor sender(transport::Comm& comm, const Schedule& sched,
                         int remoteProgram) {
    MC_REQUIRE(sched.recvs.empty(),
               "sender half must not carry receive plans");
    MC_REQUIRE(sched.localElementCount() == 0,
               "inter-program schedules have no local transfers");
    return Executor(comm, &sched, nullptr, remoteProgram);
  }
  static Executor sender(transport::Comm& comm,
                         std::shared_ptr<const Schedule> sched,
                         int remoteProgram) {
    MC_REQUIRE(sched && sched->recvs.empty() &&
               sched->localElementCount() == 0);
    return Executor(comm, sched.get(), sched, remoteProgram);
  }

  /// The receiving half of an inter-program move.
  static Executor receiver(transport::Comm& comm, const Schedule& sched,
                           int remoteProgram) {
    MC_REQUIRE(sched.sends.empty(),
               "receiver half must not carry send plans");
    MC_REQUIRE(sched.localElementCount() == 0,
               "inter-program schedules have no local transfers");
    return Executor(comm, &sched, nullptr, remoteProgram);
  }
  static Executor receiver(transport::Comm& comm,
                           std::shared_ptr<const Schedule> sched,
                           int remoteProgram) {
    MC_REQUIRE(sched && sched->sends.empty() &&
               sched->localElementCount() == 0);
    return Executor(comm, sched.get(), sched, remoteProgram);
  }

  const Schedule& schedule() const { return *sched_; }

  /// Re-binds this executor to a new (e.g. patched) schedule without the
  /// cold-start costs of constructing a fresh one: recycled payload buffers
  /// survive the re-bind (stashed payloads join them), and compiled plan
  /// kernels are carried over for every peer whose plan is unchanged — only
  /// plans the repartitioning actually touched recompile.  After one step
  /// of a same-shaped schedule the executor is back to its steady state
  /// (zero payload allocations per run).  Intra-program only.
  void rebind(const Schedule& sched) { rebindTo(&sched, nullptr); }
  void rebind(std::shared_ptr<const Schedule> sched) {
    const Schedule* p = sched.get();
    MC_REQUIRE(p != nullptr);
    rebindTo(p, std::move(sched));
  }

  // --- intra-program runs ---------------------------------------------------

  /// One schedule execution: pack + send, local copies, drain + unpack.
  /// Collective over the program; `tag` must match across it.  `src` and
  /// `dst` may alias (ghost fills).  Every run entry point throws mc::Error,
  /// before touching either buffer, when a span is shorter than the bound
  /// plan's offsets reach.
  void run(std::span<const T> src, std::span<T> dst, int tag) {
    MC_REQUIRE(remoteProgram_ < 0,
               "inter-program executor: use runSend / runRecv");
    MC_REQUIRE(!inFlight_,
               "split-phase run in flight: finish() it before run()");
    requireSrc(src);
    requireDst(dst);
    sendPhase(src, tag);
    localPhase(src, dst, /*add=*/false);
    openExchange(tag);
    drain(dst, /*unpackNow=*/true);
  }
  void run(std::span<const T> src, std::span<T> dst) {
    run(src, dst, comm_->nextUserTag());
  }

  /// Accumulating execution (dst[off] += value): the Chaos scatter-add.
  /// Received contributions are applied in peer order regardless of arrival
  /// order, so results are bitwise deterministic.
  void runAdd(std::span<const T> src, std::span<T> dst, int tag) {
    MC_REQUIRE(remoteProgram_ < 0,
               "inter-program executor: use runSend / runRecv");
    MC_REQUIRE(!inFlight_,
               "split-phase run in flight: finish() it before runAdd()");
    requireSrc(src);
    requireDst(dst);
    sendPhase(src, tag);
    localPhase(src, dst, /*add=*/true);
    openExchange(tag);
    drain(dst, /*unpackNow=*/false);
    unpackStash(dst, /*add=*/true);
  }
  void runAdd(std::span<const T> src, std::span<T> dst) {
    runAdd(src, dst, comm_->nextUserTag());
  }

  // --- split-phase runs -----------------------------------------------------

  /// A split-phase run in flight (see the file comment).  Move-only; exactly
  /// one of finish()/finishAdd() must eventually run, or the destructor
  /// cancels the exchange (drains and discards its messages).
  class Pending {
   public:
    Pending(const Pending&) = delete;
    Pending& operator=(const Pending&) = delete;
    Pending(Pending&& other) noexcept : ex_(other.ex_) {
      other.ex_ = nullptr;
    }
    Pending& operator=(Pending&&) = delete;
    ~Pending() {
      if (ex_ != nullptr) ex_->cancelPending();
    }

    /// Opportunistic non-blocking drain: consumes every message that has
    /// already arrived (stashing the payload — unpacking waits for finish),
    /// then returns true when all receives are in.
    bool poll() {
      requireActive();
      return ex_->pollPending();
    }

    /// True when every expected message has been consumed (by poll).
    bool done() const {
      requireActive();
      return ex_->exchangeDone();
    }

    /// Blocks for the remaining messages, applies local transfers from the
    /// span passed to start(), unpacks everything in plan order, recycles
    /// payloads.  Result is bitwise identical to run(src, dst, tag).
    void finish(std::span<T> dst) {
      requireActive();
      ex_->requireDst(dst);
      Executor* ex = ex_;
      ex_ = nullptr;
      ex->finishPending(dst, /*add=*/false);
    }

    /// Accumulating finish; bitwise identical to runAdd(src, dst, tag).
    void finishAdd(std::span<T> dst) {
      requireActive();
      ex_->requireDst(dst);
      Executor* ex = ex_;
      ex_ = nullptr;
      ex->finishPending(dst, /*add=*/true);
    }

   private:
    friend class Executor;
    explicit Pending(Executor* ex) : ex_(ex) {}
    void requireActive() const {
      MC_REQUIRE(ex_ != nullptr,
                 "split-phase handle already finished (or moved from)");
    }

    Executor* ex_;  // null once finished / moved from
  };

  /// Posts all sends for one schedule execution and returns without touching
  /// `dst` — receives, local transfers, and unpacks happen in the returned
  /// handle's finish()/finishAdd().  Between start and finish the caller may
  /// compute freely outside footprint().dstTouched (of dst) and
  /// footprint().localSrc (of src); `src` must stay alive and unmodified at
  /// those localSrc offsets until finish.  Collective over the program.
  Pending start(std::span<const T> src, int tag) {
    MC_REQUIRE(remoteProgram_ < 0,
               "inter-program executor: use runSend / runRecv");
    MC_REQUIRE(!inFlight_,
               "split-phase run already in flight: finish() it first");
    requireSrc(src);
    sendPhase(src, tag);
    openExchange(tag);
    inFlight_ = true;
    pendingSrc_ = src;
    return Pending(this);
  }
  Pending start(std::span<const T> src) {
    return start(src, comm_->nextUserTag());
  }

  /// The schedule's destination footprint — which offsets a run touches and
  /// which are free for overlapped computation.  Built once, on first use
  /// (one-shot executes never pay for it).
  const Footprint& footprint() const {
    if (!footprint_.has_value()) footprint_ = Footprint::of(*sched_);
    return *footprint_;
  }

  // --- inter-program halves -------------------------------------------------

  /// Sender half; the remote program concurrently calls runRecv on the
  /// matching receiver executor.  Collective over both programs.
  void runSend(std::span<const T> src) {
    MC_REQUIRE(remoteProgram_ >= 0, "intra-program executor: use run");
    requireSrc(src);
    sendPhase(src, comm_->nextInterTag(remoteProgram_));
  }

  /// Receiver half.
  void runRecv(std::span<T> dst) {
    MC_REQUIRE(remoteProgram_ >= 0, "intra-program executor: use run");
    requireDst(dst);
    openExchange(comm_->nextInterTag(remoteProgram_));
    drain(dst, /*unpackNow=*/true);
  }

  /// Split-phase receiver half: allocates the paired inter-program tag *now*
  /// — so it lines up with the remote sender's runSend in the usual paired
  /// tag-allocation order — and returns a Pending to poll/finish later.
  /// Between startRecv and finish the receiver's rank is free to compute;
  /// the compute server stages batch k+1's receives this way so their
  /// messages drain underneath batch k's multiply.
  Pending startRecv() {
    MC_REQUIRE(remoteProgram_ >= 0, "intra-program executor: use start");
    MC_REQUIRE(!inFlight_,
               "split-phase run already in flight: finish() it first");
    openExchange(comm_->nextInterTag(remoteProgram_));
    inFlight_ = true;
    pendingSrc_ = {};
    return Pending(this);
  }

 private:
  struct RecvSlot {
    int srcGlobal = 0;       // sender's global rank (the arrival-order key)
    std::size_t bytes = 0;   // exact expected payload size
    std::uint64_t epoch = 0;  // last run that consumed this slot
  };

  /// A payload parked for the plan-order unpack; its plan's elements start
  /// `off` bytes in, past any routing header.
  struct Stashed {
    std::vector<std::byte> payload;
    std::size_t off = 0;
  };

  /// One send plan's part of a message: `headerBytes` of routing headers
  /// (none in the flat layout), then the plan's packed elements.
  struct OutPart {
    std::size_t plan = 0;
    std::size_t headerBytes = 0;
  };

  /// One message a run sends, fixed at bind — routing headers included, so
  /// packing needs no knowledge of the layout.
  struct OutMsg {
    int dest = 0;                    // rank in the peer program
    std::size_t bytes = 0;           // payload size, headers included
    std::vector<std::byte> headers;  // the parts' headers, concatenated
    std::vector<OutPart> parts;      // in peer order
  };

  Executor(transport::Comm& comm, const Schedule* sched,
           std::shared_ptr<const Schedule> keepAlive, int remoteProgram)
      : comm_(&comm),
        keepAlive_(std::move(keepAlive)),
        sched_(sched),
        remoteProgram_(remoteProgram) {
    MC_REQUIRE(sched_ != nullptr);
    requireRunsOnly(*sched_);
    bind(compileKernels(*sched_, nullptr));
  }

  /// The program the schedule's peer ranks live in.
  int peerProgram() const {
    return remoteProgram_ >= 0 ? remoteProgram_ : comm_->program();
  }

  /// A bind's compiled dispatch kernels (see kernels.h): every run
  /// thereafter moves bytes through the variant the plan's shape earned
  /// instead of re-branching per run.
  struct Kernels {
    std::vector<PlanKernel> send;
    std::vector<PlanKernel> recv;
    LocalKernel local;
  };

  /// Compiles `sched`'s kernels.  Compiling checks every run, every
  /// payload size and the receive lane's peer order, so a (re)bind does it
  /// before it changes any state or sends anything.  When `old` is the
  /// bound schedule, a plan identical to its plan for the same peer reuses
  /// the compiled kernel — the rebind() fast path for untouched peers.
  Kernels compileKernels(const Schedule& sched, const Schedule* old) const {
    // Receives match one message per peer and route it by the sender's
    // global rank, monotone in peer, to the plan at the same index.
    for (std::size_t i = 1; i < sched.recvs.size(); ++i) {
      MC_REQUIRE(sched.recvs[i - 1].peer < sched.recvs[i].peer,
                 "receive plans must be sorted by peer, without duplicates");
    }
    ensureKernelMetrics();
    Kernels k;
    compileLane(sched.sends, old != nullptr ? &old->sends : nullptr,
                sendKernels_, k.send);
    compileLane(sched.recvs, old != nullptr ? &old->recvs : nullptr,
                recvKernels_, k.recv);
    k.local = LocalKernel::compile(sched);
    for (const std::vector<OffsetPlan>* lane : {&sched.sends, &sched.recvs}) {
      for (const OffsetPlan& p : *lane) {
        MC_REQUIRE(static_cast<std::size_t>(p.elementCount()) <=
                       std::numeric_limits<std::size_t>::max() / sizeof(T),
                   "plan for peer %d overflows the payload size", p.peer);
      }
    }
    return k;
  }

  /// Fills all bind-time state for sched_ from its compiled kernels.
  void bind(Kernels kernels) {
    sendPlanBytes_.reserve(sched_->sends.size());
    for (const OffsetPlan& p : sched_->sends) {
      sendPlanBytes_.push_back(static_cast<std::size_t>(p.elementCount()) *
                               sizeof(T));
    }
    slots_.reserve(sched_->recvs.size());
    for (const OffsetPlan& p : sched_->recvs) {
      RecvSlot s;
      s.srcGlobal = comm_->globalRankOf(peerProgram(), p.peer);
      s.bytes = static_cast<std::size_t>(p.elementCount()) * sizeof(T);
      // compileKernels checked that plans are sorted by peer, so slots_ is
      // sorted by srcGlobal and slot index == plan index.
      slots_.push_back(s);
    }
    stash_.resize(sched_->recvs.size());
    bindExchange(remoteProgram_ < 0 && comm_->netConfig().nodeAggregation);
    sendKernels_ = std::move(kernels.send);
    recvKernels_ = std::move(kernels.recv);
    localKernel_ = std::move(kernels.local);
    srcExtent_ = localKernel_.srcExtent;
    for (const PlanKernel& k : sendKernels_) {
      srcExtent_ = std::max(srcExtent_, k.extent);
    }
    dstExtent_ = localKernel_.dstExtent;
    for (const PlanKernel& k : recvKernels_) {
      dstExtent_ = std::max(dstExtent_, k.extent);
    }
  }

  /// Runs are the one plan form: a schedule that sets the always-empty
  /// offset-list members is refused before (re)bind touches any state or
  /// sends anything.
  static void requireRunsOnly(const Schedule& sched) {
    MC_REQUIRE(sched.localPairs.empty(),
               "schedule carries local pairs; local transfers are runs only");
    for (const std::vector<OffsetPlan>* lane : {&sched.sends, &sched.recvs}) {
      for (const OffsetPlan& p : *lane) {
        MC_REQUIRE(p.offsets.empty(),
                   "plan for peer %d carries an offset list; plans are runs "
                   "only",
                   p.peer);
      }
    }
  }

  /// The bounds check of every run entry point: one compare against the
  /// extents the kernels recorded at bind.
  void requireSrc(std::span<const T> src) const {
    MC_REQUIRE(static_cast<layout::Index>(src.size()) >= srcExtent_,
               "source span of %zu elements is shorter than the schedule's "
               "source extent %lld",
               src.size(), static_cast<long long>(srcExtent_));
  }
  void requireDst(std::span<const T> dst) const {
    MC_REQUIRE(static_cast<layout::Index>(dst.size()) >= dstExtent_,
               "destination span of %zu elements is shorter than the "
               "schedule's destination extent %lld",
               dst.size(), static_cast<long long>(dstExtent_));
  }

  /// Compiles one lane of plan kernels, carrying over the old compiled
  /// kernel for any peer whose plan is bitwise unchanged (two-pointer walk —
  /// both lanes are sorted by peer).
  static void compileLane(const std::vector<OffsetPlan>& plans,
                          const std::vector<OffsetPlan>* oldPlans,
                          const std::vector<PlanKernel>& oldKernels,
                          std::vector<PlanKernel>& out) {
    out.reserve(plans.size());
    std::size_t j = 0;
    for (const OffsetPlan& p : plans) {
      const PlanKernel* reuse = nullptr;
      if (oldPlans != nullptr) {
        while (j < oldPlans->size() && (*oldPlans)[j].peer < p.peer) ++j;
        if (j < oldPlans->size() && (*oldPlans)[j].peer == p.peer &&
            (*oldPlans)[j].runs == p.runs) {
          reuse = &oldKernels[j];
        }
      }
      out.push_back(reuse != nullptr ? *reuse : PlanKernel::compile(p));
    }
  }

  void rebindTo(const Schedule* sched, std::shared_ptr<const Schedule> keep) {
    MC_REQUIRE(remoteProgram_ < 0, "rebind is intra-program only");
    MC_REQUIRE(!inFlight_,
               "split-phase run in flight: finish() it before rebind()");
    requireRunsOnly(*sched);
    Kernels kernels = compileKernels(*sched, sched_);
    // Stashed payload capacity is as good as a free buffer; keep it.
    for (Stashed& s : stash_) {
      if (s.payload.capacity() > 0) freeBufs_.push_back(std::move(s.payload));
    }
    stash_.clear();
    sendPlanBytes_.clear();
    slots_.clear();
    footprint_.reset();
    sched_ = sched;
    keepAlive_ = std::move(keep);
    bind(std::move(kernels));
    // Trim the retained buffers to the new steady-state demand (one per
    // send plan); the overflow returns to the world pool.
    while (freeBufs_.size() > sched_->sends.size()) {
      comm_->releasePayload(std::move(freeBufs_.back()));
      freeBufs_.pop_back();
    }
  }

  // --- the exchange, fixed at bind ------------------------------------------

  /// Fixes what every run exchanges: the messages it sends (outbox_) and
  /// the number it receives (expected_).  With intake(), the only code that
  /// tells the flat layout from the node-aggregated one.  Aggregated binds
  /// are collective over the program: each node leader learns which frames
  /// to expect through an intra-node exchange.
  void bindExchange(bool aggregated) {
    aggregated_ = aggregated;
    outbox_.clear();
    expected_ = 0;
    if (!aggregated_) {
      for (std::size_t i = 0; i < sched_->sends.size(); ++i) {
        outbox_.push_back(OutMsg{sched_->sends[i].peer, 0, {}, {}});
        addPart(outbox_.back(), i, {});
      }
      expected_ = sched_->recvs.size();
      return;
    }
    MC_REQUIRE(alignof(T) <= 8,
               "node aggregation supports element alignment up to 8");
    const int myNode = comm_->myNode();
    // Same-node peers get a data-tagged message each; plans bound for one
    // remote node share a frame to its leader, in peer order, each behind
    // a segment header, and frames sort by leader, so framing is
    // deterministic.
    std::array<std::byte, kAggMsgHeaderBytes + kAggSegHeaderBytes> header{};
    std::vector<OutMsg> frames;
    for (std::size_t i = 0; i < sched_->sends.size(); ++i) {
      const int peer = sched_->sends[i].peer;
      if (comm_->nodeOfRank(peer) == myNode) {
        writeAggMsgHeader(header.data(), kAggData, comm_->globalRank());
        outbox_.push_back(OutMsg{peer, 0, {}, {}});
        addPart(outbox_.back(), i,
                std::span(header).first(kAggMsgHeaderBytes));
        continue;
      }
      const int leader = comm_->leaderOfRank(peer);
      auto frame = std::find_if(
          frames.begin(), frames.end(),
          [leader](const OutMsg& f) { return f.dest == leader; });
      std::size_t len = 0;  // a new frame starts with its message header
      if (frame == frames.end()) {
        frames.push_back(OutMsg{leader, 0, {}, {}});
        frame = std::prev(frames.end());
        writeAggMsgHeader(header.data(), kAggFrame, comm_->globalRank());
        len = kAggMsgHeaderBytes;
      }
      writeAggSegHeader(header.data() + len,
                        comm_->globalRankOf(comm_->program(), peer),
                        sendPlanBytes_[i]);
      addPart(*frame, i, std::span(header).first(len + kAggSegHeaderBytes));
    }
    std::sort(frames.begin(), frames.end(),
              [](const OutMsg& a, const OutMsg& b) { return a.dest < b.dest; });
    outbox_.insert(outbox_.end(), std::make_move_iterator(frames.begin()),
                   std::make_move_iterator(frames.end()));
    // Same-node sources arrive directly, in plan order; remote sources
    // arrive inside frames at the node leader, which forwards other ranks'
    // segments intra-node.  A member takes its forwards from the leader in
    // FIFO order: the leader's own direct send precedes them in its program
    // order, so the two streams never cross.
    std::vector<std::int32_t> myRemote;
    for (const RecvSlot& s : slots_) {
      if (comm_->nodeOfRank(comm_->localRankOfGlobal(s.srcGlobal)) == myNode) {
        ++expected_;
      } else {
        myRemote.push_back(s.srcGlobal);
      }
    }
    const int tag = comm_->nextUserTag();
    if (!comm_->isNodeLeader()) {
      comm_->send(comm_->nodeLeader(), tag, myRemote);
      expected_ += myRemote.size();
      return;
    }
    std::vector<std::int32_t> frameSrcs = myRemote;
    for (int r : comm_->nodePeers()) {
      if (r == comm_->rank()) continue;
      const std::vector<std::int32_t> theirs =
          comm_->recv<std::int32_t>(r, tag);
      frameSrcs.insert(frameSrcs.end(), theirs.begin(), theirs.end());
    }
    std::sort(frameSrcs.begin(), frameSrcs.end());
    expected_ += static_cast<std::size_t>(
        std::unique(frameSrcs.begin(), frameSrcs.end()) - frameSrcs.begin());
  }

  // --- send side ------------------------------------------------------------

  /// Packs and posts every message of the outbox.
  void sendPhase(std::span<const T> src, int tag) {
    obs::ScopedSpan sendSpan(obs::phase::kSend);
    for (const OutMsg& out : outbox_) {
      std::vector<std::byte> payload = obtainBuffer(out.bytes);
      {
        obs::ScopedSpan packSpan(obs::phase::kPack);
        comm_->compute([&] { packMessage(out, src, payload.data()); });
      }
      if (remoteProgram_ >= 0) {
        comm_->sendBytesTo(remoteProgram_, out.dest, tag, std::move(payload));
      } else {
        comm_->sendBytes(out.dest, tag, std::move(payload));
      }
    }
  }

  /// Appends send plan `i` to `out` behind `header` (its routing bytes).
  void addPart(OutMsg& out, std::size_t i, std::span<const std::byte> header) {
    out.headers.insert(out.headers.end(), header.begin(), header.end());
    out.parts.push_back(OutPart{i, header.size()});
    out.bytes += header.size() + sendPlanBytes_[i];
  }

  void packMessage(const OutMsg& out, std::span<const T> src, std::byte* p) {
    const std::byte* header = out.headers.data();
    for (const OutPart& part : out.parts) {
      if (part.headerBytes > 0) {
        std::memcpy(p, header, part.headerBytes);
        header += part.headerBytes;
        p += part.headerBytes;
      }
      packKernel<T>(sendKernels_[part.plan], sched_->sends[part.plan], src,
                    reinterpret_cast<T*>(p));
      p += sendPlanBytes_[part.plan];
    }
  }

  /// A payload buffer with size() == nbytes: best-fit from the executor's
  /// own recycled buffers (deterministic — no cross-thread state), falling
  /// back to the world pool.
  std::vector<std::byte> obtainBuffer(std::size_t nbytes) {
    std::size_t best = freeBufs_.size();
    for (std::size_t i = 0; i < freeBufs_.size(); ++i) {
      if (freeBufs_[i].capacity() < nbytes) continue;
      if (best == freeBufs_.size() ||
          freeBufs_[i].capacity() < freeBufs_[best].capacity()) {
        best = i;
      }
    }
    if (best == freeBufs_.size()) return comm_->acquirePayload(nbytes);
    std::vector<std::byte> buf = std::move(freeBufs_[best]);
    freeBufs_.erase(freeBufs_.begin() +
                    static_cast<std::ptrdiff_t>(best));
    buf.resize(nbytes);  // capacity suffices: no reallocation
    return buf;
  }

  /// Parks a drained payload for the next step's sends (up to one buffer
  /// per send plan — the steady-state demand); overflow recycles through
  /// the world pool so other ranks can reuse the capacity.
  void recycle(std::vector<std::byte>&& payload) {
    if (freeBufs_.size() < sched_->sends.size()) {
      freeBufs_.push_back(std::move(payload));
    } else {
      comm_->releasePayload(std::move(payload));
    }
  }

  // --- local transfers ------------------------------------------------------

  void localPhase(std::span<const T> src, std::span<T> dst, bool add) {
    obs::ScopedSpan span(obs::phase::kApply);
    const std::span<const LocalRun> runs(sched_->localRuns);
    comm_->compute([&] {
      if (!add && sched_->bufferLocalCopies) {
        // Authentic Parti staging, through a buffer that persists across
        // runs instead of reallocating each step.
        localStage_.resize(
            static_cast<std::size_t>(sched_->localElementCount()));
        stageLocalRuns(runs, src, localStage_.data(), dst);
        return;
      }
      if (localKernel_.kind == KernelKind::kIndexList) {
        // Flattened local transfers; compile() only picks kIndexList when
        // element order matches copyLocalRuns exactly (see kernels.h).
        if (add) {
          localKernel_.add(src, dst);
        } else {
          localKernel_.copy(src, dst);
        }
        return;
      }
      if (add) {
        addLocalRuns(runs, src, dst);
      } else {
        // Direct copies: read-all-then-write semantics per run (memmove).
        copyLocalRuns(runs, src, dst);
      }
    });
  }

  // --- receive side ---------------------------------------------------------

  /// Starts consuming one run's messages, tagged `tag`.
  void openExchange(int tag) {
    ++runEpoch_;
    tag_ = tag;
    arrived_ = 0;
  }

  bool exchangeDone() const { return arrived_ == expected_; }

  /// The exchange's next message (blocking): whichever peer-program message
  /// arrives first.
  transport::Message nextMessage() {
    obs::ScopedSpan span(obs::phase::kRecvWait);
    return comm_->recvMsgAnyOf(peerProgram(), tag_);
  }

  /// Routes a payload to its plan by the *original* sender's global rank,
  /// verifying size and that no plan is served twice in one run.
  std::size_t slotForSrc(int srcGlobal, std::size_t nbytes) {
    std::size_t lo = 0, hi = slots_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (slots_[mid].srcGlobal < srcGlobal) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    MC_REQUIRE(lo < slots_.size() && slots_[lo].srcGlobal == srcGlobal,
               "unexpected message from global rank %d", srcGlobal);
    RecvSlot& slot = slots_[lo];
    MC_REQUIRE(slot.epoch != runEpoch_,
               "duplicate message from global rank %d in one run", srcGlobal);
    slot.epoch = runEpoch_;
    MC_REQUIRE(nbytes == slot.bytes,
               "schedule mismatch: peer sent %zu bytes, expected %zu", nbytes,
               slot.bytes);
    return lo;  // slot index == plan index (both sorted by peer)
  }

  /// Consumes one message of the exchange.  A flat message routes by its
  /// transport envelope; an aggregated one by its header, and a frame
  /// additionally re-sends every segment addressed to another rank to that
  /// same-node rank, with a data header carrying the original source.  The
  /// routed payload then unpacks into `dst` at once (`unpackNow`) or stashes
  /// for unpackStash.
  void intake(transport::Message&& m, std::span<T> dst, bool unpackNow) {
    ++arrived_;
    if (!aggregated_) {
      const std::size_t k = slotForSrc(m.srcGlobal, m.payload.size());
      accept(k, std::move(m.payload), 0, dst, unpackNow);
      return;
    }
    MC_REQUIRE(m.payload.size() >= kAggMsgHeaderBytes,
               "aggregated message shorter than its header");
    const AggMsgHeader h = readAggMsgHeader(m.payload.data());
    if (h.kind == kAggData) {
      const std::size_t k =
          slotForSrc(h.srcGlobal, m.payload.size() - kAggMsgHeaderBytes);
      accept(k, std::move(m.payload), kAggMsgHeaderBytes, dst, unpackNow);
      return;
    }
    MC_REQUIRE(h.kind == kAggFrame, "bad aggregated message kind %d", h.kind);
    MC_REQUIRE(comm_->isNodeLeader(),
               "aggregated frame delivered to a non-leader rank");
    constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
    std::size_t ownSlot = kNoSlot;
    std::size_t ownOff = 0;
    std::size_t pos = kAggMsgHeaderBytes;
    while (pos < m.payload.size()) {
      MC_REQUIRE(pos + kAggSegHeaderBytes <= m.payload.size(),
                 "truncated segment header in aggregated frame");
      const AggSegHeader seg = readAggSegHeader(m.payload.data() + pos);
      pos += kAggSegHeaderBytes;
      const auto segBytes = static_cast<std::size_t>(seg.bytes);
      MC_REQUIRE(segBytes <= m.payload.size() - pos,
                 "truncated segment payload in aggregated frame");
      if (seg.dstGlobal == comm_->globalRank()) {
        MC_REQUIRE(ownSlot == kNoSlot,
                   "two segments for one rank in one aggregated frame");
        ownSlot = slotForSrc(h.srcGlobal, segBytes);
        ownOff = pos;
      } else {
        std::vector<std::byte> fwd =
            comm_->acquirePayload(kAggMsgHeaderBytes + segBytes);
        writeAggMsgHeader(fwd.data(), kAggData, h.srcGlobal);
        std::memcpy(fwd.data() + kAggMsgHeaderBytes, m.payload.data() + pos,
                    segBytes);
        comm_->noteForwarded(segBytes);
        comm_->sendBytes(comm_->localRankOfGlobal(seg.dstGlobal), tag_,
                         std::move(fwd));
      }
      pos += segBytes;
    }
    MC_REQUIRE(pos == m.payload.size(),
               "trailing bytes in aggregated frame");
    if (ownSlot != kNoSlot) {
      accept(ownSlot, std::move(m.payload), ownOff, dst, unpackNow);
    } else {
      recycle(std::move(m.payload));
    }
  }

  /// Unpacks a routed payload (its plan's elements start `off` bytes in) at
  /// once, or stashes it for an in-order unpack.
  void accept(std::size_t k, std::vector<std::byte>&& payload,
              std::size_t off, std::span<T> dst, bool unpackNow) {
    if (unpackNow) {
      unpackSlot(k, payload.data() + off, dst, /*add=*/false);
      recycle(std::move(payload));
    } else {
      stash_[k] = Stashed{std::move(payload), off};
    }
  }

  void unpackSlot(std::size_t k, const std::byte* bytes, std::span<T> dst,
                  bool add) {
    obs::ScopedSpan span(obs::phase::kUnpack);
    comm_->compute([&] {
      const T* payload = reinterpret_cast<const T*>(bytes);
      if (add) {
        unpackAddKernel<T>(recvKernels_[k], sched_->recvs[k], payload, dst);
      } else {
        unpackKernel<T>(recvKernels_[k], sched_->recvs[k], payload, dst);
      }
    });
  }

  /// Unpacks every stashed payload in plan order and recycles the buffers.
  /// Copy unpacks commute (disjoint per-peer offsets) and adds apply in
  /// peer order, so results are bitwise identical under any arrival order.
  void unpackStash(std::span<T> dst, bool add) {
    for (std::size_t k = 0; k < stash_.size(); ++k) {
      Stashed& s = stash_[k];
      if (s.payload.capacity() == 0) continue;  // nothing stashed
      unpackSlot(k, s.payload.data() + s.off, dst, add);
      recycle(std::move(s.payload));
      s = {};
    }
  }

  /// Blocking intake of the exchange's remaining messages: the one drain
  /// behind run, runAdd, runRecv, finish, finishAdd and cancellation.
  void drain(std::span<T> dst, bool unpackNow) {
    while (!exchangeDone()) intake(nextMessage(), dst, unpackNow);
  }

  // --- split-phase internals ------------------------------------------------

  bool pollPending() {
    while (!exchangeDone()) {
      std::optional<transport::Message> m =
          comm_->tryRecvMsgAnyOf(peerProgram(), tag_);
      if (!m.has_value()) break;
      intake(std::move(*m), {}, /*unpackNow=*/false);
    }
    return exchangeDone();
  }

  void finishPending(std::span<T> dst, bool add) {
    // Stash whatever poll() did not get, apply the local transfers, then
    // unpack in plan order — bitwise identical to run()/runAdd().
    drain({}, /*unpackNow=*/false);
    localPhase(pendingSrc_, dst, add);
    unpackStash(dst, add);
    inFlight_ = false;
    pendingSrc_ = {};
  }

  /// Abandoned split-phase run (Pending destroyed without finish): consume
  /// the exchange's remaining messages so the mailbox and the executor's
  /// epoch state stay consistent, discard the data, keep the executor
  /// reusable.  The drain still forwards frame segments — node-mates depend
  /// on the leader relaying them even when the leader's own exchange is
  /// abandoned.  Errors are swallowed — this runs from a destructor,
  /// possibly unwinding a world abort.
  void cancelPending() noexcept {
    try {
      drain({}, /*unpackNow=*/false);
    } catch (...) {
      // Aborted world or timeout: leave whatever arrived; the abort tears
      // the whole run down anyway.
    }
    for (Stashed& s : stash_) {
      if (s.payload.capacity() > 0) recycle(std::move(s.payload));
      s = {};
    }
    inFlight_ = false;
    pendingSrc_ = {};
  }

  transport::Comm* comm_;
  std::shared_ptr<const Schedule> keepAlive_;
  const Schedule* sched_;
  int remoteProgram_;  // -1 for intra-program executors

  std::vector<std::size_t> sendPlanBytes_;  // per send plan, fixed at bind
  std::vector<RecvSlot> slots_;             // sorted by srcGlobal
  std::vector<PlanKernel> sendKernels_;     // compiled at bind, per plan
  std::vector<PlanKernel> recvKernels_;
  LocalKernel localKernel_;
  // The span lengths the kernels need, fixed at bind (requireSrc/Dst).
  layout::Index srcExtent_ = 0;
  layout::Index dstExtent_ = 0;
  std::uint64_t runEpoch_ = 0;
  std::vector<std::vector<std::byte>> freeBufs_;  // recycled payloads
  std::vector<Stashed> stash_;  // deferred-unpack slots, one per recv plan
  std::vector<T> localStage_;  // persistent Parti local-copy staging

  // The exchange (bindExchange).
  bool aggregated_ = false;      // node-aggregated layout
  std::vector<OutMsg> outbox_;   // messages one run sends, in send order
  std::size_t expected_ = 0;     // messages one run receives

  // Per-run exchange state (one run may be in flight at a time).
  bool inFlight_ = false;            // a split-phase run awaits finish
  int tag_ = 0;                      // the exchange's tag
  std::span<const T> pendingSrc_{};  // captured by start, read at finish
  std::size_t arrived_ = 0;          // messages consumed so far this run
  mutable std::optional<Footprint> footprint_;  // built on first use
};

/// Executes `sched` within one program: packs `src` elements, sends at most
/// one message per peer, copies local pairs, then unpacks into `dst`.
/// Collective; `tag` must match across the program (comm.nextUserTag()).
/// `src` and `dst` may alias (e.g. a ghost fill within one buffer).
///
/// Who binds when: execute and executeAdd bind a fresh Executor per call,
/// for a bare Schedule run once (chaos::remap, hpfrt::redistribute).  A
/// core::McSchedule keeps the executor its first dataMove* call binds, and
/// library loops (parti::GhostExchanger, chaos::EdgeSweep, the compute
/// server's sessions) hold their own Executor for the schedule's lifetime.
template <typename T>
void execute(transport::Comm& comm, const Schedule& sched,
             std::span<const T> src, std::span<T> dst, int tag) {
  Executor<T>(comm, sched).run(src, dst, tag);
}

/// Like execute, but *accumulates* received and local elements into `dst`
/// (dst[off] += value).  This is the Chaos scatter-add executor used for
/// irregular reductions such as Loop 3 of the paper's Figure 1.
template <typename T>
void executeAdd(transport::Comm& comm, const Schedule& sched,
                std::span<const T> src, std::span<T> dst, int tag) {
  Executor<T>(comm, sched).runAdd(src, dst, tag);
}

}  // namespace mc::sched
