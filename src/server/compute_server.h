// ComputeServer — a long-lived, multi-tenant matvec service.
//
// One server program serves many client programs over a single world run:
// sessions attach and detach dynamically (no server rebuild between
// tenants), a bounded request queue applies admission control with a
// backpressure hint, and a batching scheduler coalesces compatible
// requests — same operand-layout fingerprint, same target matrix — into
// one fused operand exchange and one server compute sweep
// (MatvecEngine::multiplyBatch).  Batches execute split-phase: batch k+1's
// operand receives are staged before batch k's multiply starts, so its
// messages drain underneath the compute.
//
// Cross-client schedule sharing: server rank 0 maps each client layout
// fingerprint (with the client's width and build method) to a layout slot
// rather than to a session or program identity.  A slot keeps the
// server's receive half and archives the *client-side* send halves in
// serialized form.  The Nth client presenting a layout some earlier client
// already attached with pays zero inspector cost: the server reuses the
// slot's receive half, and the client downloads the serialized send
// schedule instead of running a collective build.
//
// Every server rank constructs one ComputeServer and calls run();
// rank 0 additionally runs the control plane, broadcasting each decision
// as a Command so all ranks execute identical handler sequences.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/schedule_builder.h"
#include "transport/comm.h"
#include "util/stats.h"

namespace mc::server {

struct ServerConfig {
  layout::Index n = 256;   // matrix dimension (all sessions share it)
  int totalSessions = 1;   // run() returns after this many detaches
  int queueDepth = 8;      // admission bound on granted, unstaged requests
  int maxBatch = 8;        // coalescing limit (<= kMaxBatch)
  core::Method method = core::Method::kCooperation;
  double flopsPerSecond = 4e6;  // era-calibrated arithmetic rate
  /// Warm-start directory (empty = disabled).  run() restores the schedule
  /// cache, the layout-fingerprint archive, and the shipped matrices from
  /// it on entry (when a complete snapshot is present) and saves them back
  /// on exit, so the first same-layout attach after a restart is a sharing
  /// hit with zero inspector builds on either side.
  std::string snapshotDir;
};

/// Control-plane accounting, meaningful on server rank 0 after run().
struct ServerStats {
  std::uint64_t attaches = 0;
  std::uint64_t detaches = 0;
  // Layout-keyed schedule sharing: a hit means the attaching client paid
  // zero inspector cost.
  std::uint64_t schedShareHits = 0;
  std::uint64_t schedShareMisses = 0;
  std::uint64_t matrixShips = 0;
  // Admission control.
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  // first-attempt submits bounced with a hint
  std::uint64_t deferred = 0;  // retries held for a deferred grant
  std::size_t maxQueueDepth = 0;
  // Batching scheduler.
  std::uint64_t batches = 0;
  std::uint64_t batchedRequests = 0;
  int maxBatchOccupancy = 0;
  RunningStat batchOccupancy;  // requests per batch
  // Sessions sharing one layout slot (sharing degree).
  std::size_t maxSharingDegree = 0;

  double hitRate() const {
    const double total =
        static_cast<double>(schedShareHits + schedShareMisses);
    return total > 0 ? static_cast<double>(schedShareHits) / total : 0.0;
  }
};

class ComputeServer {
 public:
  /// Per-rank construction (collective-free); `comm` must outlive it.
  ComputeServer(transport::Comm& comm, ServerConfig config);
  ~ComputeServer();
  ComputeServer(const ComputeServer&) = delete;
  ComputeServer& operator=(const ComputeServer&) = delete;

  /// Serves until totalSessions sessions have detached.  Collective over
  /// the server program; clients drive it via ClientSession.
  void run();

  const ServerStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mc::server
