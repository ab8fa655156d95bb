// Network cost model for the virtual-processor transport.
//
// The paper's experiments ran on a 16-node IBM SP2 (MPL) and an 8-node
// Digital Alpha farm connected by an ATM Gigaswitch (PVM / UDP).  Neither is
// available, so the transport charges message costs with a LogGP-style
// model:
//
//   arrival = send_time + latency + bytes / bandwidth
//
// with optional *link contention*: each node has one NIC, so a transfer
// occupies the sender's NIC for its transmit time and the receiver's NIC
// for its receive time, scaled by the number of processes sharing the node
// (the deterministic surrogate for ATM link sharing).  Contention is what
// produces the paper's observation (Section 5.4) that times rise again
// beyond one server process per node, and (Section 5.2) that a transfer's
// rate is limited by the program running on fewer processors.
//
// The model is deterministic: occupancy charges land on the per-processor
// virtual clocks (sender side at send, receiver side at receive), never on
// shared mutable state, so repeated runs give identical virtual times.
//
// Parameters are picked per message based on where the endpoints live:
// same processor, same node, same program (machine interconnect), or
// different programs (e.g. client/server over ATM).
#pragma once

#include <vector>

#include "util/error.h"

namespace mc::transport {

/// Cost parameters for one class of link.
struct NetParams {
  double latency = 40e-6;          ///< end-to-end latency per message (s)
  double bandwidth = 35e6;         ///< payload bandwidth (bytes/s)
  double sendOverhead = 30e-6;     ///< CPU time charged to sender per message
  double recvOverhead = 30e-6;     ///< CPU time charged to receiver per message
  /// Per-message NIC processing time under contention (packetization,
  /// interrupt handling — the ATM/UDP per-message cost the paper blames in
  /// §5.4).  Charged, scaled by node sharing, as part of NIC occupancy on
  /// both endpoints of an inter-node message; zero keeps the pre-existing
  /// pure-byte occupancy model.
  double nicPerMessage = 0.0;

  /// Pure transfer time for a payload of `bytes`.
  double transferTime(std::size_t bytes) const {
    return latency + static_cast<double>(bytes) / bandwidth;
  }
};

/// SP2-like defaults for intra-program messages.
NetParams sp2Params();
/// ATM/PVM-like defaults for inter-program (client/server) messages.
NetParams atmParams();
/// Same-node (shared memory) defaults.
NetParams intraNodeParams();

/// Placement, link-class and messaging configuration for a transport world.
/// Every rank of the world reads the same values for the world's lifetime.
struct NetConfig {
  NetParams intraNode = intraNodeParams();
  NetParams interNode = sp2Params();
  NetParams interProgram = sp2Params();
  /// Number of physical nodes per program; processor p of a program lives on
  /// node p % nodes (cyclic, matching "up to k processes per node").  One
  /// entry per program; missing entries default to one proc per node.
  std::vector<int> nodesPerProgram;
  /// When true, inter-node transfers occupy both endpoint NICs (see above).
  bool contention = false;
  /// When true, program-scoped collectives (barrier, bcast, allgather,
  /// allreduce) run as two-level trees: intra-node gather to the node
  /// leader over cheap intraNode links, an inter-leader exchange, and an
  /// intra-node fan-out.  Data results are bitwise identical to the flat
  /// algorithms (rank-ordered merges); only the modeled clocks change.
  bool hierarchicalCollectives = false;
  /// When true, intra-program schedule executors send one framed message
  /// per remote node, which that node's leader relays to the destination
  /// ranks over intraNode links (sched/node_agg.h).  Results are bitwise
  /// identical to flat execution; executor binds become collective.
  bool nodeAggregation = false;
};

/// Computes message costs.  Stateless per message; thread safe.
class NetworkModel {
 public:
  /// `nodeOf[g]` = globally unique node id of global rank g;
  /// `programOf[g]` = program id of global rank g.
  NetworkModel(NetConfig config, std::vector<int> nodeOf,
               std::vector<int> programOf);

  /// Parameters applying to a (src,dst) global-rank pair.
  const NetParams& paramsFor(int src, int dst) const;

  /// NIC occupancy charged to the *sender's* clock before the message
  /// departs.  Zero unless contention is on and the message crosses nodes.
  double senderOccupancy(int src, int dst, std::size_t bytes) const;

  /// NIC occupancy charged to the *receiver's* clock when the message is
  /// consumed.  Zero unless contention is on and the message crossed nodes.
  double receiverOccupancy(int src, int dst, std::size_t bytes) const;

  /// Virtual arrival time of a message that departed at `sendTime` (after
  /// sender occupancy).  Under contention the transmit time has already
  /// been charged to the sender, so only latency remains; otherwise the
  /// wire time rides on the arrival.  Self-messages arrive instantly.
  double arrival(double sendTime, int src, int dst, std::size_t bytes) const;

  int nodeOf(int globalRank) const {
    return nodeOf_[static_cast<size_t>(globalRank)];
  }
  /// Number of processes sharing `globalRank`'s node (its NIC share).
  int procsOnNodeOf(int globalRank) const {
    return procsOnNode_[static_cast<size_t>(
        nodeOf_[static_cast<size_t>(globalRank)])];
  }
  const NetConfig& config() const { return config_; }

 private:
  bool crossNode(int src, int dst) const {
    return src != dst &&
           nodeOf_[static_cast<size_t>(src)] != nodeOf_[static_cast<size_t>(dst)];
  }

  NetConfig config_;
  std::vector<int> nodeOf_;
  std::vector<int> programOf_;
  std::vector<int> procsOnNode_;  // per node: processes placed there
};

}  // namespace mc::transport
