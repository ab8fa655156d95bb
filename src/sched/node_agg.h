// Node-aggregated schedule execution: the wire format.
//
// Flat execution sends one message per (rank, remote rank) pair, so under
// one-NIC contention the inter-node message count grows with ranks-per-node
// — exactly the §5.4 regime where per-message NIC costs dominate.  In
// aggregated mode an executor instead packs all send plans bound for one
// remote *node* into a single framed message addressed to that node's
// leader; the leader keeps its own segment and re-sends every other segment
// to its same-node destination over the cheap intraNode link.  Each rank
// therefore emits at most nodes-1 inter-node messages per schedule step.
// transport::NetConfig::nodeAggregation selects the layout per world; an
// Executor fixes it at bind()/rebind().
//
// Wire format (fixed, little-endian host layout; messages never leave the
// process):
//
//   every aggregated-mode message:   [AggMsgHeader]              (8 bytes)
//   kAggData payload:                [packed plan bytes]
//   kAggFrame payload:               [AggSegHeader][bytes] ...   (per plan)
//
// AggMsgHeader.srcGlobal is the *original* packing rank — a forwarded
// segment keeps it, so receivers always route by header source, never by
// the transport envelope (which names the leader for forwards).  Headers
// are 8- and 16-byte blocks and plan payloads are whole-element multiples,
// so element data stays suitably aligned for any scalar T with
// alignof(T) <= 8.
//
// Determinism: the intake routes every payload to its source slot; copy
// unpacks commute and accumulating unpacks apply in plan (peer) order, so
// both run() and runAdd() results are bitwise identical to flat execution
// under any delivery interleaving.
#pragma once

#include <cstdint>
#include <cstring>

namespace mc::sched {

/// First 8 bytes of every aggregated-mode message.
struct AggMsgHeader {
  std::int32_t kind = 0;       // kAggData or kAggFrame
  std::int32_t srcGlobal = 0;  // original packing rank (survives forwarding)
};
inline constexpr std::int32_t kAggData = 1;
inline constexpr std::int32_t kAggFrame = 2;
inline constexpr std::size_t kAggMsgHeaderBytes = sizeof(AggMsgHeader);
static_assert(kAggMsgHeaderBytes == 8);

/// Per-segment header inside a kAggFrame payload.
struct AggSegHeader {
  std::int32_t dstGlobal = 0;
  std::int32_t reserved = 0;
  std::uint64_t bytes = 0;  // packed plan bytes following this header
};
inline constexpr std::size_t kAggSegHeaderBytes = sizeof(AggSegHeader);
static_assert(kAggSegHeaderBytes == 16);

inline void writeAggMsgHeader(std::byte* p, std::int32_t kind,
                              std::int32_t srcGlobal) {
  AggMsgHeader h;
  h.kind = kind;
  h.srcGlobal = srcGlobal;
  std::memcpy(p, &h, sizeof(h));
}

inline AggMsgHeader readAggMsgHeader(const std::byte* p) {
  AggMsgHeader h;
  std::memcpy(&h, p, sizeof(h));
  return h;
}

inline void writeAggSegHeader(std::byte* p, std::int32_t dstGlobal,
                              std::uint64_t bytes) {
  AggSegHeader h;
  h.dstGlobal = dstGlobal;
  h.bytes = bytes;
  std::memcpy(p, &h, sizeof(h));
}

inline AggSegHeader readAggSegHeader(const std::byte* p) {
  AggSegHeader h;
  std::memcpy(&h, p, sizeof(h));
  return h;
}

}  // namespace mc::sched
