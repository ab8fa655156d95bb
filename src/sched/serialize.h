// Flat-byte serialization of communication schedules, and batch
// replication of inter-program halves.
//
// Serialization is what lets the compute server share inspector results
// *across client programs*: the first client with a given layout builds its
// send schedule collectively, uploads the serialized form, and every later
// client with the same layout fingerprint downloads the bytes instead of
// running an inspector.  A schedule's plan peers are remote-program-LOCAL
// ranks (the executor converts them via globalRankOf at bind), so the same
// bytes retarget to any program id — that is the whole point.
//
// batchReplicate turns one inter-program schedule into a fused k-request
// schedule: each peer's plan repeats k times with its offsets shifted by a
// per-copy stride, so executing the fused schedule ships ONE message per
// peer pair carrying all k operand blocks — the paper's
// one-message-per-pair aggregation property, preserved across a whole
// request batch.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sched/schedule.h"
#include "util/blob_io.h"
#include "util/error.h"

namespace mc::sched {

/// Kind version of the schedule payload inside the blob::frame container
/// (v1 was the pre-container raw format; v2 moved the version/arch/checksum
/// tagging into the shared frame header; v3 dropped the offset-list and
/// local-pair lanes — runs are the one plan form).
inline constexpr std::uint32_t kScheduleBlobVersion = 3;

/// Serializes a schedule payload (no frame) into `out`.  Exposed for the
/// snapshot writers, which embed schedules in larger payloads.
inline void writeSchedulePayload(std::vector<std::byte>& out,
                                 const Schedule& s) {
  blob::putU64(out, s.bufferLocalCopies ? 1 : 0);
  for (const std::vector<OffsetPlan>* lane : {&s.sends, &s.recvs}) {
    blob::putU64(out, lane->size());
    for (const OffsetPlan& p : *lane) {
      blob::putU64(out, static_cast<std::uint64_t>(p.peer));
      blob::putPods(out, p.runs);
    }
  }
  blob::putPods(out, s.localRuns);
}

/// Reads a schedule payload from `r` (counterpart of writeSchedulePayload).
/// Every count is validated against the remaining bytes before it sizes an
/// allocation, so corrupt or truncated payloads throw instead of
/// over-allocating.
inline Schedule readSchedulePayload(blob::ByteReader& r) {
  Schedule s;
  s.bufferLocalCopies = r.u64() != 0;
  for (std::vector<OffsetPlan>* lane : {&s.sends, &s.recvs}) {
    // A serialized plan is at least 16 bytes (peer + run count); clamping
    // here keeps a corrupt plan count from reserving gigabytes.
    const std::uint64_t n = r.count(2 * sizeof(std::uint64_t));
    lane->reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      OffsetPlan p;
      p.peer = static_cast<int>(r.u64());
      p.runs = r.pods<OffsetRun>();
      lane->push_back(std::move(p));
    }
  }
  s.localRuns = r.pods<LocalRun>();
  return s;
}

/// Serializes a schedule to a framed byte blob (magic, versions, endian and
/// type-width tags, checksum — util/blob_io.h), safe to persist as well as
/// to ship between programs.  Round-trips exactly through
/// deserializeSchedule.
inline std::vector<std::byte> serializeSchedule(const Schedule& s) {
  std::vector<std::byte> payload;
  writeSchedulePayload(payload, s);
  return blob::frame(blob::kSchedule, kScheduleBlobVersion, payload);
}

/// Inverse of serializeSchedule; validates the frame (magic, endianness,
/// type widths, length, checksum), the kind version, and every internal
/// count.  Throws mc::Error on any mismatch — never misreads.
inline Schedule deserializeSchedule(std::span<const std::byte> blob) {
  const blob::FrameView v = blob::unframe(blob, blob::kSchedule);
  MC_REQUIRE(v.kindVersion == kScheduleBlobVersion,
             "unknown schedule blob version %u", v.kindVersion);
  blob::ByteReader r(v.payload);
  Schedule s = readSchedulePayload(r);
  r.requireEnd("schedule blob");
  return s;
}

/// Replicates an inter-program schedule k times into one fused exchange:
/// copy j of every send plan shifts its offsets by j*sendStride (the
/// sender-local operand length) and copy j of every receive plan by
/// j*recvStride (the receiver-local destination length).  Each peer keeps a
/// single plan whose payload carries the k blocks back to back, so a batch
/// of k compatible requests still sends at most one message per processor
/// pair.  Local transfers are not supported (inter-program halves have
/// none).
inline Schedule batchReplicate(const Schedule& s, int k,
                               layout::Index sendStride,
                               layout::Index recvStride) {
  MC_REQUIRE(k >= 1, "batchReplicate needs k >= 1");
  MC_REQUIRE(s.localElementCount() == 0,
             "batchReplicate is for inter-program halves (no local plans)");
  Schedule out;
  out.bufferLocalCopies = s.bufferLocalCopies;
  auto replicate = [k](const std::vector<OffsetPlan>& lane,
                       layout::Index stride) {
    std::vector<OffsetPlan> fused;
    fused.reserve(lane.size());
    for (const OffsetPlan& p : lane) {
      OffsetPlan f;
      f.peer = p.peer;
      f.runs.reserve(p.runs.size() * static_cast<std::size_t>(k));
      for (int j = 0; j < k; ++j) {
        for (const OffsetRun& run : p.runs) {
          f.runs.push_back(
              OffsetRun{run.start + j * stride, run.count, run.stride});
        }
      }
      fused.push_back(std::move(f));
    }
    return fused;
  };
  out.sends = replicate(s.sends, sendStride);
  out.recvs = replicate(s.recvs, recvStride);
  return out;
}

}  // namespace mc::sched
