// Framed serialization of core::McSchedule — the value type of the
// content-addressed schedule cache.
//
// The inner sched::Schedule payload reuses the exact writer/reader pair of
// sched/serialize.h (writeSchedulePayload / readSchedulePayload), so a
// schedule restored from a snapshot is byte-for-byte the schedule the
// cross-program sharing path would have shipped.  The provenance segment
// lanes (SendSeg / RecvSeg) are all-Index PODs with no padding, so they
// round-trip as raw lanes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/schedule_builder.h"
#include "sched/serialize.h"
#include "util/blob_io.h"

namespace mc::snapshot {

/// Version 2: the inner schedule payload carries runs only (schedule blob
/// version 3).
inline constexpr std::uint32_t kMcScheduleBlobVersion = 2;

static_assert(sizeof(core::SendSeg) == 7 * sizeof(layout::Index),
              "SendSeg must be padding-free to serialize as a raw lane");
static_assert(sizeof(core::RecvSeg) == 5 * sizeof(layout::Index),
              "RecvSeg must be padding-free to serialize as a raw lane");

inline std::vector<std::byte> serializeMcSchedule(
    const core::McSchedule& s) {
  std::vector<std::byte> payload;
  sched::writeSchedulePayload(payload, s.plan);
  blob::putU64(payload, static_cast<std::uint64_t>(s.numElements));
  blob::putU64(payload,
               static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(s.remoteProgram)));
  blob::putU64(payload, s.isSender ? 1 : 0);
  blob::putU64(payload, s.hasProvenance ? 1 : 0);
  blob::putPods(payload, s.sendSegs);
  blob::putPods(payload, s.recvSegs);
  return blob::frame(blob::kMcSchedule, kMcScheduleBlobVersion, payload);
}

inline core::McSchedule deserializeMcSchedule(
    std::span<const std::byte> data) {
  const blob::FrameView v = blob::unframe(data, blob::kMcSchedule);
  MC_REQUIRE(v.kindVersion == kMcScheduleBlobVersion,
             "unknown McSchedule blob version %u", v.kindVersion);
  blob::ByteReader r(v.payload);
  core::McSchedule s;
  s.plan = sched::readSchedulePayload(r);
  s.numElements = static_cast<layout::Index>(r.u64());
  s.remoteProgram =
      static_cast<int>(static_cast<std::int64_t>(r.u64()));
  s.isSender = r.u64() != 0;
  s.hasProvenance = r.u64() != 0;
  s.sendSegs = r.pods<core::SendSeg>();
  s.recvSegs = r.pods<core::RecvSeg>();
  r.requireEnd("McSchedule blob");
  MC_REQUIRE(s.numElements >= 0,
             "corrupt McSchedule blob: negative element count");
  MC_REQUIRE(s.remoteProgram >= -1,
             "corrupt McSchedule blob: remote program %d", s.remoteProgram);
  MC_REQUIRE(s.hasProvenance || (s.sendSegs.empty() && s.recvSegs.empty()),
             "corrupt McSchedule blob: provenance lanes without the flag");
  return s;
}

}  // namespace mc::snapshot
