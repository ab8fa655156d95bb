// Builder helpers shared by the schedule builder (schedule_builder.cc) and
// the element-wise reference builder the tests compare it against
// (tests/oracle/elementwise_builder.cc).  Not part of the public API: every
// other caller goes through core/schedule_builder.h.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/schedule_builder.h"

namespace mc::core::detail {

/// A source processor's marching order: `count` elements packed from
/// srcOff + k*srcStride going to dstOwner at dstOff + k*dstStride (the
/// destination offsets matter only for processor-local transfers).  Carries
/// the first linearization position so the same records double as the
/// schedule's provenance stream (SendSeg) — lanes merge only across
/// lin-contiguous records, which makes the greedy cut-invariant over any
/// sub-stream and the recorded segment cut canonical.
using SendRun = SendSeg;

/// A destination processor's marching order: `count` elements from srcOwner
/// unpacked into dstOff + k*dstStride.
using RecvRun = RecvSeg;

/// Cross-program personalized all-to-all.  Collective over *both* programs:
/// each processor passes one buffer per remote rank and receives one from
/// each.  Pairing relies on both programs making matching calls in order.
template <typename T>
std::vector<std::vector<T>> interAlltoall(
    transport::Comm& comm, int remoteProgram,
    const std::vector<std::vector<T>>& sendTo) {
  const int tag = comm.nextInterTag(remoteProgram);
  const int rp = comm.programInfo(remoteProgram).nprocs;
  MC_REQUIRE(static_cast<int>(sendTo.size()) == rp,
             "interAlltoall needs one lane per remote rank (%d), got %zu", rp,
             sendTo.size());
  for (int r = 0; r < rp; ++r) {
    comm.sendTo(remoteProgram, r, tag, sendTo[static_cast<size_t>(r)]);
  }
  std::vector<std::vector<T>> out(static_cast<size_t>(rp));
  for (int r = 0; r < rp; ++r) {
    out[static_cast<size_t>(r)] = comm.recvFrom<T>(remoteProgram, r, tag);
  }
  return out;
}

/// Verifies both programs agree on the element count.  Collective over both
/// programs.
void handshakeCount(transport::Comm& comm, int remoteProgram, layout::Index n);

/// Exchanges a byte blob with the remote program (rank 0 <-> rank 0, then
/// broadcast within each program).  Collective over both programs.
std::vector<std::byte> exchangeBlob(transport::Comm& comm, int remoteProgram,
                                    const std::vector<std::byte>& mine);

/// Wire bundle for the inter-program duplication method: the library name,
/// the serialized descriptor and the serialized set, each length-prefixed.
/// Collective over the owning program (a Chaos table is gathered).
std::vector<std::byte> packRemoteBundle(const LibraryAdapter& lib,
                                        const DistObject& obj,
                                        const SetOfRegions& set,
                                        transport::Comm& comm);

/// Inverse of packRemoteBundle.  The bytes come from another program: every
/// length, the library name, the descriptor and the set are validated, and
/// so is the set against the descriptor (the named adapter's validate), so
/// malformed input throws mc::Error before anything enumerates it.
std::pair<DistObject, SetOfRegions> unpackRemoteBundle(
    std::span<const std::byte> bytes);

}  // namespace mc::core::detail
