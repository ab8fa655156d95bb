// Versioned, checksummed byte containers for anything that leaves process
// memory.
//
// The schedule-blob path (sched/serialize.h) was born as an in-memory wire
// format between programs of one World: raw host-endian PODs, fine because
// sender and receiver are threads of the same process.  The snapshot
// subsystem persists the same bytes to disk, where they may be read by a
// different build on a different architecture — and the replicated-data
// interoperability literature is blunt about what happens next: unversioned,
// untagged serialization silently corrupts across boundaries.  So every blob
// that can be persisted now travels inside a common framed container:
//
//   [ magic "MCBLOB01" | container version | endian tag | kind |
//     kind version | sizeof(layout::Index) | sizeof(int) |
//     payload byte count | 128-bit payload checksum ]  ++  payload
//
// unframe() rejects — with a specific, loud error — anything whose magic,
// endianness, type widths, declared length, or checksum do not match; a
// mismatched or truncated blob can never be silently misread as data.
//
// ByteReader is the hardened payload cursor shared by every reader: all
// counts are validated against the remaining bytes BEFORE any allocation is
// sized from them, so a corrupt length field throws instead of triggering a
// pathological multi-GB reserve.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "layout/index.h"
#include "util/error.h"
#include "util/hash.h"

namespace mc::blob {

/// Payload kinds, one per serialized object type.  Persisted values —
/// append only, never renumber.
enum Kind : std::uint32_t {
  kSchedule = 1,          // sched::Schedule (sched/serialize.h)
  kMcSchedule = 2,        // core::McSchedule (snapshot/snapshot.h)
  kTranslationTable = 3,  // chaos::TranslationTable
  kPartiArray = 4,        // parti::BlockDistArray<T>
  kHpfArray = 5,          // hpfrt::HpfArray<T>
  kTulipCollection = 6,   // tulip::Collection<T>
  kIrregArray = 7,        // chaos::IrregArray<T>
  kSnapshotBody = 8,      // one rank's snapshot sections
  kSnapshotManifest = 9,  // cross-rank agreement digests
};

inline constexpr std::array<char, 8> kMagic = {'M', 'C', 'B', 'L',
                                               'O', 'B', '0', '1'};
/// Version 2: the payload checksum is the word-wise HashStream digest, so a
/// version-1 frame is refused here rather than as a checksum mismatch.
inline constexpr std::uint32_t kContainerVersion = 2;
/// Written as a native u32; a byte-swapped reader sees 0x04030201.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;

/// The fixed-size frame header.  Field order is the on-disk layout; all
/// members are naturally aligned so the struct is padding-free and can be
/// memcpy'd whole.
struct FrameHeader {
  std::array<char, 8> magic = kMagic;
  std::uint32_t containerVersion = kContainerVersion;
  std::uint32_t endianTag = kEndianTag;
  std::uint32_t kind = 0;
  std::uint32_t kindVersion = 0;
  std::uint32_t sizeofIndex = sizeof(layout::Index);
  std::uint32_t sizeofInt = sizeof(int);
  std::uint64_t payloadBytes = 0;
  HashStream::Digest checksum{0, 0};
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);
static_assert(sizeof(FrameHeader) == 56, "frame header must be padding-free");

inline HashStream::Digest payloadChecksum(std::span<const std::byte> payload) {
  HashStream h;
  h.str("mc-blob-payload");
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

/// Wraps `payload` in a validated frame.
inline std::vector<std::byte> frame(Kind kind, std::uint32_t kindVersion,
                                    std::span<const std::byte> payload) {
  FrameHeader h;
  h.kind = kind;
  h.kindVersion = kindVersion;
  h.payloadBytes = payload.size();
  h.checksum = payloadChecksum(payload);
  std::vector<std::byte> out(sizeof(FrameHeader) + payload.size());
  std::memcpy(out.data(), &h, sizeof(h));
  if (!payload.empty()) {
    std::memcpy(out.data() + sizeof(h), payload.data(), payload.size());
  }
  return out;
}

/// Validates the frame starting at `data` and returns its payload view plus
/// the kind version.  `consumed`, when non-null, receives the framed size so
/// concatenated frames can be walked; otherwise trailing bytes after the
/// frame are rejected.  Every failure mode throws mc::Error with a message
/// naming what mismatched — nothing is ever silently misread.
struct FrameView {
  std::span<const std::byte> payload;
  std::uint32_t kindVersion = 0;
};
inline FrameView unframe(std::span<const std::byte> data, Kind kind,
                         std::size_t* consumed = nullptr) {
  MC_REQUIRE(data.size() >= sizeof(FrameHeader),
             "blob truncated: %zu bytes is smaller than the %zu-byte frame "
             "header",
             data.size(), sizeof(FrameHeader));
  FrameHeader h;
  std::memcpy(&h, data.data(), sizeof(h));
  MC_REQUIRE(h.magic == kMagic, "blob has no MCBLOB01 magic — not a framed "
                                "blob, or written by an incompatible layer");
  MC_REQUIRE(h.endianTag == kEndianTag,
             "blob endianness tag mismatch (0x%08x, expected 0x%08x) — "
             "written on an incompatible-endian host",
             h.endianTag, kEndianTag);
  MC_REQUIRE(h.containerVersion == kContainerVersion,
             "blob container version %u, this build reads %u",
             h.containerVersion, kContainerVersion);
  MC_REQUIRE(h.sizeofIndex == sizeof(layout::Index) &&
                 h.sizeofInt == sizeof(int),
             "blob type widths (Index %u, int %u) do not match this build "
             "(Index %zu, int %zu)",
             h.sizeofIndex, h.sizeofInt, sizeof(layout::Index), sizeof(int));
  MC_REQUIRE(h.kind == static_cast<std::uint32_t>(kind),
             "blob kind %u, expected %u", h.kind,
             static_cast<std::uint32_t>(kind));
  const std::size_t avail = data.size() - sizeof(FrameHeader);
  MC_REQUIRE(h.payloadBytes <= avail,
             "blob truncated: header declares %llu payload bytes, %zu remain",
             static_cast<unsigned long long>(h.payloadBytes), avail);
  if (consumed == nullptr) {
    MC_REQUIRE(h.payloadBytes == avail,
               "trailing bytes after blob payload (%zu past the declared "
               "end)",
               avail - static_cast<std::size_t>(h.payloadBytes));
  } else {
    *consumed = sizeof(FrameHeader) + static_cast<std::size_t>(h.payloadBytes);
  }
  const std::span<const std::byte> payload =
      data.subspan(sizeof(FrameHeader),
                   static_cast<std::size_t>(h.payloadBytes));
  MC_REQUIRE(payloadChecksum(payload) == h.checksum,
             "blob checksum mismatch — payload corrupted");
  FrameView v;
  v.payload = payload;
  v.kindVersion = h.kindVersion;
  return v;
}

// --- payload writers --------------------------------------------------------

inline void putU64(std::vector<std::byte>& out, std::uint64_t v) {
  const std::size_t pos = out.size();
  out.resize(pos + sizeof(v));
  std::memcpy(out.data() + pos, &v, sizeof(v));
}

template <typename T>
void putPods(std::vector<std::byte>& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  putU64(out, v.size());
  const std::size_t pos = out.size();
  out.resize(pos + v.size() * sizeof(T));
  if (!v.empty()) std::memcpy(out.data() + pos, v.data(), v.size() * sizeof(T));
}

/// Length-prefixed raw bytes (e.g. a nested frame).
inline void putBytes(std::vector<std::byte>& out,
                     std::span<const std::byte> bytes) {
  putU64(out, bytes.size());
  const std::size_t pos = out.size();
  out.resize(pos + bytes.size());
  if (!bytes.empty()) std::memcpy(out.data() + pos, bytes.data(), bytes.size());
}

/// Length-prefixed string.
inline void putStr(std::vector<std::byte>& out, std::string_view s) {
  putU64(out, s.size());
  const std::size_t pos = out.size();
  out.resize(pos + s.size());
  if (!s.empty()) std::memcpy(out.data() + pos, s.data(), s.size());
}

/// An array shape: the rank, then one u64 per extent.  Read back with
/// readShape.
inline void putShape(std::vector<std::byte>& out, const layout::Shape& s) {
  putU64(out, static_cast<std::uint64_t>(s.rank));
  for (int d = 0; d < s.rank; ++d) {
    putU64(out, static_cast<std::uint64_t>(s[d]));
  }
}

// --- hardened payload reader ------------------------------------------------

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint64_t u64() {
    MC_REQUIRE(remaining() >= sizeof(std::uint64_t), "truncated blob");
    std::uint64_t v = 0;
    std::memcpy(&v, data_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }

  /// Reads a u64 field that must lie in [lo, hi]; `what` names the field in
  /// the error.  A negative value written through putU64 reads back above
  /// INT64_MAX, so any range whose hi is at most INT64_MAX rejects it.
  std::uint64_t u64In(std::uint64_t lo, std::uint64_t hi, const char* what) {
    const std::uint64_t v = u64();
    MC_REQUIRE(v >= lo && v <= hi, "%s %llu is outside [%llu, %llu]", what,
               static_cast<unsigned long long>(v),
               static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi));
    return v;
  }

  /// Reads an element count that precedes items of at least `perItemBytes`
  /// serialized bytes each, and validates it against the remaining payload
  /// BEFORE the caller sizes any allocation from it.  This is the guard
  /// that keeps a corrupt count from provoking a multi-GB reserve.
  std::uint64_t count(std::size_t perItemBytes) {
    const std::uint64_t n = u64();
    MC_REQUIRE(perItemBytes == 0 || n <= remaining() / perItemBytes,
               "truncated blob: count %llu exceeds the %zu remaining bytes",
               static_cast<unsigned long long>(n), remaining());
    return n;
  }

  template <typename T>
  std::vector<T> pods() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = count(sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n > 0) {
      std::memcpy(v.data(), data_.data() + pos_,
                  static_cast<std::size_t>(n) * sizeof(T));
      pos_ += static_cast<std::size_t>(n) * sizeof(T);
    }
    return v;
  }

  /// Length-prefixed raw bytes as a view into the payload (no copy).
  std::span<const std::byte> bytes() {
    const std::uint64_t n = count(1);
    const std::span<const std::byte> v =
        data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::string str() {
    const std::span<const std::byte> v = bytes();
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
  }

  bool atEnd() const { return pos_ == data_.size(); }

  void requireEnd(const char* what) const {
    MC_REQUIRE(atEnd(), "trailing bytes in %s", what);
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Largest element count a decoded shape or collection may have: block
/// arithmetic such as (extent + procs - 1) / procs, with procs an int, then
/// cannot overflow layout::Index.
inline constexpr std::uint64_t kMaxDecodedElements =
    static_cast<std::uint64_t>(std::numeric_limits<layout::Index>::max()) -
    static_cast<std::uint64_t>(std::numeric_limits<int>::max());

/// Reads a shape written by putShape: the rank must lie in
/// [1, layout::kMaxRank] and the element count must not exceed
/// kMaxDecodedElements.
inline layout::Shape readShape(ByteReader& r) {
  layout::Shape s;
  s.rank = static_cast<int>(r.u64In(1, layout::kMaxRank, "shape rank"));
  std::uint64_t elements = 1;
  for (int d = 0; d < s.rank; ++d) {
    const std::uint64_t e = r.u64In(0, kMaxDecodedElements, "shape extent");
    MC_REQUIRE(e == 0 || elements <= kMaxDecodedElements / e,
               "shape has more elements than an Index can count");
    elements *= e;
    s[d] = static_cast<layout::Index>(e);
  }
  return s;
}

}  // namespace mc::blob
