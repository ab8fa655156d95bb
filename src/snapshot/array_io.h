// Framed per-rank serialization of the four libraries' distributed
// containers (parti / hpfrt / tulip / chaos).
//
// Each blob holds the *replicated* distribution descriptor plus the saving
// rank's local shard, tagged with the saving rank, the program size, and
// sizeof(T).  Restore is collective in the same sense construction is:
// every rank of the program calls it with its own blob, the container is
// rebuilt through the library's ordinary collective constructor (which
// re-validates the descriptor against the program), and the shard is copied
// back only after every count in the blob checked out.  A blob saved by a
// different rank, a different program size, or a different element type is
// rejected loudly — never reinterpreted.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "chaos/irreg_array.h"
#include "hpfrt/hpf_array.h"
#include "parti/dist_array.h"
#include "tulip/collection.h"
#include "util/blob_io.h"

namespace mc::snapshot {

/// Payload layout version of the array blobs below.  Each blob's
/// descriptor is written by its library's descriptor codec.
inline constexpr std::uint32_t kArrayBlobVersion = 2;

namespace detail {

template <typename T>
void putShardHeader(std::vector<std::byte>& out, const transport::Comm& c) {
  blob::putU64(out, sizeof(T));
  blob::putU64(out, static_cast<std::uint64_t>(c.rank()));
  blob::putU64(out, static_cast<std::uint64_t>(c.size()));
}

template <typename T>
void readShardHeader(blob::ByteReader& r, const transport::Comm& c,
                     const char* what) {
  const std::uint64_t elem = r.u64();
  MC_REQUIRE(elem == sizeof(T),
             "%s blob holds %llu-byte elements, this program reads %zu-byte "
             "elements",
             what, static_cast<unsigned long long>(elem), sizeof(T));
  const std::uint64_t rank = r.u64();
  const std::uint64_t nprocs = r.u64();
  MC_REQUIRE(nprocs == static_cast<std::uint64_t>(c.size()),
             "%s blob was saved by a %llu-process program, this program has "
             "%d processes",
             what, static_cast<unsigned long long>(nprocs), c.size());
  MC_REQUIRE(rank == static_cast<std::uint64_t>(c.rank()),
             "%s blob was saved by rank %llu, restoring rank is %d", what,
             static_cast<unsigned long long>(rank), c.rank());
}

template <typename T>
void copyShard(std::vector<T>&& shard, std::span<T> dst, const char* what) {
  MC_REQUIRE(shard.size() == dst.size(),
             "%s blob carries %zu local elements, the rebuilt container "
             "holds %zu",
             what, shard.size(), dst.size());
  if (!shard.empty()) {
    std::memcpy(dst.data(), shard.data(), shard.size() * sizeof(T));
  }
}

}  // namespace detail

// --- Multiblock Parti -------------------------------------------------------

template <typename T>
std::vector<std::byte> serializeArray(const parti::BlockDistArray<T>& a) {
  std::vector<std::byte> payload;
  detail::putShardHeader<T>(payload, a.comm());
  a.desc().serialize(payload);
  const std::span<const T> raw = a.raw();
  blob::putPods(payload, std::vector<T>(raw.begin(), raw.end()));
  return blob::frame(blob::kPartiArray, kArrayBlobVersion, payload);
}

template <typename T>
parti::BlockDistArray<T> deserializePartiArray(
    transport::Comm& comm, std::span<const std::byte> data) {
  const blob::FrameView v = blob::unframe(data, blob::kPartiArray);
  MC_REQUIRE(v.kindVersion == kArrayBlobVersion,
             "unknown parti-array blob version %u", v.kindVersion);
  blob::ByteReader r(v.payload);
  detail::readShardHeader<T>(r, comm, "parti array");
  parti::PartiDesc desc = parti::PartiDesc::deserialize(r);
  std::vector<T> shard = r.pods<T>();
  r.requireEnd("parti array blob");
  // The array constructor re-validates the grid against the program size.
  parti::BlockDistArray<T> a(comm, std::move(desc.decomp), desc.ghost);
  detail::copyShard(std::move(shard), a.raw(), "parti array");
  return a;
}

// --- HPF runtime ------------------------------------------------------------

template <typename T>
std::vector<std::byte> serializeArray(const hpfrt::HpfArray<T>& a) {
  std::vector<std::byte> payload;
  detail::putShardHeader<T>(payload, a.comm());
  a.dist().serialize(payload);
  const std::span<const T> raw = a.raw();
  blob::putPods(payload, std::vector<T>(raw.begin(), raw.end()));
  return blob::frame(blob::kHpfArray, kArrayBlobVersion, payload);
}

template <typename T>
hpfrt::HpfArray<T> deserializeHpfArray(transport::Comm& comm,
                                       std::span<const std::byte> data) {
  const blob::FrameView v = blob::unframe(data, blob::kHpfArray);
  MC_REQUIRE(v.kindVersion == kArrayBlobVersion,
             "unknown hpf-array blob version %u", v.kindVersion);
  blob::ByteReader r(v.payload);
  detail::readShardHeader<T>(r, comm, "hpf array");
  hpfrt::HpfDist dist = hpfrt::HpfDist::deserialize(r);
  std::vector<T> shard = r.pods<T>();
  r.requireEnd("hpf array blob");
  // The array constructor re-validates the grid against the program size.
  hpfrt::HpfArray<T> a(comm, std::move(dist));
  detail::copyShard(std::move(shard), a.raw(), "hpf array");
  return a;
}

// --- Tulip (pC++) -----------------------------------------------------------

template <typename T>
std::vector<std::byte> serializeArray(const tulip::Collection<T>& a) {
  std::vector<std::byte> payload;
  detail::putShardHeader<T>(payload, a.comm());
  a.desc().serialize(payload);
  const std::span<const T> raw = a.raw();
  blob::putPods(payload, std::vector<T>(raw.begin(), raw.end()));
  return blob::frame(blob::kTulipCollection, kArrayBlobVersion, payload);
}

template <typename T>
tulip::Collection<T> deserializeTulipCollection(
    transport::Comm& comm, std::span<const std::byte> data) {
  const blob::FrameView v = blob::unframe(data, blob::kTulipCollection);
  MC_REQUIRE(v.kindVersion == kArrayBlobVersion,
             "unknown tulip-collection blob version %u", v.kindVersion);
  blob::ByteReader r(v.payload);
  detail::readShardHeader<T>(r, comm, "tulip collection");
  const tulip::TulipDesc desc = tulip::TulipDesc::deserialize(r);
  MC_REQUIRE(desc.nprocs == comm.size(),
             "tulip collection blob describes %d processes, this program "
             "has %d",
             desc.nprocs, comm.size());
  std::vector<T> shard = r.pods<T>();
  r.requireEnd("tulip collection blob");
  tulip::Collection<T> a(comm, desc.size, desc.placement);
  detail::copyShard(std::move(shard), a.raw(), "tulip collection");
  return a;
}

// --- Chaos ------------------------------------------------------------------

template <typename T>
std::vector<std::byte> serializeArray(const chaos::IrregArray<T>& a) {
  std::vector<std::byte> payload;
  detail::putShardHeader<T>(payload, a.comm());
  blob::putBytes(payload, a.table().serialize());
  const std::span<const layout::Index> globals = a.myGlobals();
  blob::putPods(payload,
                std::vector<layout::Index>(globals.begin(), globals.end()));
  const std::span<const T> raw = a.raw();
  blob::putPods(payload, std::vector<T>(raw.begin(), raw.end()));
  return blob::frame(blob::kIrregArray, kArrayBlobVersion, payload);
}

template <typename T>
chaos::IrregArray<T> deserializeIrregArray(transport::Comm& comm,
                                           std::span<const std::byte> data) {
  const blob::FrameView v = blob::unframe(data, blob::kIrregArray);
  MC_REQUIRE(v.kindVersion == kArrayBlobVersion,
             "unknown irreg-array blob version %u", v.kindVersion);
  blob::ByteReader r(v.payload);
  detail::readShardHeader<T>(r, comm, "irreg array");
  // The nested table blob mints a fresh uid (ttable.h), so the restored
  // array can never hit stale DerefCache entries keyed by the saved table.
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::deserialize(r.bytes()));
  std::vector<layout::Index> myGlobals = r.pods<layout::Index>();
  std::vector<T> shard = r.pods<T>();
  r.requireEnd("irreg array blob");
  for (const layout::Index g : myGlobals) {
    MC_REQUIRE(g >= 0 && g < table->globalSize(),
               "irreg array blob: global index out of range");
  }
  // The IrregArray constructor re-validates |myGlobals| against the table.
  chaos::IrregArray<T> a(comm, std::move(table), std::move(myGlobals));
  detail::copyShard(std::move(shard), a.raw(), "irreg array");
  return a;
}

}  // namespace mc::snapshot
