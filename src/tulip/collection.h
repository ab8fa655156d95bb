// Tulip-style distributed collections (the pC++ runtime).
//
// pC++ [Bodin, Beckman, Gannon et al.; Scientific Programming 1993] executes
// methods over *collections* of element objects distributed across
// processors; its runtime, Tulip, provides element placement and access.
// The paper reports that the Indiana pC++ group implemented the Meta-Chaos
// interface functions for Tulip "in a few days" — the library is small, and
// so is this reproduction of it: a 1-D collection of trivially copyable
// element objects with BLOCK or CYCLIC placement, plus exactly the inquiry
// surface Meta-Chaos needs (owner, local offset, element enumeration).
#pragma once

#include <climits>
#include <span>
#include <vector>

#include "layout/index.h"
#include "transport/comm.h"
#include "util/blob_io.h"

namespace mc::tulip {

enum class Placement { kBlock, kCyclic };

/// Compact distribution descriptor for a collection.
struct TulipDesc {
  layout::Index size = 0;
  int nprocs = 1;
  Placement placement = Placement::kBlock;

  /// Appends the descriptor's wire form to `out`: size, processor count and
  /// placement, one u64 each.  The one codec for shipping a descriptor to
  /// another program and for snapshot blobs.
  void serialize(std::vector<std::byte>& out) const {
    blob::putU64(out, static_cast<std::uint64_t>(size));
    blob::putU64(out, static_cast<std::uint64_t>(nprocs));
    blob::putU64(out, static_cast<std::uint64_t>(placement));
  }

  /// Reads a descriptor written by serialize().  The bytes may come from
  /// another program or a file: the size must lie in
  /// [0, blob::kMaxDecodedElements], the processor count in [1, INT_MAX]
  /// and the placement must be known; malformed input throws mc::Error.
  static TulipDesc deserialize(blob::ByteReader& r) {
    TulipDesc d;
    d.size = static_cast<layout::Index>(
        r.u64In(0, blob::kMaxDecodedElements, "tulip collection size"));
    d.nprocs = static_cast<int>(r.u64In(1, INT_MAX, "tulip processor count"));
    d.placement = static_cast<Placement>(r.u64In(
        0, static_cast<std::uint64_t>(Placement::kCyclic), "tulip placement"));
    return d;
  }

  int ownerOf(layout::Index e) const {
    MC_REQUIRE(e >= 0 && e < size);
    if (placement == Placement::kBlock) {
      const layout::Index block = (size + nprocs - 1) / nprocs;
      return static_cast<int>(e / block);
    }
    return static_cast<int>(e % nprocs);
  }

  layout::Index localOffsetOf(layout::Index e) const {
    MC_REQUIRE(e >= 0 && e < size);
    if (placement == Placement::kBlock) {
      const layout::Index block = (size + nprocs - 1) / nprocs;
      return e % block;
    }
    return e / nprocs;
  }

  layout::Index localCount(int proc) const {
    if (placement == Placement::kBlock) {
      const layout::Index block = (size + nprocs - 1) / nprocs;
      const layout::Index lo = block * proc;
      return std::max<layout::Index>(0, std::min(size, lo + block) - lo);
    }
    return size > proc ? (size - proc - 1) / nprocs + 1 : 0;
  }

  layout::Index globalOf(int proc, layout::Index localOff) const {
    if (placement == Placement::kBlock) {
      const layout::Index block = (size + nprocs - 1) / nprocs;
      return block * proc + localOff;
    }
    return proc + localOff * nprocs;
  }
};

/// A distributed collection of element objects of type T.
template <typename T>
class Collection {
  static_assert(std::is_trivially_copyable_v<T>,
                "Tulip elements must be trivially copyable objects");

 public:
  Collection(transport::Comm& comm, layout::Index size,
             Placement placement = Placement::kBlock)
      : comm_(&comm), desc_{size, comm.size(), placement} {
    MC_REQUIRE(size >= 0);
    elements_.assign(static_cast<size_t>(desc_.localCount(comm.rank())), T{});
  }

  transport::Comm& comm() const { return *comm_; }
  const TulipDesc& desc() const { return desc_; }
  layout::Index size() const { return desc_.size; }
  layout::Index localCount() const {
    return static_cast<layout::Index>(elements_.size());
  }

  std::span<T> raw() { return elements_; }
  std::span<const T> raw() const { return elements_; }

  /// Access an owned element by global index.
  T& at(layout::Index e) {
    MC_REQUIRE(desc_.ownerOf(e) == comm_->rank(),
               "element %lld is not owned by this processor",
               static_cast<long long>(e));
    return elements_[static_cast<size_t>(desc_.localOffsetOf(e))];
  }
  const T& at(layout::Index e) const {
    MC_REQUIRE(desc_.ownerOf(e) == comm_->rank(),
               "element %lld is not owned by this processor",
               static_cast<long long>(e));
    return elements_[static_cast<size_t>(desc_.localOffsetOf(e))];
  }

  /// Owner-computes iteration: fn(globalIndex, element&) on owned elements,
  /// in local storage order — pC++'s method-over-collection execution model.
  template <typename F>
  void forEachOwned(F&& fn) {
    for (size_t i = 0; i < elements_.size(); ++i) {
      fn(desc_.globalOf(comm_->rank(), static_cast<layout::Index>(i)),
         elements_[i]);
    }
  }

  /// Collective test/debug oracle: all elements in global order, everywhere.
  std::vector<T> gatherGlobal() const {
    auto rows = comm_->allgather<T>(std::span<const T>(elements_));
    std::vector<T> out(static_cast<size_t>(desc_.size), T{});
    for (int proc = 0; proc < comm_->size(); ++proc) {
      const auto& row = rows[static_cast<size_t>(proc)];
      for (size_t i = 0; i < row.size(); ++i) {
        out[static_cast<size_t>(
            desc_.globalOf(proc, static_cast<layout::Index>(i)))] = row[i];
      }
    }
    return out;
  }

 private:
  transport::Comm* comm_;
  TulipDesc desc_;
  std::vector<T> elements_;
};

}  // namespace mc::tulip
