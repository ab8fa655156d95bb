// BlockDistArray: the Multiblock-Parti-style distributed array.
//
// Multiblock Parti [Agrawal, Sussman, Saltz; IEEE TPDS 1995] manages
// multidimensional arrays distributed BLOCK-wise over a processor grid, with
// ghost (overlap) cells around each local block for stencil communication.
// Every processor of the owning program constructs the array collectively
// with identical arguments; each then holds its own block plus a halo of
// `ghost` cells per face, stored row-major in one contiguous buffer.
//
// The distribution descriptor (decomposition + ghost width) is replicated
// knowledge: any processor can answer "who owns global element g and at what
// local address" without communication — which is exactly the inquiry
// interface Meta-Chaos requires (paper Section 4.1.3).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "layout/block_decomp.h"
#include "transport/comm.h"
#include "util/blob_io.h"

namespace mc::parti {

/// Precomputed padded-storage addressing for one processor; build it once
/// outside a hot loop instead of calling PartiDesc::paddedOffsetOf per
/// element (which re-derives the owned box every call).
struct PartiAddr {
  int rank = 0;
  int ghost = 0;
  std::array<layout::Index, layout::kMaxRank> lo{};      // owned-box lows
  std::array<layout::Index, layout::kMaxRank> extent{};  // padded extents

  /// Offset of global point `p` in the processor's padded storage; `p` must
  /// lie within the padded block (checked).
  layout::Index offsetOf(const layout::Point& p) const {
    layout::Index off = 0;
    for (int d = 0; d < rank; ++d) {
      const auto dd = static_cast<size_t>(d);
      const layout::Index l = p[d] - lo[dd] + ghost;
      MC_CHECK(l >= 0 && l < extent[dd],
               "global point outside the padded block");
      off = off * extent[dd] + l;
    }
    return off;
  }
};

/// Compact distribution descriptor for a Parti array, shippable between
/// programs (it is a few dozen bytes — this is why the paper's *duplication*
/// schedule method is practical for Parti but not for Chaos).
struct PartiDesc {
  layout::BlockDecomp decomp;
  int ghost = 0;

  /// Appends the descriptor's wire form to `out`: the global shape, the
  /// processor grid and the ghost width, one u64 per field.  The one codec
  /// for shipping a descriptor to another program and for snapshot blobs.
  void serialize(std::vector<std::byte>& out) const;
  /// Reads a descriptor written by serialize().  The bytes may come from
  /// another program or a file, so every field is validated before anything
  /// is built: rank in [1, kMaxRank], extents >= 0, grid extents >= 1 with
  /// a product that fits in int, ghost width in [0, 2^20].  Malformed input
  /// throws mc::Error.
  static PartiDesc deserialize(blob::ByteReader& r);

  int ownerOf(const layout::Point& p) const { return decomp.ownerOf(p); }

  /// Hot-loop addressing snapshot for `proc`.
  PartiAddr addrOf(int proc) const {
    const layout::RegularSection box = decomp.ownedBox(proc);
    PartiAddr addr;
    addr.rank = decomp.rank();
    addr.ghost = ghost;
    const layout::Shape padded = paddedShape(proc);
    for (int d = 0; d < addr.rank; ++d) {
      const auto dd = static_cast<size_t>(d);
      addr.lo[dd] = box.lo[dd];
      addr.extent[dd] = padded[d];
    }
    return addr;
  }

  /// Padded (halo-included) local shape on `proc`.
  layout::Shape paddedShape(int proc) const {
    layout::Shape s = decomp.localShape(proc);
    for (int d = 0; d < s.rank; ++d) s[d] += 2 * ghost;
    return s;
  }

  /// Offset of global point `p` in `proc`'s padded storage.  `p` must lie in
  /// the processor's owned box expanded by the ghost width (clipped to the
  /// global domain).
  layout::Index paddedOffsetOf(int proc, const layout::Point& p) const {
    const layout::RegularSection box = decomp.ownedBox(proc);
    const layout::Shape padded = paddedShape(proc);
    layout::Point local;
    local.rank = p.rank;
    for (int d = 0; d < p.rank; ++d) {
      const auto dd = static_cast<size_t>(d);
      const layout::Index l = p[d] - box.lo[dd] + ghost;
      MC_REQUIRE(l >= 0 && l < padded[d],
                 "global point outside proc %d's padded block", proc);
      local[d] = l;
    }
    return layout::rowMajorOffset(padded, local);
  }
};

template <typename T>
class BlockDistArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Collective constructor; the processor grid is chosen near-square.
  BlockDistArray(transport::Comm& comm, layout::Shape global, int ghost = 0)
      : BlockDistArray(comm, layout::BlockDecomp::regular(global, comm.size()),
                       ghost) {}

  /// Collective constructor with an explicit decomposition.
  BlockDistArray(transport::Comm& comm, layout::BlockDecomp decomp, int ghost)
      : comm_(&comm), desc_{std::move(decomp), ghost} {
    MC_REQUIRE(ghost >= 0);
    MC_REQUIRE(desc_.decomp.nprocs() == comm.size(),
               "decomposition is over %d processors but the program has %d",
               desc_.decomp.nprocs(), comm.size());
    data_.assign(
        static_cast<size_t>(desc_.paddedShape(comm.rank()).numElements()),
        T{});
  }

  transport::Comm& comm() const { return *comm_; }
  const PartiDesc& desc() const { return desc_; }
  const layout::BlockDecomp& decomp() const { return desc_.decomp; }
  int ghost() const { return desc_.ghost; }
  const layout::Shape& globalShape() const { return desc_.decomp.globalShape(); }
  layout::RegularSection ownedBox() const {
    return desc_.decomp.ownedBox(comm_->rank());
  }

  std::span<T> raw() { return data_; }
  std::span<const T> raw() const { return data_; }

  layout::Index paddedOffsetOf(const layout::Point& p) const {
    return desc_.paddedOffsetOf(comm_->rank(), p);
  }

  /// Element access by *global* point; valid for owned and halo points.
  T& at(const layout::Point& p) {
    return data_[static_cast<size_t>(paddedOffsetOf(p))];
  }
  const T& at(const layout::Point& p) const {
    return data_[static_cast<size_t>(paddedOffsetOf(p))];
  }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Sets every *owned* element to fn(point).
  template <typename F>
  void fillByPoint(F&& fn) {
    ownedBox().forEach([&](const layout::Point& p, layout::Index) {
      at(p) = fn(p);
    });
  }

  /// Collective test/debug oracle: every processor receives the full global
  /// array (row-major).  O(global size) traffic; not for production paths.
  std::vector<T> gatherGlobal() const {
    std::vector<T> mine;
    const layout::RegularSection box = ownedBox();
    mine.reserve(static_cast<size_t>(box.numElements()));
    box.forEach([&](const layout::Point& p, layout::Index) {
      mine.push_back(at(p));
    });
    auto rows = comm_->allgather<T>(std::span<const T>(mine));
    std::vector<T> global(
        static_cast<size_t>(globalShape().numElements()), T{});
    for (int proc = 0; proc < comm_->size(); ++proc) {
      const layout::RegularSection pbox = desc_.decomp.ownedBox(proc);
      size_t i = 0;
      pbox.forEach([&](const layout::Point& p, layout::Index) {
        global[static_cast<size_t>(rowMajorOffset(globalShape(), p))] =
            rows[static_cast<size_t>(proc)][i++];
      });
    }
    return global;
  }

 private:
  transport::Comm* comm_;
  PartiDesc desc_;
  std::vector<T> data_;
};

/// Collective reduction over every *owned* element (halos excluded).
template <typename T, typename Op>
T reduceOwned(const BlockDistArray<T>& a, T init, Op op) {
  T local = init;
  a.ownedBox().forEach([&](const layout::Point& p, layout::Index) {
    local = op(local, a.at(p));
  });
  return a.comm().allreduceValue(local, op);
}

/// Collective global sum / max over the owned elements.
template <typename T>
T globalSum(const BlockDistArray<T>& a) {
  return reduceOwned(a, T{}, [](T x, T y) { return x + y; });
}
template <typename T>
T globalMax(const BlockDistArray<T>& a) {
  bool first = true;
  T local{};
  a.ownedBox().forEach([&](const layout::Point& p, layout::Index) {
    local = first ? a.at(p) : std::max(local, a.at(p));
    first = false;
  });
  // Empty blocks contribute the program-wide minimum-possible start value:
  // fold via max over the non-empty contributions only.
  struct Tagged {
    T value;
    int valid;
  };
  const Tagged mine{local, first ? 0 : 1};
  const auto all = a.comm().allgatherValue(mine);
  T best{};
  bool any = false;
  for (const Tagged& t : all) {
    if (t.valid == 0) continue;
    best = any ? std::max(best, t.value) : t.value;
    any = true;
  }
  MC_REQUIRE(any, "globalMax over an empty array");
  return best;
}

}  // namespace mc::parti
