#include "hpfrt/dist.h"

#include <climits>

#include "layout/block_decomp.h"

namespace mc::hpfrt {

using layout::Index;
using layout::Point;
using layout::Shape;

HpfDist::HpfDist(Shape global, std::vector<DimDist> dims)
    : global_(global), dims_(std::move(dims)) {
  MC_REQUIRE(static_cast<int>(dims_.size()) == global_.rank,
             "distribution rank %zu != array rank %d", dims_.size(),
             global_.rank);
  nprocs_ = 1;
  for (const DimDist& d : dims_) {
    MC_REQUIRE(d.procs > 0);
    MC_REQUIRE(d.kind != DistKind::kBlockCyclic || d.param > 0,
               "CYCLIC(k) needs k > 0");
    nprocs_ *= d.procs;
  }
}

HpfDist HpfDist::blockEveryDim(Shape global, int nprocs) {
  const std::vector<int> grid = layout::chooseProcGrid(nprocs, global.rank);
  std::vector<DimDist> dims;
  dims.reserve(static_cast<size_t>(global.rank));
  for (int d = 0; d < global.rank; ++d) {
    dims.push_back(DimDist{DistKind::kBlock, grid[static_cast<size_t>(d)], 1});
  }
  return HpfDist(global, std::move(dims));
}

void HpfDist::serialize(std::vector<std::byte>& out) const {
  blob::putShape(out, global_);
  for (const DimDist& d : dims_) {
    blob::putU64(out, static_cast<std::uint64_t>(d.kind));
    blob::putU64(out, static_cast<std::uint64_t>(d.procs));
    blob::putU64(out, static_cast<std::uint64_t>(d.param));
  }
}

HpfDist HpfDist::deserialize(blob::ByteReader& r) {
  const Shape global = blob::readShape(r);
  std::vector<DimDist> dims;
  std::uint64_t procs = 1;
  for (int d = 0; d < global.rank; ++d) {
    DimDist dd;
    dd.kind = static_cast<DistKind>(
        r.u64In(0, static_cast<std::uint64_t>(DistKind::kBlockCyclic),
                "hpf distribution kind"));
    dd.procs = static_cast<int>(r.u64In(1, INT_MAX, "hpf grid extent"));
    // Both factors are at most INT_MAX, so the product cannot wrap.
    procs *= static_cast<std::uint64_t>(dd.procs);
    MC_REQUIRE(procs <= INT_MAX,
               "hpf processor grid exceeds INT_MAX processors");
    dd.param = static_cast<Index>(
        r.u64In(1, blob::kMaxDecodedElements, "hpf block parameter"));
    dims.push_back(dd);
  }
  return HpfDist(global, std::move(dims));
}

std::vector<int> HpfDist::procCoord(int proc) const {
  MC_REQUIRE(proc >= 0 && proc < nprocs_);
  std::vector<int> coord(dims_.size());
  for (int d = global_.rank - 1; d >= 0; --d) {
    coord[static_cast<size_t>(d)] = proc % dims_[static_cast<size_t>(d)].procs;
    proc /= dims_[static_cast<size_t>(d)].procs;
  }
  return coord;
}

int HpfDist::procAt(const std::vector<int>& coord) const {
  MC_REQUIRE(coord.size() == dims_.size());
  int proc = 0;
  for (int d = 0; d < global_.rank; ++d) {
    const auto dd = static_cast<size_t>(d);
    MC_REQUIRE(coord[dd] >= 0 && coord[dd] < dims_[dd].procs);
    proc = proc * dims_[dd].procs + coord[dd];
  }
  return proc;
}

int HpfDist::ownerInDim(int d, Index g) const {
  const DimDist& dd = dims_[static_cast<size_t>(d)];
  const Index n = global_[d];
  MC_REQUIRE(g >= 0 && g < n);
  switch (dd.kind) {
    case DistKind::kBlock: {
      const Index block = (n + dd.procs - 1) / dd.procs;
      return static_cast<int>(g / block);
    }
    case DistKind::kCyclic:
      return static_cast<int>(g % dd.procs);
    case DistKind::kBlockCyclic:
      return static_cast<int>((g / dd.param) % dd.procs);
  }
  MC_CHECK(false);
  return -1;
}

Index HpfDist::localIndexInDim(int d, Index g) const {
  const DimDist& dd = dims_[static_cast<size_t>(d)];
  const Index n = global_[d];
  switch (dd.kind) {
    case DistKind::kBlock: {
      const Index block = (n + dd.procs - 1) / dd.procs;
      return g % block;
    }
    case DistKind::kCyclic:
      return g / dd.procs;
    case DistKind::kBlockCyclic: {
      const Index k = dd.param;
      return (g / (static_cast<Index>(dd.procs) * k)) * k + g % k;
    }
  }
  MC_CHECK(false);
  return -1;
}

Index HpfDist::localCountInDim(int d, int c) const {
  const DimDist& dd = dims_[static_cast<size_t>(d)];
  const Index n = global_[d];
  switch (dd.kind) {
    case DistKind::kBlock: {
      const Index block = (n + dd.procs - 1) / dd.procs;
      const Index lo = block * c;
      return std::max<Index>(0, std::min(n, lo + block) - lo);
    }
    case DistKind::kCyclic:
      return n > c ? (n - c - 1) / dd.procs + 1 : 0;
    case DistKind::kBlockCyclic: {
      const Index k = dd.param;
      const Index nBlocks = (n + k - 1) / k;  // global block count
      const Index owned =
          nBlocks > c ? (nBlocks - c - 1) / dd.procs + 1 : 0;
      Index count = owned * k;
      // The final global block may be short; subtract the shortfall if mine.
      const Index lastLen = n - (nBlocks - 1) * k;
      if (owned > 0 && (nBlocks - 1) % dd.procs == c &&
          (nBlocks - 1) / dd.procs == owned - 1) {
        count -= k - lastLen;
      }
      return count;
    }
  }
  MC_CHECK(false);
  return -1;
}

Index HpfDist::globalFromLocal(int d, int c, Index li) const {
  const DimDist& dd = dims_[static_cast<size_t>(d)];
  const Index n = global_[d];
  switch (dd.kind) {
    case DistKind::kBlock: {
      const Index block = (n + dd.procs - 1) / dd.procs;
      return block * c + li;
    }
    case DistKind::kCyclic:
      return c + li * dd.procs;
    case DistKind::kBlockCyclic: {
      const Index k = dd.param;
      const Index blockIdx = li / k;  // which of my blocks
      const Index within = li % k;
      return (blockIdx * dd.procs + c) * k + within;
    }
  }
  MC_CHECK(false);
  return -1;
}

int HpfDist::ownerOf(const Point& p) const {
  MC_REQUIRE(p.rank == global_.rank);
  // Row-major over grid coordinates, without allocation (hot path in the
  // schedule builders).
  int proc = 0;
  for (int d = 0; d < global_.rank; ++d) {
    proc = proc * dims_[static_cast<size_t>(d)].procs + ownerInDim(d, p[d]);
  }
  return proc;
}

Shape HpfDist::localShape(int proc) const {
  MC_REQUIRE(proc >= 0 && proc < nprocs_);
  std::array<int, layout::kMaxRank> coord{};
  int rem = proc;
  for (int d = global_.rank - 1; d >= 0; --d) {
    const int g = dims_[static_cast<size_t>(d)].procs;
    coord[static_cast<size_t>(d)] = rem % g;
    rem /= g;
  }
  Shape s;
  s.rank = global_.rank;
  for (int d = 0; d < global_.rank; ++d) {
    s[d] = localCountInDim(d, coord[static_cast<size_t>(d)]);
  }
  return s;
}

Index HpfDist::localOffset(int proc, const Point& p) const {
  MC_REQUIRE(ownerOf(p) == proc, "point not owned by processor %d", proc);
  const Shape local = localShape(proc);
  Point li;
  li.rank = p.rank;
  for (int d = 0; d < p.rank; ++d) li[d] = localIndexInDim(d, p[d]);
  return rowMajorOffset(local, li);
}

}  // namespace mc::hpfrt
