#include "core/region.h"

#include <cstdint>
#include <cstring>

#include "util/error.h"

namespace mc::core {

using layout::Index;

Region Region::section(layout::RegularSection s) {
  Region r;
  r.kind_ = Kind::kSection;
  r.section_ = s;
  return r;
}

Region Region::indices(std::vector<Index> idx) {
  Region r;
  r.kind_ = Kind::kIndices;
  r.indices_ = std::move(idx);
  return r;
}

Region Region::range(Index lo, Index hi, Index stride) {
  MC_REQUIRE(stride > 0, "range stride must be positive");
  Region r;
  r.kind_ = Kind::kRange;
  r.range_ = ElementRange{lo, hi, stride};
  return r;
}

Index Region::numElements() const {
  switch (kind_) {
    case Kind::kSection:
      return section_.numElements();
    case Kind::kIndices:
      return static_cast<Index>(indices_.size());
    case Kind::kRange:
      return range_.numElements();
  }
  MC_CHECK(false);
  return 0;
}

const layout::RegularSection& Region::asSection() const {
  MC_REQUIRE(kind_ == Kind::kSection, "region is not a section region");
  return section_;
}

const std::vector<Index>& Region::asIndices() const {
  MC_REQUIRE(kind_ == Kind::kIndices, "region is not an index region");
  return indices_;
}

const ElementRange& Region::asRange() const {
  MC_REQUIRE(kind_ == Kind::kRange, "region is not a range region");
  return range_;
}

void SetOfRegions::add(Region r) {
  MC_REQUIRE(regions_.empty() || regions_.front().kind() == r.kind(),
             "all regions of a SetOfRegions must share one kind");
  regions_.push_back(std::move(r));
}

Index SetOfRegions::numElements() const {
  Index n = 0;
  for (const Region& r : regions_) n += r.numElements();
  return n;
}

Region::Kind SetOfRegions::kind() const {
  MC_REQUIRE(!regions_.empty(), "empty SetOfRegions has no kind");
  return regions_.front().kind();
}

namespace {

void putIndex(std::vector<std::byte>& out, Index v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

Index getIndex(std::span<const std::byte> bytes, size_t& pos) {
  MC_REQUIRE(pos + sizeof(Index) <= bytes.size(), "truncated SetOfRegions");
  Index v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  pos += sizeof(v);
  return v;
}

}  // namespace

std::vector<std::byte> serializeSet(const SetOfRegions& set) {
  std::vector<std::byte> out;
  putIndex(out, static_cast<Index>(set.regions().size()));
  for (const Region& r : set.regions()) {
    putIndex(out, static_cast<Index>(r.kind()));
    switch (r.kind()) {
      case Region::Kind::kSection: {
        const layout::RegularSection& s = r.asSection();
        putIndex(out, s.rank);
        for (int d = 0; d < s.rank; ++d) {
          const auto dd = static_cast<size_t>(d);
          putIndex(out, s.lo[dd]);
          putIndex(out, s.hi[dd]);
          putIndex(out, s.stride[dd]);
        }
        break;
      }
      case Region::Kind::kIndices: {
        const auto& idx = r.asIndices();
        putIndex(out, static_cast<Index>(idx.size()));
        for (Index g : idx) putIndex(out, g);
        break;
      }
      case Region::Kind::kRange: {
        const ElementRange& e = r.asRange();
        putIndex(out, e.lo);
        putIndex(out, e.hi);
        putIndex(out, e.stride);
        break;
      }
    }
  }
  return out;
}

SetOfRegions deserializeSet(std::span<const std::byte> bytes) {
  SetOfRegions set;
  size_t pos = 0;
  const Index nRegions = getIndex(bytes, pos);
  for (Index i = 0; i < nRegions; ++i) {
    const auto kind = static_cast<Region::Kind>(getIndex(bytes, pos));
    switch (kind) {
      case Region::Kind::kSection: {
        layout::RegularSection s;
        s.rank = static_cast<int>(getIndex(bytes, pos));
        MC_REQUIRE(s.rank >= 1 && s.rank <= layout::kMaxRank,
                   "bad section rank in serialized SetOfRegions");
        for (int d = 0; d < s.rank; ++d) {
          const auto dd = static_cast<size_t>(d);
          s.lo[dd] = getIndex(bytes, pos);
          s.hi[dd] = getIndex(bytes, pos);
          s.stride[dd] = getIndex(bytes, pos);
        }
        set.add(Region::section(s));
        break;
      }
      case Region::Kind::kIndices: {
        // The count arrives from another program: bound it by the bytes
        // actually present before reserving anything.
        const Index n = getIndex(bytes, pos);
        MC_REQUIRE(n >= 0 && static_cast<std::uint64_t>(n) <=
                                 (bytes.size() - pos) / sizeof(Index),
                   "index count %lld exceeds serialized SetOfRegions",
                   static_cast<long long>(n));
        std::vector<Index> idx;
        idx.reserve(static_cast<size_t>(n));
        for (Index k = 0; k < n; ++k) idx.push_back(getIndex(bytes, pos));
        set.add(Region::indices(std::move(idx)));
        break;
      }
      case Region::Kind::kRange: {
        const Index lo = getIndex(bytes, pos);
        const Index hi = getIndex(bytes, pos);
        const Index stride = getIndex(bytes, pos);
        set.add(Region::range(lo, hi, stride));
        break;
      }
      default:
        MC_REQUIRE(false, "bad region kind in serialized SetOfRegions");
    }
  }
  MC_REQUIRE(pos == bytes.size(), "trailing bytes in serialized SetOfRegions");
  return set;
}

}  // namespace mc::core
