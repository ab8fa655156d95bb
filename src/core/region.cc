#include "core/region.h"

#include <cstdint>
#include <limits>

#include "util/blob_io.h"
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
  HashStream h;
  h.podSpan(std::span<const Index>(r.indices_));
  r.indicesDigest_ = h.digest();
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

const HashStream::Digest& Region::indicesDigest() const {
  MC_REQUIRE(kind_ == Kind::kIndices, "region is not an index region");
  return indicesDigest_;
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

std::vector<std::byte> serializeSet(const SetOfRegions& set) {
  std::vector<std::byte> out;
  blob::putU64(out, set.regions().size());
  for (const Region& r : set.regions()) {
    blob::putU64(out, static_cast<std::uint64_t>(r.kind()));
    switch (r.kind()) {
      case Region::Kind::kSection: {
        const layout::RegularSection& s = r.asSection();
        blob::putU64(out, static_cast<std::uint64_t>(s.rank));
        for (int d = 0; d < s.rank; ++d) {
          const auto dd = static_cast<size_t>(d);
          blob::putU64(out, static_cast<std::uint64_t>(s.lo[dd]));
          blob::putU64(out, static_cast<std::uint64_t>(s.hi[dd]));
          blob::putU64(out, static_cast<std::uint64_t>(s.stride[dd]));
        }
        break;
      }
      case Region::Kind::kIndices:
        blob::putPods(out, r.asIndices());
        break;
      case Region::Kind::kRange: {
        const ElementRange& e = r.asRange();
        blob::putU64(out, static_cast<std::uint64_t>(e.lo));
        blob::putU64(out, static_cast<std::uint64_t>(e.hi));
        blob::putU64(out, static_cast<std::uint64_t>(e.stride));
        break;
      }
    }
  }
  return out;
}

namespace {

constexpr Index kMaxIndex = std::numeric_limits<Index>::max();

/// Element count of lo..hi:stride (hi inclusive), rejecting a stride <= 0
/// and bounds whose difference (which numElements() computes as an Index)
/// or count does not fit in Index.
Index checkedCount(Index lo, Index hi, Index stride) {
  MC_REQUIRE(stride > 0, "serialized SetOfRegions has stride %lld",
             static_cast<long long>(stride));
  if (hi < lo) return 0;
  // hi >= lo, so the unsigned difference is exact.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  MC_REQUIRE(span < static_cast<std::uint64_t>(kMaxIndex),
             "serialized SetOfRegions bounds [%lld, %lld] overflow Index",
             static_cast<long long>(lo), static_cast<long long>(hi));
  return static_cast<Index>(span) / stride + 1;
}

}  // namespace

SetOfRegions deserializeSet(std::span<const std::byte> bytes) {
  blob::ByteReader r(bytes);
  SetOfRegions set;
  // Every region carries at least its kind word.
  const std::uint64_t nRegions = r.count(sizeof(std::uint64_t));
  Index total = 0;
  for (std::uint64_t i = 0; i < nRegions; ++i) {
    const auto kind = static_cast<Region::Kind>(
        r.u64In(0, static_cast<std::uint64_t>(Region::Kind::kRange),
                "SetOfRegions region kind"));
    Index n = 0;
    switch (kind) {
      case Region::Kind::kSection: {
        layout::RegularSection s;
        s.rank = static_cast<int>(
            r.u64In(1, layout::kMaxRank, "SetOfRegions section rank"));
        n = 1;
        for (int d = 0; d < s.rank; ++d) {
          const auto dd = static_cast<size_t>(d);
          s.lo[dd] = static_cast<Index>(r.u64());
          s.hi[dd] = static_cast<Index>(r.u64());
          s.stride[dd] = static_cast<Index>(r.u64());
          const Index c = checkedCount(s.lo[dd], s.hi[dd], s.stride[dd]);
          MC_REQUIRE(c == 0 || n <= kMaxIndex / c,
                     "serialized SetOfRegions section overflows Index");
          n *= c;
        }
        set.add(Region::section(s));
        break;
      }
      case Region::Kind::kIndices: {
        std::vector<Index> idx = r.pods<Index>();
        n = static_cast<Index>(idx.size());
        set.add(Region::indices(std::move(idx)));
        break;
      }
      case Region::Kind::kRange: {
        const auto lo = static_cast<Index>(r.u64());
        const auto hi = static_cast<Index>(r.u64());
        const auto stride = static_cast<Index>(r.u64());
        n = checkedCount(lo, hi, stride);
        set.add(Region::range(lo, hi, stride));
        break;
      }
    }
    MC_REQUIRE(n <= kMaxIndex - total,
               "serialized SetOfRegions overflows Index");
    total += n;
  }
  r.requireEnd("serialized SetOfRegions");
  return set;
}

}  // namespace mc::core
