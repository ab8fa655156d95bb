// Unit tests for Meta-Chaos regions, SetOfRegions, serialization, registry,
// and adapter inquiry functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/tulip_adapter.h"
#include "core/registry.h"
#include "fuzz_decoder.h"
#include "transport/world.h"

namespace mc::core {
namespace {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::World;

TEST(Region, SectionCount) {
  const Region r = Region::section(RegularSection::of({0, 0}, {4, 9}, {1, 2}));
  EXPECT_EQ(r.kind(), Region::Kind::kSection);
  EXPECT_EQ(r.numElements(), 25);
  EXPECT_THROW(r.asIndices(), Error);
  EXPECT_THROW(r.asRange(), Error);
}

TEST(Region, IndicesCount) {
  const Region r = Region::indices({5, 3, 9, 9, 1});
  EXPECT_EQ(r.kind(), Region::Kind::kIndices);
  EXPECT_EQ(r.numElements(), 5);  // listed order, duplicates allowed by count
  EXPECT_THROW(r.asSection(), Error);
}

TEST(Region, RangeCount) {
  const Region r = Region::range(2, 10, 3);  // 2, 5, 8
  EXPECT_EQ(r.numElements(), 3);
  EXPECT_EQ(r.asRange().at(2), 8);
  EXPECT_THROW(Region::range(0, 5, 0), Error);
}

TEST(Region, EmptyRange) {
  EXPECT_EQ(Region::range(5, 4).numElements(), 0);
}

TEST(SetOfRegions, ConcatenatesCounts) {
  SetOfRegions set;
  set.add(Region::section(RegularSection::box({0, 0}, {2, 2})));
  set.add(Region::section(RegularSection::box({5, 5}, {6, 8})));
  EXPECT_EQ(set.numElements(), 9 + 8);
  EXPECT_EQ(set.kind(), Region::Kind::kSection);
}

TEST(SetOfRegions, RejectsMixedKinds) {
  SetOfRegions set;
  set.add(Region::indices({1, 2}));
  EXPECT_THROW(set.add(Region::range(0, 3)), Error);
}

TEST(SetOfRegions, EmptyHasNoKind) {
  SetOfRegions set;
  EXPECT_EQ(set.numElements(), 0);
  EXPECT_THROW(set.kind(), Error);
}

TEST(SetOfRegions, SerializationRoundTrip) {
  {
    SetOfRegions set;
    set.add(Region::section(RegularSection::of({1, 2}, {9, 8}, {2, 3})));
    set.add(Region::section(RegularSection::box({0, 0}, {3, 3})));
    const SetOfRegions back = deserializeSet(serializeSet(set));
    ASSERT_EQ(back.regions().size(), 2u);
    EXPECT_EQ(back.regions()[0].asSection(),
              RegularSection::of({1, 2}, {9, 8}, {2, 3}));
    EXPECT_EQ(back.numElements(), set.numElements());
  }
  {
    SetOfRegions set;
    set.add(Region::indices({7, 1, 4}));
    const std::vector<std::byte> bytes = serializeSet(set);
    // The wire form another program reads: one 8-byte word per field.
    const Index words[] = {1, static_cast<Index>(Region::Kind::kIndices), 3,
                           7, 1, 4};
    const auto expect = std::as_bytes(std::span<const Index>(words));
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expect.begin(),
                           expect.end()));
    const SetOfRegions back = deserializeSet(bytes);
    EXPECT_EQ(back.regions()[0].asIndices(), (std::vector<Index>{7, 1, 4}));
  }
  {
    SetOfRegions set;
    set.add(Region::range(3, 30, 4));
    const SetOfRegions back = deserializeSet(serializeSet(set));
    EXPECT_EQ(back.regions()[0].asRange().stride, 4);
    EXPECT_EQ(back.numElements(), set.numElements());
  }
}

TEST(SetOfRegions, DeserializeRejectsGarbage) {
  std::vector<std::byte> junk(13, std::byte{0x5a});
  EXPECT_THROW(deserializeSet(junk), Error);
  // One index region whose count does not fit the remaining bytes: huge
  // and negative counts must fail validation, not the allocator.
  for (const Index count : {Index{1} << 40, Index{-1}}) {
    const Index words[] = {1, static_cast<Index>(Region::Kind::kIndices),
                           count};
    const auto blob = std::as_bytes(std::span<const Index>(words));
    EXPECT_THROW(deserializeSet(blob), Error) << "count " << count;
  }
  constexpr Index kSection = static_cast<Index>(Region::Kind::kSection);
  constexpr Index kRange = static_cast<Index>(Region::Kind::kRange);
  constexpr Index kMin = std::numeric_limits<Index>::min();
  constexpr Index kMax = std::numeric_limits<Index>::max();
  // Each blob must fail at decode: accepted, it would make numElements()
  // divide by zero or overflow.  Words: region count, kind, then fields.
  const std::vector<std::vector<Index>> bad = {
      {1, 3, 0, 0, 0},                 // unknown region kind
      {1, kSection, 1, 0, 9, 0},       // section stride 0
      {1, kSection, 1, 0, 9, -2},      // negative section stride
      {1, kSection, 1, kMin, 9, 1},    // lo = INT64_MIN: hi - lo overflows
      {1, kSection, 2, 0, kMax - 1, 1, 0, 3, 1},  // rows x cols overflows
      {1, kRange, 0, 9, 0},            // range stride 0
      {1, kRange, kMin, kMax, 1},      // range count overflows
      {2, kRange, 0, kMax - 1, 1, kRange, 0, kMax - 1, 1},  // sum overflows
  };
  for (const std::vector<Index>& words : bad) {
    const auto blob = std::as_bytes(std::span<const Index>(words));
    EXPECT_THROW(deserializeSet(blob), Error)
        << "blob of " << words.size() << " words";
  }
}

// A set decodes or throws mc::Error for every prefix and byte flip, and a
// decoded set's element count is always defined.
TEST(SetOfRegions, DecoderSurvivesFuzz) {
  SetOfRegions sections;
  sections.add(Region::section(RegularSection::of({1, 2}, {9, 8}, {2, 3})));
  sections.add(Region::section(RegularSection::box({0, 0}, {3, 3})));
  SetOfRegions indices;
  indices.add(Region::indices({7, 1, 4}));
  indices.add(Region::indices({}));
  SetOfRegions ranges;
  ranges.add(Region::range(3, 30, 4));
  ranges.add(Region::range(0, 9));
  for (const SetOfRegions* set : {&sections, &indices, &ranges}) {
    fuzzDecoder(serializeSet(*set), [](std::span<const std::byte> bytes) {
      EXPECT_GE(deserializeSet(bytes).numElements(), 0);
    });
  }
}

// Malformed library descriptors from another program must fail at decode,
// not at the first ownership query (where some would divide by zero).
TEST(DescriptorCodec, RejectsMalformedDescriptors) {
  registerBuiltinAdapters();
  const auto expectRejected = [](const char* library,
                                 const std::vector<Index>& words) {
    const auto blob = std::as_bytes(std::span<const Index>(words));
    EXPECT_THROW(Registry::instance().get(library).deserializeDesc(blob),
                 Error)
        << library << " descriptor of " << words.size() << " words";
  };
  // pC++: size, processor count, placement.
  expectRejected("pc++", {10, 0, 0});   // no processors
  expectRejected("pc++", {10, 2, 9});   // unknown placement
  expectRejected("pc++", {-1, 2, 0});   // negative size
  // HPF: rank, extents, then per dimension kind, processors, block size.
  expectRejected("hpf", {1, 10, 7, 1, 1});    // unknown DistKind
  expectRejected("hpf", {1, -5, 0, 1, 1});    // negative extent
  expectRejected("hpf", {1, 10, 2, 1, 0});    // CYCLIC(0)
  expectRejected("hpf", {2, 10, 10, 0, 1 << 16, 1, 0, 1 << 16, 1});
  // Parti: rank, extents, grid, ghost width.
  expectRejected("parti", {0, 0});               // rank 0
  expectRejected("parti", {1, -3, 1, 0});        // negative extent
  expectRejected("parti", {1, 12, 0, 0});        // empty grid axis
  expectRejected("parti", {1, 12, 2, -1});       // negative ghost width
  expectRejected("parti", {2, 8, 8, 1 << 16, 1 << 16, 0});  // grid overflow
}

TEST(Registry, BuiltinsRegistered) {
  registerBuiltinAdapters();
  Registry& r = Registry::instance();
  for (const char* name : {"parti", "hpf", "chaos", "pc++"}) {
    EXPECT_EQ(r.get(name).name(), name);
  }
  EXPECT_THROW(r.get("petsc"), Error);
}

TEST(DistObject, TypeSafety) {
  auto desc = std::make_shared<const tulip::TulipDesc>(
      tulip::TulipDesc{10, 2, tulip::Placement::kBlock});
  DistObject obj("pc++", desc);
  EXPECT_EQ(obj.as<tulip::TulipDesc>().size, 10);
  EXPECT_THROW(obj.as<hpfrt::HpfDist>(), Error);
}

TEST(PartiAdapter, EnumerationOrderIsRowMajorConcat) {
  // Mirrors the paper's Figures 4-5: two regions rA1, rA2 of array A; the
  // set linearization is rA1's row-major order followed by rA2's.
  const PartiAdapter adapter;
  auto desc = std::make_shared<const parti::PartiDesc>(
      parti::PartiDesc{layout::BlockDecomp(Shape::of({7, 9}), {1, 1}), 0});
  const DistObject obj("parti", desc);
  SetOfRegions set;
  // rA1 = rows 1..3, cols 4..6 (0-based for the paper's a25..a47 block)
  set.add(Region::section(RegularSection::box({1, 4}, {3, 6})));
  // rA2 = rows 2..5, cols 1..2
  set.add(Region::section(RegularSection::box({2, 1}, {5, 2})));
  std::vector<std::pair<Index, Index>> seen;  // (lin, offset)
  adapter.enumerateRangeRuns(
      obj, set, 0, set.numElements(),
      [&](Index lin, int owner, Index off, Index count, Index offStride) {
        EXPECT_EQ(owner, 0);
        for (Index k = 0; k < count; ++k) {
          seen.emplace_back(lin + k, off + k * offStride);
        }
      });
  ASSERT_EQ(seen.size(), 9u + 8u);
  // First element of the linearization is a(1,4) -> offset 1*9+4.
  EXPECT_EQ(seen[0], (std::pair<Index, Index>{0, 13}));
  // Last of rA1 is a(3,6) -> 33; first of rA2 is a(2,1) -> 19.
  EXPECT_EQ(seen[8], (std::pair<Index, Index>{8, 33}));
  EXPECT_EQ(seen[9], (std::pair<Index, Index>{9, 19}));
  // Positions strictly increase.
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, static_cast<Index>(i));
  }
}

TEST(PartiAdapter, ValidateBounds) {
  const PartiAdapter adapter;
  auto desc = std::make_shared<const parti::PartiDesc>(
      parti::PartiDesc{layout::BlockDecomp(Shape::of({4, 4}), {1, 1}), 0});
  const DistObject obj("parti", desc);
  SetOfRegions bad;
  bad.add(Region::section(RegularSection::box({0, 0}, {4, 3})));
  EXPECT_THROW(adapter.validate(obj, bad), Error);
  SetOfRegions wrongKind;
  wrongKind.add(Region::indices({0}));
  EXPECT_THROW(adapter.validate(obj, wrongKind), Error);
}

TEST(HpfAdapter, DescriptorRoundTrip) {
  World::runSPMD(1, [](Comm& c) {
    const HpfAdapter adapter;
    auto dist = std::make_shared<const hpfrt::HpfDist>(
        Shape::of({12, 8}),
        std::vector<hpfrt::DimDist>{
            hpfrt::DimDist{hpfrt::DistKind::kBlockCyclic, 1, 3},
            hpfrt::DimDist{hpfrt::DistKind::kCyclic, 1, 1}});
    const DistObject obj("hpf", dist);
    const DistObject back =
        adapter.deserializeDesc(adapter.serializeDesc(obj, c));
    const auto& d = back.as<hpfrt::HpfDist>();
    EXPECT_EQ(d.globalShape(), Shape::of({12, 8}));
    EXPECT_EQ(d.dims()[0].kind, hpfrt::DistKind::kBlockCyclic);
    EXPECT_EQ(d.dims()[0].param, 3);
  });
}

TEST(PartiAdapter, DescriptorRoundTrip) {
  World::runSPMD(1, [](Comm& c) {
    const PartiAdapter adapter;
    auto desc = std::make_shared<const parti::PartiDesc>(
        parti::PartiDesc{layout::BlockDecomp(Shape::of({16, 32}), {2, 2}), 2});
    const DistObject obj("parti", desc);
    const DistObject back =
        adapter.deserializeDesc(adapter.serializeDesc(obj, c));
    const auto& d = back.as<parti::PartiDesc>();
    EXPECT_EQ(d.ghost, 2);
    EXPECT_EQ(d.decomp.grid(), (std::vector<int>{2, 2}));
    EXPECT_EQ(d.decomp.globalShape(), Shape::of({16, 32}));
  });
}

TEST(TulipAdapter, DescriptorRoundTrip) {
  World::runSPMD(1, [](Comm& c) {
    const TulipAdapter adapter;
    auto desc = std::make_shared<const tulip::TulipDesc>(
        tulip::TulipDesc{100, 4, tulip::Placement::kCyclic});
    const DistObject obj("pc++", desc);
    const DistObject back =
        adapter.deserializeDesc(adapter.serializeDesc(obj, c));
    const auto& d = back.as<tulip::TulipDesc>();
    EXPECT_EQ(d.size, 100);
    EXPECT_EQ(d.placement, tulip::Placement::kCyclic);
  });
}

TEST(ChaosAdapter, DescriptorRoundTripShipsWholeTable) {
  World::runSPMD(2, [](Comm& c) {
    const ChaosAdapter adapter;
    const Index n = 30;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 11);
    auto table = std::make_shared<const chaos::TranslationTable>(
        chaos::TranslationTable::build(
            c, mine, n, chaos::TranslationTable::Storage::kDistributed));
    const DistObject obj("chaos", table);
    const auto bytes = adapter.serializeDesc(obj, c);
    // O(global size): the cost the paper flags for duplication with Chaos.
    EXPECT_GE(bytes.size(), n * sizeof(chaos::ElementLoc));
    const DistObject back = adapter.deserializeDesc(bytes);
    const auto& t = back.as<chaos::TranslationTable>();
    EXPECT_EQ(t.storage(), chaos::TranslationTable::Storage::kReplicated);
    EXPECT_EQ(t.globalSize(), n);
    for (Index g = 0; g < n; ++g) {
      const auto want = table->dereference(c, std::vector<Index>{g})[0];
      EXPECT_EQ(t.dereferenceLocal(g), want);
    }
  });
}

}  // namespace
}  // namespace mc::core
