// Contract tests every library adapter must satisfy: the run inquiry
// (enumerateRangeRuns) covers every position once and expands to the
// element-wise reference (tests/oracle/element_reference.h) on every window,
// the reference's windows agree with its whole walk, descriptor round-trips
// preserve the runs, descriptor decoders survive byte-level fuzz, and
// modeled-cost accounting holds.  The collective chunk inquiry is checked
// against the same reference in test_run_join.
#include <gtest/gtest.h>

#include <tuple>

#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/tulip_adapter.h"
#include "core/registry.h"
#include "core/schedule_builder.h"
#include "fuzz_decoder.h"
#include "oracle/element_reference.h"
#include "transport/world.h"

namespace mc::core {
namespace {

using layout::Index;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::World;

struct Fixture {
  DistObject obj;
  SetOfRegions set;
};

/// Builds a representative (descriptor, set) fixture per library, living in
/// a 4-processor program.  Multi-region sets with strides stress the
/// linearization bookkeeping.
Fixture makeFixture(const std::string& lib, Comm& c) {
  if (lib == "parti") {
    auto desc = std::make_shared<const parti::PartiDesc>(
        parti::PartiDesc{layout::BlockDecomp::regular(Shape::of({12, 18}), c.size()), 1});
    SetOfRegions set;
    set.add(Region::section(RegularSection::of({1, 0}, {10, 17}, {3, 2})));
    set.add(Region::section(RegularSection::box({0, 5}, {3, 9})));
    return Fixture{DistObject("parti", desc), std::move(set)};
  }
  if (lib == "hpf") {
    auto dist = std::make_shared<const hpfrt::HpfDist>(
        Shape::of({10, 21}),
        std::vector<hpfrt::DimDist>{
            hpfrt::DimDist{hpfrt::DistKind::kCyclic, c.size(), 1},
            hpfrt::DimDist{hpfrt::DistKind::kBlockCyclic, 1, 4}});
    SetOfRegions set;
    set.add(Region::section(RegularSection::of({0, 1}, {9, 19}, {2, 3})));
    return Fixture{DistObject("hpf", dist), std::move(set)};
  }
  if (lib == "chaos") {
    const Index n = 50;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 77);
    auto table = std::make_shared<const chaos::TranslationTable>(
        chaos::TranslationTable::build(
            c, mine, n, chaos::TranslationTable::Storage::kReplicated));
    SetOfRegions set;
    std::vector<Index> a, b;
    for (Index k = 0; k < 20; ++k) a.push_back((k * 7) % n);
    for (Index k = 0; k < 15; ++k) b.push_back((3 + k * 11) % n);
    set.add(Region::indices(a));
    set.add(Region::indices(b));
    return Fixture{DistObject("chaos", table), std::move(set)};
  }
  auto desc = std::make_shared<const tulip::TulipDesc>(
      tulip::TulipDesc{64, c.size(), tulip::Placement::kCyclic});
  SetOfRegions set;
  set.add(Region::range(3, 60, 3));
  set.add(Region::range(0, 9));
  return Fixture{DistObject("pc++", desc), std::move(set)};
}

class AdapterContractP : public ::testing::TestWithParam<const char*> {};

using Elem = std::tuple<Index, int, Index>;  // lin, owner, offset

/// The reference's stream for positions [lo, hi).
std::vector<Elem> referenceElems(const Fixture& f, Index lo, Index hi) {
  std::vector<Elem> out;
  elementwise::forEachElement(f.obj, f.set, lo, hi,
                              [&](Index lin, int owner, Index off) {
                                out.emplace_back(lin, owner, off);
                              });
  return out;
}

/// The adapter's runs for positions [lo, hi).
std::vector<LinRun> runsOf(const DistObject& obj, const SetOfRegions& set,
                           Index lo, Index hi) {
  std::vector<LinRun> out;
  adapterFor(obj).enumerateRangeRuns(
      obj, set, lo, hi,
      [&](Index lin, int owner, Index off, Index count, Index offStride) {
        out.push_back(LinRun{lin, off, count, offStride, owner});
      });
  return out;
}

/// The adapter's runs for positions [lo, hi), expanded element by element.
std::vector<Elem> expandedRuns(const DistObject& obj, const SetOfRegions& set,
                               Index lo, Index hi) {
  std::vector<Elem> out;
  for (const LinRun& r : runsOf(obj, set, lo, hi)) {
    EXPECT_GT(r.count, 0);
    for (Index k = 0; k < r.count; ++k) {
      out.emplace_back(r.lin + k, static_cast<int>(r.owner),
                       r.off + k * r.offStride);
    }
  }
  return out;
}

TEST_P(AdapterContractP, RangeRunsCoverEveryPositionOnce) {
  World::runSPMD(4, [&](Comm& c) {
    const Fixture f = makeFixture(GetParam(), c);
    const Index n = f.set.numElements();
    ASSERT_GT(n, 0);
    const std::vector<Elem> got = expandedRuns(f.obj, f.set, 0, n);
    ASSERT_EQ(got.size(), static_cast<size_t>(n));
    for (Index k = 0; k < n; ++k) {
      const auto& [lin, owner, off] = got[static_cast<size_t>(k)];
      EXPECT_EQ(lin, k);
      EXPECT_GE(owner, 0);
      EXPECT_LT(owner, c.size());
      EXPECT_GE(off, 0);
    }
    EXPECT_EQ(got, referenceElems(f, 0, n));
  });
}

TEST_P(AdapterContractP, RangeRunsMatchTheReference) {
  World::runSPMD(4, [&](Comm& c) {
    const Fixture f = makeFixture(GetParam(), c);
    const Index n = f.set.numElements();
    const std::vector<Elem> all = referenceElems(f, 0, n);
    // Every window, including empty, degenerate and cross-region ones.
    for (const auto& [lo, hi] : {std::pair<Index, Index>{0, n},
                                {0, 1},
                                {n - 1, n},
                                {n / 3, 2 * n / 3},
                                {5, 5},
                                {n, n}}) {
      SCOPED_TRACE("window [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + ")");
      const std::vector<Elem> want(all.begin() + lo, all.begin() + hi);
      EXPECT_EQ(expandedRuns(f.obj, f.set, lo, hi), want);
    }
  });
}

// The reference itself: its windows over an uneven split, cut mid-row and
// mid-region, concatenate to its whole walk, so a broken range clip in the
// reference cannot mask a broken adapter.
TEST_P(AdapterContractP, ReferenceRangesConcatenateToTheWhole) {
  World::runSPMD(4, [&](Comm& c) {
    const Fixture f = makeFixture(GetParam(), c);
    const Index n = f.set.numElements();
    const std::vector<Index> cuts = {0, 1, 7, 7, n / 3, n / 2, n - 1, n};
    std::vector<Elem> pieces;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::vector<Elem> piece = referenceElems(f, cuts[i], cuts[i + 1]);
      pieces.insert(pieces.end(), piece.begin(), piece.end());
    }
    EXPECT_EQ(pieces, referenceElems(f, 0, n));
  });
}

TEST_P(AdapterContractP, DescriptorRoundTripPreservesRuns) {
  World::runSPMD(4, [&](Comm& c) {
    const Fixture f = makeFixture(GetParam(), c);
    const LibraryAdapter& lib = adapterFor(f.obj);
    const DistObject back =
        lib.deserializeDesc(lib.serializeDesc(f.obj, c));
    const Index n = f.set.numElements();
    const std::vector<LinRun> runs = runsOf(f.obj, f.set, 0, n);
    EXPECT_FALSE(runs.empty());
    EXPECT_EQ(runsOf(back, f.set, 0, n), runs);
  });
}

// A shipped descriptor decodes or throws mc::Error for every prefix and
// byte flip (the Chaos table travels framed, so flips fail its checksum).
TEST_P(AdapterContractP, DescriptorDecoderSurvivesFuzz) {
  World::runSPMD(4, [&](Comm& c) {
    const Fixture f = makeFixture(GetParam(), c);
    const LibraryAdapter& lib = adapterFor(f.obj);
    const std::vector<std::byte> bytes = lib.serializeDesc(f.obj, c);
    if (c.rank() != 0) return;
    fuzzDecoder(bytes, [&](std::span<const std::byte> d) {
      (void)lib.localFingerprint(lib.deserializeDesc(d));
    });
  });
}

TEST_P(AdapterContractP, ValidateAcceptsItsOwnFixture) {
  World::runSPMD(4, [&](Comm& c) {
    const Fixture f = makeFixture(GetParam(), c);
    const LibraryAdapter& lib = adapterFor(f.obj);
    EXPECT_NO_THROW(lib.validate(f.obj, f.set));
  });
}

INSTANTIATE_TEST_SUITE_P(AllLibraries, AdapterContractP,
                         ::testing::Values("parti", "hpf", "chaos", "tulip"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(ModeledCosts, DereferenceChargesVirtualTime) {
  World::runSPMD(2, [](Comm& c) {
    const Index n = 100;
    const auto mine = chaos::blockPartition(n, c.size(), c.rank());
    const auto table = chaos::TranslationTable::build(
        c, mine, n, chaos::TranslationTable::Storage::kDistributed,
        /*modeledQueryCostSeconds=*/1e-3);
    std::vector<Index> queries;
    for (Index k = 0; k < 50; ++k) queries.push_back((k * 3) % n);
    c.barrier();
    const double before = c.now();
    (void)table.dereference(c, queries);
    c.barrier();
    const double after = c.now();
    // 2 procs x 50 queries, spread over the answerers: at least 50 ms of
    // modeled lookup work lands on the slowest processor.
    EXPECT_GE(after - before, 50e-3);
  });
}

TEST(ModeledCosts, ZeroCostChargesNothingExtra) {
  World::runSPMD(2, [](Comm& c) {
    const Index n = 100;
    const auto mine = chaos::blockPartition(n, c.size(), c.rank());
    const auto table = chaos::TranslationTable::build(
        c, mine, n, chaos::TranslationTable::Storage::kReplicated);
    const double before = c.now();
    (void)table.dereference(c, mine);
    EXPECT_DOUBLE_EQ(c.now(), before);  // replicated, zero modeled cost
  });
}

TEST(ModeledCosts, DuplicationChargesTwice) {
  World::runSPMD(2, [](Comm& c) {
    const Index n = 64;
    const auto mine = chaos::blockPartition(n, c.size(), c.rank());
    auto table = std::make_shared<const chaos::TranslationTable>(
        chaos::TranslationTable::build(
            c, mine, n, chaos::TranslationTable::Storage::kReplicated,
            /*modeledQueryCostSeconds=*/1e-3));
    chaos::IrregArray<double> x(c, table, mine);
    auto desc = std::make_shared<const tulip::TulipDesc>(
        tulip::TulipDesc{n, c.size(), tulip::Placement::kBlock});
    SetOfRegions srcSet, dstSet;
    std::vector<Index> ids(static_cast<size_t>(n));
    for (Index k = 0; k < n; ++k) ids[static_cast<size_t>(k)] = k;
    srcSet.add(Region::indices(ids));
    dstSet.add(Region::range(0, n - 1));
    c.barrier();
    const double before = c.now();
    (void)computeSchedule(c, ChaosAdapter::describe(x), srcSet,
                          DistObject("pc++", desc), dstSet,
                          Method::kDuplication);
    c.barrier();
    const double after = c.now();
    // 2 * cost * n / P = 2 * 1e-3 * 64 / 2 = 64 ms of modeled work.
    EXPECT_GE(after - before, 64e-3);
    EXPECT_LT(after - before, 200e-3);
  });
}

}  // namespace
}  // namespace mc::core
