// The central Meta-Chaos property suite: copying data between every ordered
// pair of libraries (parti, hpf, chaos, pc++), with both schedule methods
// (cooperation, duplication) and several processor counts, must equal the
// serial oracle implied by the two linearizations.  Also checks message
// minimality, schedule symmetry, and reuse.
#include <gtest/gtest.h>

#include <map>

#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/tulip_adapter.h"
#include "core/data_move.h"
#include "transport/world.h"
#include "util/rng.h"

namespace mc::core {
namespace {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::World;

enum class Lib { kParti, kHpf, kChaos, kTulip };

const char* libName(Lib l) {
  switch (l) {
    case Lib::kParti: return "parti";
    case Lib::kHpf: return "hpf";
    case Lib::kChaos: return "chaos";
    case Lib::kTulip: return "tulip";
  }
  return "?";
}

/// A live distributed container for one library, with:
///  * a DistObject and a SetOfRegions of exactly kSetElems elements,
///  * element values keyed by *global id* (the container was filled with
///    value(globalId)),
///  * setGlobalIds: linearization position -> global id,
///  * span / gather accessors for the raw local storage.
struct Instance {
  DistObject obj;
  SetOfRegions set;
  std::vector<Index> setGlobalIds;
  std::function<std::span<double>()> raw;
  std::function<std::vector<double>()> gather;  // by global id
  std::shared_ptr<void> holder;                 // keeps the container alive
};

constexpr Index kSetElems = 48;

double valueOf(Index globalId) { return 1000.0 + static_cast<double>(globalId); }

Instance makeParti(Comm& c) {
  auto arr = std::make_shared<parti::BlockDistArray<double>>(
      c, Shape::of({10, 12}), /*ghost=*/1);
  arr->fillByPoint([](const Point& p) {
    return valueOf(p[0] * 12 + p[1]);
  });
  Instance inst{PartiAdapter::describe(*arr),
                SetOfRegions{},
                {},
                [arr]() { return arr->raw(); },
                [arr]() { return arr->gatherGlobal(); },
                arr};
  // Two disjoint regions: a 4x8 box (rows 1-4) and a strided 4x4 patch
  // (rows 5-8) -> 48 elements.  Destination regions must not repeat
  // elements, or the copy's outcome would depend on unpack order.
  const RegularSection r1 = RegularSection::box({1, 2}, {4, 9});
  const RegularSection r2 = RegularSection::of({5, 0}, {8, 9}, {1, 3});
  inst.set.add(Region::section(r1));
  inst.set.add(Region::section(r2));
  r1.forEach([&](const Point& p, Index) {
    inst.setGlobalIds.push_back(p[0] * 12 + p[1]);
  });
  r2.forEach([&](const Point& p, Index) {
    inst.setGlobalIds.push_back(p[0] * 12 + p[1]);
  });
  MC_CHECK(static_cast<Index>(inst.setGlobalIds.size()) == kSetElems);
  return inst;
}

Instance makeHpf(Comm& c) {
  auto arr = std::make_shared<hpfrt::HpfArray<double>>(
      c, hpfrt::HpfDist(
             Shape::of({9, 30}),
             {hpfrt::DimDist{hpfrt::DistKind::kCyclic, c.size(), 1},
              hpfrt::DimDist{hpfrt::DistKind::kBlock, 1, 1}}));
  arr->fillByPoint([](const Point& p) { return valueOf(p[0] * 30 + p[1]); });
  Instance inst{HpfAdapter::describe(*arr),
                SetOfRegions{},
                {},
                [arr]() { return arr->raw(); },
                [arr]() { return arr->gatherGlobal(); },
                arr};
  // 4x12 strided section = 48 elements.
  const RegularSection r = RegularSection::of({1, 3}, {7, 25}, {2, 2});
  inst.set.add(Region::section(r));
  r.forEach([&](const Point& p, Index) {
    inst.setGlobalIds.push_back(p[0] * 30 + p[1]);
  });
  MC_CHECK(static_cast<Index>(inst.setGlobalIds.size()) == kSetElems);
  return inst;
}

Instance makeChaos(Comm& c, bool replicated) {
  const Index n = 60;
  const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 23);
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(
          c, mine, n,
          replicated ? chaos::TranslationTable::Storage::kReplicated
                     : chaos::TranslationTable::Storage::kDistributed));
  auto arr = std::make_shared<chaos::IrregArray<double>>(c, table, mine);
  arr->fillByGlobal([](Index g) { return valueOf(g); });
  Instance inst{ChaosAdapter::describe(*arr),
                SetOfRegions{},
                {},
                [arr]() { return arr->raw(); },
                [arr]() { return arr->gatherGlobal(); },
                arr};
  // 48 distinct indices in a shuffled order (a Chaos region is an index set).
  Rng rng(7);
  auto perm = rng.permutation(static_cast<std::uint64_t>(n));
  std::vector<Index> ids;
  for (Index k = 0; k < kSetElems; ++k) {
    ids.push_back(static_cast<Index>(perm[static_cast<size_t>(k)]));
  }
  inst.set.add(Region::indices(ids));
  inst.setGlobalIds = ids;
  return inst;
}

Instance makeTulip(Comm& c) {
  const Index n = 100;
  auto coll = std::make_shared<tulip::Collection<double>>(
      c, n, tulip::Placement::kCyclic);
  coll->forEachOwned([](Index g, double& v) { v = valueOf(g); });
  Instance inst{TulipAdapter::describe(*coll),
                SetOfRegions{},
                {},
                [coll]() { return coll->raw(); },
                [coll]() { return coll->gatherGlobal(); },
                coll};
  // Elements 2, 4, ..., 96 -> 48 elements.
  inst.set.add(Region::range(2, 96, 2));
  for (Index k = 0; k < kSetElems; ++k) inst.setGlobalIds.push_back(2 + 2 * k);
  return inst;
}

Instance makeInstance(Lib lib, Comm& c, bool chaosReplicated) {
  switch (lib) {
    case Lib::kParti: return makeParti(c);
    case Lib::kHpf: return makeHpf(c);
    case Lib::kChaos: return makeChaos(c, chaosReplicated);
    case Lib::kTulip: return makeTulip(c);
  }
  MC_CHECK(false);
  return makeParti(c);
}

struct PairCase {
  Lib src;
  Lib dst;
  Method method;
  int nprocs;
};

class CopyPairP : public ::testing::TestWithParam<PairCase> {};

TEST_P(CopyPairP, MatchesLinearizationOracle) {
  const PairCase tc = GetParam();
  World::runSPMD(tc.nprocs, [&](Comm& c) {
    // Duplication needs locally enumerable descriptors -> replicated table.
    const bool chaosReplicated = tc.method == Method::kDuplication;
    Instance src = makeInstance(tc.src, c, chaosReplicated);
    Instance dst = makeInstance(tc.dst, c, chaosReplicated);

    const McSchedule sched =
        computeSchedule(c, src.obj, src.set, dst.obj, dst.set, tc.method);
    dataMove<double>(c, sched, src.raw(), dst.raw());

    const auto got = dst.gather();
    // Oracle: dst element at set position k holds src element at position k.
    std::map<Index, double> expect;
    for (Index k = 0; k < kSetElems; ++k) {
      expect[dst.setGlobalIds[static_cast<size_t>(k)]] =
          valueOf(src.setGlobalIds[static_cast<size_t>(k)]);
    }
    for (size_t g = 0; g < got.size(); ++g) {
      const auto it = expect.find(static_cast<Index>(g));
      const double want =
          it != expect.end() ? it->second : valueOf(static_cast<Index>(g));
      EXPECT_DOUBLE_EQ(got[g], want)
          << libName(tc.src) << "->" << libName(tc.dst) << " global " << g;
    }
  });
}

std::vector<PairCase> allPairs() {
  std::vector<PairCase> cases;
  for (Lib s : {Lib::kParti, Lib::kHpf, Lib::kChaos, Lib::kTulip}) {
    for (Lib d : {Lib::kParti, Lib::kHpf, Lib::kChaos, Lib::kTulip}) {
      for (Method m : {Method::kCooperation, Method::kDuplication}) {
        for (int np : {1, 3, 4}) {
          cases.push_back(PairCase{s, d, m, np});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CopyPairP, ::testing::ValuesIn(allPairs()),
    [](const ::testing::TestParamInfo<PairCase>& info) {
      const PairCase& tc = info.param;
      std::string name = std::string(libName(tc.src)) + "_to_" +
                         libName(tc.dst) + "_" +
                         (tc.method == Method::kCooperation ? "coop" : "dup") +
                         "_np" + std::to_string(tc.nprocs);
      for (char& ch : name) {
        if (ch == '+') ch = 'x';
      }
      return name;
    });

TEST(CopyProperties, CooperationAndDuplicationAgree) {
  World::runSPMD(4, [](Comm& c) {
    Instance src = makeInstance(Lib::kParti, c, true);
    Instance dst = makeInstance(Lib::kChaos, c, true);
    const McSchedule coop = computeSchedule(c, src.obj, src.set, dst.obj,
                                            dst.set, Method::kCooperation);
    const McSchedule dup = computeSchedule(c, src.obj, src.set, dst.obj,
                                           dst.set, Method::kDuplication);
    // Identical plans: same peers, same runs in the same order, same local
    // runs.
    ASSERT_EQ(coop.plan.sends.size(), dup.plan.sends.size());
    for (size_t i = 0; i < coop.plan.sends.size(); ++i) {
      EXPECT_EQ(coop.plan.sends[i].peer, dup.plan.sends[i].peer);
      EXPECT_EQ(coop.plan.sends[i].runs, dup.plan.sends[i].runs);
    }
    ASSERT_EQ(coop.plan.recvs.size(), dup.plan.recvs.size());
    for (size_t i = 0; i < coop.plan.recvs.size(); ++i) {
      EXPECT_EQ(coop.plan.recvs[i].peer, dup.plan.recvs[i].peer);
      EXPECT_EQ(coop.plan.recvs[i].runs, dup.plan.recvs[i].runs);
    }
    EXPECT_EQ(coop.plan.localRuns, dup.plan.localRuns);
  });
}

TEST(CopyProperties, AtMostOneMessagePerPair) {
  // The paper: hand-crafted messaging would use exactly the same number of
  // messages; Meta-Chaos aggregates to at most one per processor pair.
  World::runSPMD(4, [](Comm& c) {
    Instance src = makeInstance(Lib::kHpf, c, false);
    Instance dst = makeInstance(Lib::kChaos, c, false);
    const McSchedule sched = computeSchedule(c, src.obj, src.set, dst.obj,
                                             dst.set, Method::kCooperation);
    c.resetStats();
    dataMove<double>(c, sched, src.raw(), dst.raw());
    EXPECT_LE(c.stats().messagesSent, 3u);  // at most P-1 peers
    // Message count equals the number of distinct send peers.
    EXPECT_EQ(c.stats().messagesSent, sched.plan.sends.size());
    EXPECT_EQ(c.stats().messagesReceived, sched.plan.recvs.size());
  });
}

TEST(CopyProperties, ScheduleReusableAcrossMoves) {
  World::runSPMD(3, [](Comm& c) {
    Instance src = makeInstance(Lib::kTulip, c, false);
    Instance dst = makeInstance(Lib::kParti, c, false);
    const McSchedule sched = computeSchedule(c, src.obj, src.set, dst.obj,
                                             dst.set, Method::kCooperation);
    for (int iter = 0; iter < 3; ++iter) {
      // Change source values each time; the same schedule must move them.
      auto s = src.raw();
      for (auto& v : s) v += 1.0;
      dataMove<double>(c, sched, src.raw(), dst.raw());
      const auto got = dst.gather();
      const auto srcImg = src.gather();
      for (Index k = 0; k < kSetElems; ++k) {
        EXPECT_DOUBLE_EQ(
            got[static_cast<size_t>(dst.setGlobalIds[static_cast<size_t>(k)])],
            srcImg[static_cast<size_t>(
                src.setGlobalIds[static_cast<size_t>(k)])]);
      }
    }
  });
}

TEST(CopyProperties, ReversedScheduleCopiesBack) {
  World::runSPMD(4, [](Comm& c) {
    Instance a = makeInstance(Lib::kParti, c, false);
    Instance b = makeInstance(Lib::kHpf, c, false);
    const McSchedule fwd = computeSchedule(c, a.obj, a.set, b.obj, b.set,
                                           Method::kCooperation);
    dataMove<double>(c, fwd, a.raw(), b.raw());
    // Deface the copied section of a, then restore it with the reverse.
    for (auto& v : a.raw()) v = -7.0;
    const McSchedule rev = reverseSchedule(fwd);
    dataMove<double>(c, rev, b.raw(), a.raw());
    const auto got = a.gather();
    for (Index k = 0; k < kSetElems; ++k) {
      const Index g = a.setGlobalIds[static_cast<size_t>(k)];
      EXPECT_DOUBLE_EQ(got[static_cast<size_t>(g)], valueOf(g));
    }
  });
}

TEST(CopyProperties, SizeMismatchRejected) {
  World::runSPMD(2, [](Comm& c) {
    Instance src = makeInstance(Lib::kParti, c, false);
    Instance dst = makeInstance(Lib::kTulip, c, false);
    SetOfRegions small;
    small.add(Region::range(0, 9));
    EXPECT_THROW(
        computeSchedule(c, src.obj, src.set, dst.obj, small,
                        Method::kCooperation),
        Error);
  });
}

TEST(CopyProperties, DuplicationRequiresLocalEnumeration) {
  World::runSPMD(2, [](Comm& c) {
    Instance src = makeInstance(Lib::kChaos, c, /*replicated=*/false);
    Instance dst = makeInstance(Lib::kParti, c, false);
    EXPECT_THROW(
        computeSchedule(c, src.obj, src.set, dst.obj, dst.set,
                        Method::kDuplication),
        Error);
  });
}

TEST(CopyProperties, OverlappingSetsWithinOneArray) {
  // Source and destination can be two sections of the *same* array: the
  // paper's Figure 7 copies SA of A into SB of B, but nothing requires
  // distinct arrays.  (Disjoint sections; MC does direct local copies.)
  World::runSPMD(2, [](Comm& c) {
    auto arr = std::make_shared<parti::BlockDistArray<double>>(
        c, Shape::of({8, 8}), 0);
    arr->fillByPoint([](const Point& p) { return valueOf(p[0] * 8 + p[1]); });
    const DistObject obj = PartiAdapter::describe(*arr);
    SetOfRegions top, bottom;
    top.add(Region::section(RegularSection::box({0, 0}, {3, 7})));
    bottom.add(Region::section(RegularSection::box({4, 0}, {7, 7})));
    const McSchedule sched =
        computeSchedule(c, obj, top, obj, bottom, Method::kCooperation);
    dataMove<double>(c, sched, arr->raw(), arr->raw());
    const auto got = arr->gatherGlobal();
    for (Index i = 0; i < 4; ++i) {
      for (Index j = 0; j < 8; ++j) {
        EXPECT_DOUBLE_EQ(got[static_cast<size_t>((i + 4) * 8 + j)],
                         valueOf(i * 8 + j));
      }
    }
  });
}

}  // namespace
}  // namespace mc::core
