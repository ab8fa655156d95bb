// Differential property suite for the run-native schedule builder.
//
// The Meta-Chaos builder's run-native interval join is checked against the
// element-wise reference builder (tests/oracle/elementwise_builder.h).
// They must produce bitwise identical schedules — same peers and the exact
// same run lists (the oracle compresses its element-wise plans last) — for
// every ordered library pair, both build methods, intra- and
// inter-program, and for adversarial irregular index sets (stride-0
// fan-out, descending runs, singletons straddling chunk boundaries).  Also
// checks the adapter run-enumeration contract: expanded run streams equal
// the element streams.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/tulip_adapter.h"
#include "core/data_move.h"
#include "oracle/elementwise_builder.h"
#include "transport/world.h"
#include "util/rng.h"

namespace mc::core {
namespace {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::ProgramSpec;
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

constexpr Index kSetElems = 48;

double valueOf(Index globalId) {
  return 1000.0 + static_cast<double>(globalId);
}

/// A live distributed container plus a region set of kSetElems elements.
struct Instance {
  DistObject obj;
  SetOfRegions set;
  std::vector<Index> setGlobalIds;  // linearization position -> global id
  std::function<std::span<double>()> raw;
  std::function<std::vector<double>()> gather;  // by global id
  std::shared_ptr<void> holder;
};

Instance makeParti(Comm& c) {
  auto arr = std::make_shared<parti::BlockDistArray<double>>(
      c, Shape::of({10, 12}), /*ghost=*/1);
  arr->fillByPoint([](const Point& p) { return valueOf(p[0] * 12 + p[1]); });
  Instance inst{PartiAdapter::describe(*arr),
                SetOfRegions{},
                {},
                [arr]() { return arr->raw(); },
                [arr]() { return arr->gatherGlobal(); },
                arr};
  const RegularSection r1 = RegularSection::box({1, 2}, {4, 9});
  const RegularSection r2 = RegularSection::of({5, 0}, {8, 9}, {1, 3});
  inst.set.add(Region::section(r1));
  inst.set.add(Region::section(r2));
  for (const RegularSection* r : {&r1, &r2}) {
    r->forEach([&](const Point& p, Index) {
      inst.setGlobalIds.push_back(p[0] * 12 + p[1]);
    });
  }
  MC_CHECK(static_cast<Index>(inst.setGlobalIds.size()) == kSetElems);
  return inst;
}

Instance makeHpf(Comm& c) {
  // CYCLIC(4) along the last dimension so section rows split at k-block
  // boundaries — the hardest case for the run enumerator.
  auto arr = std::make_shared<hpfrt::HpfArray<double>>(
      c, hpfrt::HpfDist(
             Shape::of({9, 30}),
             {hpfrt::DimDist{hpfrt::DistKind::kBlock, 1, 1},
              hpfrt::DimDist{hpfrt::DistKind::kBlockCyclic, c.size(), 4}}));
  arr->fillByPoint([](const Point& p) { return valueOf(p[0] * 30 + p[1]); });
  Instance inst{HpfAdapter::describe(*arr),
                SetOfRegions{},
                {},
                [arr]() { return arr->raw(); },
                [arr]() { return arr->gatherGlobal(); },
                arr};
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
  inst.set.add(Region::range(2, 96, 2));  // stride 2: per-element for CYCLIC
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

/// Asserts the element-wise reference schedule and the run-native schedule
/// describe identical plans: same peers and identical run lists (the
/// reference lists elements one at a time and compresses them last; the
/// run-wise greedy equals the element-wise greedy bit for bit).
void expectSameSchedule(const sched::Schedule& elem,
                        const sched::Schedule& run) {
  ASSERT_EQ(elem.sends.size(), run.sends.size());
  for (size_t i = 0; i < elem.sends.size(); ++i) {
    EXPECT_EQ(elem.sends[i].peer, run.sends[i].peer);
    EXPECT_TRUE(elem.sends[i].runs == run.sends[i].runs)
        << "send runs differ for peer " << run.sends[i].peer;
  }
  ASSERT_EQ(elem.recvs.size(), run.recvs.size());
  for (size_t i = 0; i < elem.recvs.size(); ++i) {
    EXPECT_EQ(elem.recvs[i].peer, run.recvs[i].peer);
    EXPECT_TRUE(elem.recvs[i].runs == run.recvs[i].runs)
        << "recv runs differ for peer " << run.recvs[i].peer;
  }
  EXPECT_TRUE(elem.localRuns == run.localRuns) << "local runs differ";
}

struct PairCase {
  Lib src;
  Lib dst;
  Method method;
};

/// Builds with the element-wise oracle when `oracle` is set, else with the
/// run-native builder.
std::vector<sched::Schedule> buildIntraPlans(const PairCase& tc, int np,
                                             bool oracle) {
  std::vector<sched::Schedule> plans(static_cast<size_t>(np));
  World::runSPMD(np, [&](Comm& c) {
    const bool chaosReplicated = tc.method == Method::kDuplication;
    Instance src = makeInstance(tc.src, c, chaosReplicated);
    Instance dst = makeInstance(tc.dst, c, chaosReplicated);
    plans[static_cast<size_t>(c.rank())] =
        (oracle ? elementwise::computeSchedule(c, src.obj, src.set, dst.obj,
                                               dst.set, tc.method)
                : computeSchedule(c, src.obj, src.set, dst.obj, dst.set,
                                  tc.method))
            .plan;
  });
  return plans;
}

class RunJoinDifferentialP : public ::testing::TestWithParam<PairCase> {};

TEST_P(RunJoinDifferentialP, RunNativeMatchesElementwise) {
  const PairCase tc = GetParam();
  constexpr int kProcs = 4;
  const auto elem = buildIntraPlans(tc, kProcs, /*oracle=*/true);
  const auto run = buildIntraPlans(tc, kProcs, /*oracle=*/false);
  for (int r = 0; r < kProcs; ++r) {
    SCOPED_TRACE(std::string(libName(tc.src)) + "->" + libName(tc.dst) +
                 " rank " + std::to_string(r));
    expectSameSchedule(elem[static_cast<size_t>(r)],
                       run[static_cast<size_t>(r)]);
  }
}

std::vector<PairCase> allPairs() {
  std::vector<PairCase> cases;
  for (Lib s : {Lib::kParti, Lib::kHpf, Lib::kChaos, Lib::kTulip}) {
    for (Lib d : {Lib::kParti, Lib::kHpf, Lib::kChaos, Lib::kTulip}) {
      for (Method m : {Method::kCooperation, Method::kDuplication}) {
        cases.push_back(PairCase{s, d, m});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, RunJoinDifferentialP, ::testing::ValuesIn(allPairs()),
    [](const ::testing::TestParamInfo<PairCase>& info) {
      const PairCase& tc = info.param;
      return std::string(libName(tc.src)) + "_to_" + libName(tc.dst) + "_" +
             (tc.method == Method::kCooperation ? "coop" : "dup");
    });

// --- inter-program ----------------------------------------------------------

struct InterPlans {
  std::vector<sched::Schedule> sendSide;
  std::vector<sched::Schedule> recvSide;
};

/// Both programs build with the element-wise oracle when `oracle` is set.
InterPlans buildInterPlans(Method method, bool oracle) {
  constexpr Index kRows = 8, kCols = 8;
  const Index n = kRows * kCols;
  InterPlans out{std::vector<sched::Schedule>(2),
                 std::vector<sched::Schedule>(2)};
  World::run(
      {ProgramSpec{"preg", 2,
                   [&](Comm& c) {
                     parti::BlockDistArray<double> a(
                         c, Shape::of({kRows, kCols}), 1);
                     SetOfRegions set;
                     set.add(Region::section(
                         RegularSection::box({0, 0}, {kRows - 1, kCols - 1})));
                     const DistObject obj = PartiAdapter::describe(a);
                     out.sendSide[static_cast<size_t>(c.rank())] =
                         (oracle ? elementwise::computeScheduleSend(
                                       c, obj, set, /*remoteProgram=*/1, method)
                                 : computeScheduleSend(c, obj, set,
                                                       /*remoteProgram=*/1,
                                                       method))
                             .plan;
                   }},
       ProgramSpec{"pirreg", 2, [&](Comm& c) {
                     const auto storage =
                         method == Method::kDuplication
                             ? chaos::TranslationTable::Storage::kReplicated
                             : chaos::TranslationTable::Storage::kDistributed;
                     const auto mine =
                         chaos::randomPartition(n, c.size(), c.rank(), 3);
                     auto table =
                         std::make_shared<const chaos::TranslationTable>(
                             chaos::TranslationTable::build(c, mine, n,
                                                            storage));
                     chaos::IrregArray<double> x(c, table, mine);
                     SetOfRegions set;
                     std::vector<Index> ids(static_cast<size_t>(n));
                     for (Index k = 0; k < n; ++k) {
                       ids[static_cast<size_t>(k)] = k;
                     }
                     set.add(Region::indices(ids));
                     const DistObject obj = ChaosAdapter::describe(x);
                     out.recvSide[static_cast<size_t>(c.rank())] =
                         (oracle ? elementwise::computeScheduleRecv(
                                       c, obj, set, /*remoteProgram=*/0, method)
                                 : computeScheduleRecv(c, obj, set,
                                                       /*remoteProgram=*/0,
                                                       method))
                             .plan;
                   }}});
  return out;
}

TEST(RunJoinInterProgram, RunNativeMatchesElementwise) {
  for (Method m : {Method::kCooperation, Method::kDuplication}) {
    const InterPlans elem = buildInterPlans(m, /*oracle=*/true);
    const InterPlans run = buildInterPlans(m, /*oracle=*/false);
    for (size_t r = 0; r < 2; ++r) {
      SCOPED_TRACE(std::string(m == Method::kCooperation ? "coop" : "dup") +
                   " rank " + std::to_string(r));
      expectSameSchedule(elem.sendSide[r], run.sendSide[r]);
      expectSameSchedule(elem.recvSide[r], run.recvSide[r]);
    }
  }
}

// --- fuzz: adversarial irregular index sets ---------------------------------

/// Builds a source index multiset with deliberate pathologies: a stride-0
/// fan-out block (one global id repeated), a descending run (negative
/// offset progressions), and single elements straddling the linearization
/// chunk boundaries of a 4-processor build (chunk = 16 for 64 elements).
std::vector<Index> fuzzSrcIds(std::uint64_t seed, Index tableSize,
                              Index count) {
  Rng rng(seed);
  const auto perm = rng.permutation(static_cast<std::uint64_t>(tableSize));
  std::vector<Index> ids(static_cast<size_t>(count));
  for (Index k = 0; k < count; ++k) {
    ids[static_cast<size_t>(k)] = static_cast<Index>(
        perm[static_cast<size_t>(k % tableSize)]);
  }
  // Stride-0 fan-out: positions 2..6 all read the same element.
  for (size_t k = 2; k <= 6; ++k) ids[k] = ids[2];
  // Descending run: positions 8..14.
  for (size_t k = 8; k <= 14; ++k) {
    ids[k] = 20 + static_cast<Index>(14 - k);
  }
  // Singletons at the 4-proc chunk seams (positions 15/16, 31/32, 47/48).
  ids[15] = 3;
  ids[16] = 55;
  ids[31] = 4;
  ids[32] = 54;
  ids[47] = 5;
  ids[48] = 53;
  return ids;
}

TEST(RunJoinFuzz, AdversarialChaosIndexSets) {
  constexpr int kProcs = 4;
  constexpr Index kTable = 96;
  constexpr Index kCount = 64;
  for (std::uint64_t seed : {11u, 29u, 47u}) {
    const std::vector<Index> srcIds = fuzzSrcIds(seed, kTable, kCount);
    Rng rng(seed + 1000);
    const auto dstPerm = rng.permutation(static_cast<std::uint64_t>(kTable));
    std::vector<Index> dstIds(static_cast<size_t>(kCount));
    for (Index k = 0; k < kCount; ++k) {
      dstIds[static_cast<size_t>(k)] =
          static_cast<Index>(dstPerm[static_cast<size_t>(k)]);
    }

    auto build = [&](bool oracle) {
      std::vector<sched::Schedule> plans(kProcs);
      std::vector<double> gathered;
      World::runSPMD(kProcs, [&](Comm& c) {
        const auto srcMine =
            chaos::randomPartition(kTable, c.size(), c.rank(), seed + 11);
        const auto dstMine =
            chaos::randomPartition(kTable, c.size(), c.rank(), seed + 12);
        auto srcTable = std::make_shared<const chaos::TranslationTable>(
            chaos::TranslationTable::build(
                c, srcMine, kTable,
                chaos::TranslationTable::Storage::kDistributed));
        auto dstTable = std::make_shared<const chaos::TranslationTable>(
            chaos::TranslationTable::build(
                c, dstMine, kTable,
                chaos::TranslationTable::Storage::kDistributed));
        chaos::IrregArray<double> src(c, srcTable, srcMine);
        chaos::IrregArray<double> dst(c, dstTable, dstMine);
        src.fillByGlobal([](Index g) { return valueOf(g); });
        dst.fillByGlobal([](Index) { return -1.0; });
        SetOfRegions srcSet, dstSet;
        srcSet.add(Region::indices(srcIds));
        dstSet.add(Region::indices(dstIds));
        const McSchedule sched =
            oracle ? elementwise::computeSchedule(
                         c, ChaosAdapter::describe(src), srcSet,
                         ChaosAdapter::describe(dst), dstSet)
                   : computeSchedule(c, ChaosAdapter::describe(src), srcSet,
                                     ChaosAdapter::describe(dst), dstSet);
        plans[static_cast<size_t>(c.rank())] = sched.plan;
        dataMove<double>(c, sched, src.raw(), dst.raw());
        if (c.rank() == 0) gathered = dst.gatherGlobal();
        else (void)dst.gatherGlobal();
      });
      return std::make_pair(std::move(plans), std::move(gathered));
    };

    const auto elem = build(/*oracle=*/true);
    const auto run = build(/*oracle=*/false);
    for (int r = 0; r < kProcs; ++r) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " rank " +
                   std::to_string(r));
      expectSameSchedule(elem.first[static_cast<size_t>(r)],
                         run.first[static_cast<size_t>(r)]);
    }
    // Oracle on the run-native execution: destination id dstIds[k] holds
    // the source value at the same linearization position k.
    std::map<Index, double> expect;
    for (Index k = 0; k < kCount; ++k) {
      expect[dstIds[static_cast<size_t>(k)]] =
          valueOf(srcIds[static_cast<size_t>(k)]);
    }
    ASSERT_EQ(run.second.size(), static_cast<size_t>(kTable));
    for (size_t g = 0; g < run.second.size(); ++g) {
      const auto it = expect.find(static_cast<Index>(g));
      const double want = it != expect.end() ? it->second : -1.0;
      EXPECT_DOUBLE_EQ(run.second[g], want) << "global " << g;
    }
  }
}

// --- adapter run-enumeration contract ---------------------------------------

using Elem = std::tuple<Index, int, Index>;  // lin, owner, offset

TEST(RunEnumerationContract, RangeRunsExpandToElementStream) {
  World::runSPMD(4, [](Comm& c) {
    registerBuiltinAdapters();
    for (Lib lib : {Lib::kParti, Lib::kHpf, Lib::kChaos, Lib::kTulip}) {
      SCOPED_TRACE(libName(lib));
      Instance inst = makeInstance(lib, c, /*chaosReplicated=*/true);
      const LibraryAdapter& ad = Registry::instance().get(inst.obj.library());
      const Index n = inst.set.numElements();
      std::vector<Elem> elems;
      ad.enumerateAll(inst.obj, inst.set,
                      [&](Index lin, int owner, Index off) {
                        elems.emplace_back(lin, owner, off);
                      });
      // Expand runs over an uneven range split; cut points land mid-row and
      // mid-block so the enumerators must clip runs correctly.
      std::vector<Elem> expanded;
      const std::vector<Index> cuts = {0, 7, n / 3, n / 2, n};
      for (size_t i = 0; i + 1 < cuts.size(); ++i) {
        ad.enumerateRangeRuns(
            inst.obj, inst.set, cuts[i], cuts[i + 1],
            [&](Index lin, int owner, Index off, Index count,
                Index offStride) {
              EXPECT_GT(count, 0);
              for (Index k = 0; k < count; ++k) {
                expanded.emplace_back(lin + k, owner, off + k * offStride);
              }
            });
      }
      EXPECT_EQ(elems, expanded);
    }
  });
}

TEST(RunEnumerationContract, OwnedRunsExpandToOwnedElements) {
  World::runSPMD(4, [](Comm& c) {
    registerBuiltinAdapters();
    // Distributed-chaos last: its enumerateOwned is collective, so keep the
    // call order identical on every rank.
    for (bool chaosReplicated : {true, false}) {
      for (Lib lib : {Lib::kParti, Lib::kHpf, Lib::kChaos, Lib::kTulip}) {
        if (!chaosReplicated && lib != Lib::kChaos) continue;
        SCOPED_TRACE(std::string(libName(lib)) +
                     (chaosReplicated ? "" : " (distributed)"));
        Instance inst = makeInstance(lib, c, chaosReplicated);
        const LibraryAdapter& ad =
            Registry::instance().get(inst.obj.library());
        const std::vector<LinRun> runs =
            ad.enumerateOwnedRuns(inst.obj, inst.set, c);
        const std::vector<LinLoc> owned =
            ad.enumerateOwned(inst.obj, inst.set, c);
        std::vector<std::pair<Index, Index>> expanded;
        for (const LinRun& run : runs) {
          EXPECT_GT(run.count, 0);
          for (Index k = 0; k < run.count; ++k) {
            expanded.emplace_back(run.lin + k, run.off + k * run.offStride);
          }
        }
        std::vector<std::pair<Index, Index>> want;
        for (const LinLoc& ll : owned) want.emplace_back(ll.lin, ll.offset);
        EXPECT_EQ(expanded, want);
      }
    }
  });
}

}  // namespace
}  // namespace mc::core
