// Traffic invariants of schedule execution (paper Section 4.1.4): a
// schedule ships at most one message per processor pair, carrying exactly
// its plan's elements (no header) at every executor entry point, N
// executions cost exactly N times the traffic of one, and cache reuse does
// not change what goes over the wire.
#include <gtest/gtest.h>

#include <set>

#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/data_move.h"
#include "core/schedule_cache.h"
#include "transport/world.h"

namespace mc::core {
namespace {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::ProgramSpec;
using transport::World;

/// Structural half of the invariant: plans are sorted by peer, peers are
/// distinct and never the executing rank, and no plan is empty (an empty
/// plan would still cost a message).
void expectOneMessagePerPair(const sched::Schedule& plan, int me) {
  for (const auto* list : {&plan.sends, &plan.recvs}) {
    std::set<int> peers;
    for (const sched::OffsetPlan& p : *list) {
      EXPECT_NE(p.peer, me);
      EXPECT_GT(p.elementCount(), 0);
      EXPECT_TRUE(peers.insert(p.peer).second)
          << "two plans for peer " << p.peer;
    }
    for (size_t i = 1; i < list->size(); ++i) {
      EXPECT_LT((*list)[i - 1].peer, (*list)[i].peer);
    }
  }
}

struct Meshes {
  std::shared_ptr<parti::BlockDistArray<double>> a;
  std::shared_ptr<chaos::IrregArray<double>> x;
  DistObject aObj;
  DistObject xObj;
  SetOfRegions aSet;
  SetOfRegions xSet;
};

Meshes makeMeshes(Comm& c) {
  auto a = std::make_shared<parti::BlockDistArray<double>>(c, Shape::of({8, 8}),
                                                           /*ghost=*/1);
  a->fillByPoint(
      [](const Point& p) { return static_cast<double>(p[0] * 8 + p[1]); });
  const Index n = 64;
  const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 11);
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(
          c, mine, n, chaos::TranslationTable::Storage::kDistributed));
  auto x = std::make_shared<chaos::IrregArray<double>>(c, table, mine);
  x->fillByGlobal([](Index) { return 0.0; });
  Meshes m{a,  x, PartiAdapter::describe(*a), ChaosAdapter::describe(*x),
           {}, {}};
  m.aSet.add(Region::section(RegularSection::box({0, 0}, {7, 7})));
  std::vector<Index> ids(64);
  for (Index k = 0; k < 64; ++k) ids[static_cast<size_t>(k)] = k;
  m.xSet.add(Region::indices(ids));
  return m;
}

/// The flat wire contract of one execution: one message per plan, each
/// carrying exactly its plan's elements — a header leaking into a flat
/// message fails the byte count.
void expectFlatWireTraffic(const transport::TrafficStats& one,
                           const sched::Schedule& plan) {
  EXPECT_EQ(one.messagesSent, plan.sends.size());
  EXPECT_EQ(one.messagesReceived, plan.recvs.size());
  EXPECT_EQ(one.bytesSent, sizeof(double) * static_cast<std::uint64_t>(
                                                plan.totalSendElements()));
  EXPECT_EQ(one.bytesReceived, sizeof(double) * static_cast<std::uint64_t>(
                                                    plan.totalRecvElements()));
}

/// Measures one execution of `move`, then kReps more: the first must meet
/// the flat wire contract, the rest must cost exactly kReps times it.
template <typename MoveFn>
void expectNExecutionsCostNTimesOne(Comm& c, const sched::Schedule& plan,
                                    MoveFn&& move) {
  c.barrier();
  c.resetStats();
  move();
  const auto one = c.stats();
  expectFlatWireTraffic(one, plan);

  // N further executions: exactly N times the traffic, no drift.
  const int kReps = 5;
  c.barrier();
  c.resetStats();
  for (int i = 0; i < kReps; ++i) move();
  const auto many = c.stats();
  EXPECT_EQ(many.messagesSent, kReps * one.messagesSent);
  EXPECT_EQ(many.messagesReceived, kReps * one.messagesReceived);
  EXPECT_EQ(many.bytesSent, kReps * one.bytesSent);
  EXPECT_EQ(many.bytesReceived, kReps * one.bytesReceived);
}

TEST(ScheduleInvariants, NExecutionsCostExactlyNTimesOneExecution) {
  World::runSPMD(4, [](Comm& c) {
    Meshes m = makeMeshes(c);
    const McSchedule sched =
        computeSchedule(c, m.aObj, m.aSet, m.xObj, m.xSet);
    expectOneMessagePerPair(sched.plan, c.rank());
    const std::span<const double> src = m.a->raw();
    // Blocking and split-phase entry points put identical bytes on the wire.
    expectNExecutionsCostNTimesOne(c, sched.plan, [&] {
      dataMove<double>(c, sched, src, m.x->raw());
    });
    expectNExecutionsCostNTimesOne(c, sched.plan, [&] {
      PendingMove<double> move = dataMoveBegin<double>(c, sched, src);
      dataMoveEnd<double>(move, m.x->raw());
    });
  });
}

TEST(ScheduleInvariants, InterProgramHalvesCostExactlyNTimesOneExecution) {
  constexpr Index kRows = 8, kCols = 8, kN = kRows * kCols;
  World::run({
      ProgramSpec{"regular", 3,
                  [](Comm& c) {
                    parti::BlockDistArray<double> a(
                        c, Shape::of({kRows, kCols}), /*ghost=*/1);
                    a.fillByPoint([](const Point& p) {
                      return static_cast<double>(p[0] * kCols + p[1]);
                    });
                    SetOfRegions set;
                    set.add(Region::section(
                        RegularSection::box({0, 0}, {kRows - 1, kCols - 1})));
                    const McSchedule send = computeScheduleSend(
                        c, PartiAdapter::describe(a), set,
                        /*remoteProgram=*/1, Method::kCooperation);
                    expectNExecutionsCostNTimesOne(c, send.plan, [&] {
                      dataMoveSend<double>(c, send, a.raw());
                    });
                  }},
      ProgramSpec{"irregular", 2,
                  [](Comm& c) {
                    const auto mine =
                        chaos::randomPartition(kN, c.size(), c.rank(), 5);
                    auto table =
                        std::make_shared<const chaos::TranslationTable>(
                            chaos::TranslationTable::build(
                                c, mine, kN,
                                chaos::TranslationTable::Storage::
                                    kDistributed));
                    chaos::IrregArray<double> x(c, table, mine);
                    SetOfRegions set;
                    std::vector<Index> ids(static_cast<size_t>(kN));
                    for (Index k = 0; k < kN; ++k) {
                      ids[static_cast<size_t>(k)] = k;
                    }
                    set.add(Region::indices(ids));
                    const McSchedule recv = computeScheduleRecv(
                        c, ChaosAdapter::describe(x), set,
                        /*remoteProgram=*/0, Method::kCooperation);
                    expectNExecutionsCostNTimesOne(c, recv.plan, [&] {
                      dataMoveRecv<double>(c, recv, x.raw());
                    });
                  }},
  });
}

TEST(ScheduleInvariants, CacheHitAvoidsBuildTraffic) {
  World::runSPMD(3, [](Comm& c) {
    Meshes m = makeMeshes(c);

    // Miss: pays the full collective build (chaos dereference traffic).
    ScheduleCache cache;
    c.barrier();
    c.resetStats();
    const auto first = cache.getOrBuild(c, m.aObj, m.aSet, m.xObj, m.xSet);
    const auto missTraffic = c.stats();

    // Hit: only the hit/miss agreement reduction remains.
    c.barrier();
    c.resetStats();
    const auto second = cache.getOrBuild(c, m.aObj, m.aSet, m.xObj, m.xSet);
    const auto hitTraffic = c.stats();

    EXPECT_EQ(first.get(), second.get());
    // The agreement is a handful of tiny messages; the build moved the whole
    // dereference volume.  Sum over ranks so the comparison is not skewed by
    // which rank pays which half of a reduction.
    const auto sumBytes = [&](const transport::TrafficStats& s) {
      return c.allreduceSum(static_cast<double>(s.bytesSent));
    };
    const double missBytes = sumBytes(missTraffic);
    const double hitBytes = sumBytes(hitTraffic);
    EXPECT_LT(hitBytes, missBytes);
  });
}

TEST(ScheduleInvariants, ReverseSchedulePreservesMessageMinimality) {
  World::runSPMD(3, [](Comm& c) {
    Meshes m = makeMeshes(c);
    const McSchedule fwd = computeSchedule(c, m.aObj, m.aSet, m.xObj, m.xSet);
    const McSchedule rev = reverseSchedule(fwd);
    expectOneMessagePerPair(rev.plan, c.rank());
    // Reverse swaps the halves exactly: same per-peer traffic, other way.
    ASSERT_EQ(rev.plan.sends.size(), fwd.plan.recvs.size());
    for (size_t i = 0; i < rev.plan.sends.size(); ++i) {
      EXPECT_EQ(rev.plan.sends[i].peer, fwd.plan.recvs[i].peer);
      EXPECT_EQ(rev.plan.sends[i].runs, fwd.plan.recvs[i].runs);
    }

    c.barrier();
    c.resetStats();
    dataMove<double>(c, rev, m.x->raw(), m.a->raw());
    EXPECT_EQ(c.stats().messagesSent, rev.plan.sends.size());
    EXPECT_EQ(c.stats().messagesReceived, rev.plan.recvs.size());
  });
}

}  // namespace
}  // namespace mc::core
