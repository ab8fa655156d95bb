// Inter-program Meta-Chaos: two separately running SPMD programs exchange
// distributed data (paper Figure 3 and Sections 5.2 / 5.4).
#include <gtest/gtest.h>

#include "chaos/partition.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/tulip_adapter.h"
#include "core/builder_internal.h"
#include "core/data_move.h"
#include "fuzz_decoder.h"
#include "hpfrt/matvec.h"
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

double cell(Index i, Index j) { return 100.0 * static_cast<double>(i) + static_cast<double>(j); }

/// Program A (Parti, 2-D mesh) sends a section to program B (Chaos,
/// irregular array) and receives it back, exercising both directions of a
/// symmetric schedule pair across programs.
void runPartiChaosExchange(int npA, int npB, Method method) {
  constexpr Index kRows = 8, kCols = 8;
  const Index n = kRows * kCols;

  World::run({
      ProgramSpec{
          "preg", npA,
          [&](Comm& c) {
            parti::BlockDistArray<double> a(c, Shape::of({kRows, kCols}), 1);
            a.fillByPoint([](const Point& p) { return cell(p[0], p[1]); });
            SetOfRegions set;
            set.add(Region::section(RegularSection::box({0, 0}, {kRows - 1, kCols - 1})));
            const McSchedule send =
                computeScheduleSend(c, PartiAdapter::describe(a), set,
                                    /*remoteProgram=*/1, method);
            dataMoveSend<double>(c, send, a.raw());
            // Receive it back (roles flip; build the paired recv schedule).
            const McSchedule recv =
                computeScheduleRecv(c, PartiAdapter::describe(a), set,
                                    /*remoteProgram=*/1, method);
            a.fill(-1.0);
            dataMoveRecv<double>(c, recv, a.raw());
            const auto img = a.gatherGlobal();
            for (Index i = 0; i < kRows; ++i) {
              for (Index j = 0; j < kCols; ++j) {
                EXPECT_DOUBLE_EQ(img[static_cast<size_t>(i * kCols + j)],
                                 cell(i, j));
              }
            }
          }},
      ProgramSpec{
          "pirreg", npB,
          [&](Comm& c) {
            // Irregular array over the same element count.  Duplication
            // must ship the table, so use a replicated one for that method
            // (the practical choice the paper describes).
            const auto storage =
                method == Method::kDuplication
                    ? chaos::TranslationTable::Storage::kReplicated
                    : chaos::TranslationTable::Storage::kDistributed;
            const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 3);
            auto table = std::make_shared<const chaos::TranslationTable>(
                chaos::TranslationTable::build(c, mine, n, storage));
            chaos::IrregArray<double> x(c, table, mine);
            SetOfRegions set;
            std::vector<Index> ids(static_cast<size_t>(n));
            for (Index k = 0; k < n; ++k) ids[static_cast<size_t>(k)] = k;
            set.add(Region::indices(ids));
            const McSchedule recv = computeScheduleRecv(
                c, ChaosAdapter::describe(x), set, /*remoteProgram=*/0, method);
            dataMoveRecv<double>(c, recv, x.raw());
            // Verify: irregular element k holds regular element (k/8, k%8).
            const auto img = x.gatherGlobal();
            for (Index k = 0; k < n; ++k) {
              EXPECT_DOUBLE_EQ(img[static_cast<size_t>(k)],
                               cell(k / kCols, k % kCols));
            }
            // Send it back.
            const McSchedule send = computeScheduleSend(
                c, ChaosAdapter::describe(x), set, /*remoteProgram=*/0, method);
            dataMoveSend<double>(c, send, x.raw());
          }},
  });
}

TEST(InterProgram, PartiToChaosCooperation1x1) {
  runPartiChaosExchange(1, 1, Method::kCooperation);
}
TEST(InterProgram, PartiToChaosCooperation2x3) {
  runPartiChaosExchange(2, 3, Method::kCooperation);
}
TEST(InterProgram, PartiToChaosCooperation4x2) {
  runPartiChaosExchange(4, 2, Method::kCooperation);
}
TEST(InterProgram, PartiToChaosDuplication2x2) {
  runPartiChaosExchange(2, 2, Method::kDuplication);
}
TEST(InterProgram, PartiToChaosDuplication3x2) {
  runPartiChaosExchange(3, 2, Method::kDuplication);
}

TEST(InterProgram, ReversedInterScheduleSwapsDirection) {
  // Build one schedule pair, then use its reverses to move data backwards
  // without rebuilding (paper Section 4.3: swap DataMoveSend and
  // DataMoveRecv between the programs).
  constexpr Index n = 24;
  World::run({
      ProgramSpec{"a", 2,
                  [&](Comm& c) {
                    hpfrt::HpfArray<double> v(
                        c, hpfrt::matvecVectorDist(n, c.size()));
                    v.fillByPoint([](const Point& p) {
                      return static_cast<double>(p[0]) * 2.0;
                    });
                    SetOfRegions set;
                    set.add(Region::section(RegularSection::box({0}, {n - 1})));
                    const McSchedule send = computeScheduleSend(
                        c, HpfAdapter::describe(v), set, 1,
                        Method::kCooperation);
                    dataMoveSend<double>(c, send, v.raw());
                    // Reverse: now receive updated values back.
                    const McSchedule back = reverseSchedule(send);
                    dataMoveRecv<double>(c, back, v.raw());
                    const auto img = v.gatherGlobal();
                    for (Index k = 0; k < n; ++k) {
                      EXPECT_DOUBLE_EQ(img[static_cast<size_t>(k)],
                                       static_cast<double>(k) * 2.0 + 1.0);
                    }
                  }},
      ProgramSpec{"b", 3,
                  [&](Comm& c) {
                    hpfrt::HpfArray<double> w(
                        c, hpfrt::HpfDist(Shape::of({n}),
                                          {hpfrt::DimDist{
                                              hpfrt::DistKind::kCyclic,
                                              c.size(), 1}}));
                    SetOfRegions set;
                    set.add(Region::section(RegularSection::box({0}, {n - 1})));
                    const McSchedule recv = computeScheduleRecv(
                        c, HpfAdapter::describe(w), set, 0,
                        Method::kCooperation);
                    dataMoveRecv<double>(c, recv, w.raw());
                    for (auto& x : w.raw()) x += 1.0;  // server-side update
                    const McSchedule back = reverseSchedule(recv);
                    dataMoveSend<double>(c, back, w.raw());
                  }},
  });
}

TEST(InterProgram, ScheduleReuseAcrossIterations) {
  // The paper's client/server experiment reuses one schedule for many
  // vector exchanges; verify tags stay paired across iterations.
  constexpr Index n = 16;
  constexpr int kIters = 5;
  World::run({
      ProgramSpec{"client", 1,
                  [&](Comm& c) {
                    hpfrt::HpfArray<double> v(
                        c, hpfrt::matvecVectorDist(n, c.size()));
                    SetOfRegions set;
                    set.add(Region::section(RegularSection::box({0}, {n - 1})));
                    const McSchedule send = computeScheduleSend(
                        c, HpfAdapter::describe(v), set, 1,
                        Method::kCooperation);
                    const McSchedule recv = reverseSchedule(send);
                    for (int it = 0; it < kIters; ++it) {
                      v.fillByPoint([&](const Point& p) {
                        return static_cast<double>(p[0] + it);
                      });
                      dataMoveSend<double>(c, send, v.raw());
                      dataMoveRecv<double>(c, recv, v.raw());
                      const auto img = v.gatherGlobal();
                      for (Index k = 0; k < n; ++k) {
                        EXPECT_DOUBLE_EQ(img[static_cast<size_t>(k)],
                                         10.0 * static_cast<double>(k + it));
                      }
                    }
                  }},
      ProgramSpec{"server", 4,
                  [&](Comm& c) {
                    hpfrt::HpfArray<double> w(
                        c, hpfrt::matvecVectorDist(n, c.size()));
                    SetOfRegions set;
                    set.add(Region::section(RegularSection::box({0}, {n - 1})));
                    const McSchedule recv = computeScheduleRecv(
                        c, HpfAdapter::describe(w), set, 0,
                        Method::kCooperation);
                    const McSchedule send = reverseSchedule(recv);
                    for (int it = 0; it < kIters; ++it) {
                      dataMoveRecv<double>(c, recv, w.raw());
                      for (auto& x : w.raw()) x *= 10.0;
                      dataMoveSend<double>(c, send, w.raw());
                    }
                  }},
  });
}

TEST(InterProgram, MatvecClientServer) {
  // End-to-end miniature of Section 5.4: a sequential Fortran-style client
  // ships a matrix and vectors to an HPF matvec server via Meta-Chaos.
  constexpr Index n = 12;
  World::run({
      ProgramSpec{
          "client", 1,
          [&](Comm& c) {
            // Sequential client: everything is a 1-proc HPF array (the
            // degenerate distribution plays the role of local Fortran data).
            hpfrt::HpfArray<double> A(c, hpfrt::matvecMatrixDist(n, 1));
            hpfrt::HpfArray<double> x(c, hpfrt::matvecVectorDist(n, 1));
            hpfrt::HpfArray<double> y(c, hpfrt::matvecVectorDist(n, 1));
            A.fillByPoint([](const Point& p) {
              return p[0] == p[1] ? 3.0 : (p[1] == 0 ? 1.0 : 0.0);
            });
            x.fillByPoint([](const Point& p) { return static_cast<double>(p[0] + 1); });
            SetOfRegions mSet, vSet;
            mSet.add(Region::section(
                RegularSection::box({0, 0}, {n - 1, n - 1})));
            vSet.add(Region::section(RegularSection::box({0}, {n - 1})));
            const McSchedule mSend = computeScheduleSend(
                c, HpfAdapter::describe(A), mSet, 1, Method::kCooperation);
            const McSchedule vSend = computeScheduleSend(
                c, HpfAdapter::describe(x), vSet, 1, Method::kCooperation);
            const McSchedule vRecv = computeScheduleRecv(
                c, HpfAdapter::describe(y), vSet, 1, Method::kCooperation);
            dataMoveSend<double>(c, mSend, A.raw());
            dataMoveSend<double>(c, vSend, x.raw());
            dataMoveRecv<double>(c, vRecv, y.raw());
            // A is 3 on the diagonal and 1 in column 0 (off-diagonal), so
            // y_i = 3*x_i + [i>0]*x_0 with x_i = i+1.
            for (Index i = 0; i < n; ++i) {
              const double want =
                  3.0 * static_cast<double>(i + 1) + (i > 0 ? 1.0 : 0.0);
              EXPECT_DOUBLE_EQ(y.raw()[static_cast<size_t>(i)], want);
            }
          }},
      ProgramSpec{
          "server", 3,
          [&](Comm& c) {
            hpfrt::HpfArray<double> A(c, hpfrt::matvecMatrixDist(n, c.size()));
            hpfrt::HpfArray<double> x(c, hpfrt::matvecVectorDist(n, c.size()));
            hpfrt::HpfArray<double> y(c, hpfrt::matvecVectorDist(n, c.size()));
            SetOfRegions mSet, vSet;
            mSet.add(Region::section(
                RegularSection::box({0, 0}, {n - 1, n - 1})));
            vSet.add(Region::section(RegularSection::box({0}, {n - 1})));
            const McSchedule mRecv = computeScheduleRecv(
                c, HpfAdapter::describe(A), mSet, 0, Method::kCooperation);
            const McSchedule xRecv = computeScheduleRecv(
                c, HpfAdapter::describe(x), vSet, 0, Method::kCooperation);
            const McSchedule ySend = computeScheduleSend(
                c, HpfAdapter::describe(y), vSet, 0, Method::kCooperation);
            dataMoveRecv<double>(c, mRecv, A.raw());
            dataMoveRecv<double>(c, xRecv, x.raw());
            hpfrt::matvec(A, x, y);
            dataMoveSend<double>(c, ySend, y.raw());
          }},
  });
}

TEST(InterProgram, MismatchedSizesAbort) {
  EXPECT_THROW(
      World::run(
          {
              ProgramSpec{"a", 1,
                          [](Comm& c) {
                            hpfrt::HpfArray<double> v(
                                c, hpfrt::matvecVectorDist(8, 1));
                            SetOfRegions set;
                            set.add(Region::section(
                                RegularSection::box({0}, {7})));
                            computeScheduleSend(c, HpfAdapter::describe(v),
                                                set, 1, Method::kCooperation);
                          }},
              ProgramSpec{"b", 1,
                          [](Comm& c) {
                            hpfrt::HpfArray<double> v(
                                c, hpfrt::matvecVectorDist(9, 1));
                            SetOfRegions set;
                            set.add(Region::section(
                                RegularSection::box({0}, {8})));
                            computeScheduleRecv(c, HpfAdapter::describe(v),
                                                set, 0, Method::kCooperation);
                          }},
          },
          [] {
            transport::WorldOptions o;
            o.recvTimeoutSeconds = 5.0;
            return o;
          }()),
      Error);
}

// The source program's ownership rows arrive as another program's bytes.
// A two-rank source program writes the cooperation send protocol out by
// hand (the count, one row list per source rank, then it waits for its
// marching orders); a one-rank destination owns the whole 16-position
// chunk and appends the rows in sender order.  Returns whether the
// destination refused them with mc::Error.
using Rows = std::vector<LinRun>;  // one source rank's rows for the chunk

bool destinationRefuses(const Rows& rank0, const Rows& rank1) {
  constexpr Index kN = 16;
  using Orders = std::vector<std::vector<detail::SendRun>>;
  bool refused = false;
  World::run({
      ProgramSpec{"src", 2,
                  [&](Comm& c) {
                    detail::handshakeCount(c, /*remoteProgram=*/1, kN);
                    const std::vector<Rows> rows = {c.rank() == 0 ? rank0
                                                                  : rank1};
                    (void)detail::interAlltoall(c, 1, rows);
                    (void)detail::interAlltoall(c, 1, Orders(1));
                  }},
      ProgramSpec{"dst", 1,
                  [&](Comm& c) {
                    hpfrt::HpfArray<double> v(
                        c, hpfrt::matvecVectorDist(kN, 1));
                    SetOfRegions set;
                    set.add(Region::section(
                        RegularSection::box({0}, {kN - 1})));
                    try {
                      computeScheduleRecv(c, HpfAdapter::describe(v), set,
                                          /*remoteProgram=*/0,
                                          Method::kCooperation);
                    } catch (const Error&) {
                      refused = true;
                      // Release the source, which waits for its orders.
                      (void)detail::interAlltoall(c, 0, Orders(2));
                    }
                  }},
  });
  return refused;
}

// Control: two senders' slices, each owned by its sender, in position
// order — accepted, so the refusals below test the rows and not the
// harness.
TEST(InterProgram, WellFormedOwnershipRowsAreAccepted) {
  EXPECT_FALSE(destinationRefuses({LinRun{0, 0, 8, 1, 0}},
                                  {LinRun{8, 0, 8, 1, 1}}));
}

TEST(InterProgram, OwnershipRowNamingNoSourceRankIsRefused) {
  EXPECT_TRUE(destinationRefuses({LinRun{0, 0, 8, 1, -1}},
                                 {LinRun{8, 0, 8, 1, 1}}));
  EXPECT_TRUE(destinationRefuses({LinRun{0, 0, 8, 1, 0}},
                                 {LinRun{8, 0, 8, 1, 2}}));
}

// Rows that step the position cursor backwards — {0, 10}, {10, -5},
// {5, 11} from one sender list positions 5 .. 9 twice yet cover the chunk
// end to end — must be refused, not joined.
TEST(InterProgram, OwnershipRowWithNegativeCountIsRefused) {
  EXPECT_TRUE(destinationRefuses(
      {LinRun{0, 0, 10, 1, 0}, LinRun{10, 10, -5, 1, 0},
       LinRun{5, 5, 11, 1, 0}},
      {}));
  EXPECT_TRUE(destinationRefuses(
      {LinRun{0, 0, 8, 1, 0}, LinRun{8, 0, 0, 1, 0}},
      {LinRun{8, 0, 8, 1, 1}}));
}

TEST(InterProgram, OverlappingOrMisorderedOwnershipRowsAreRefused) {
  // Sender 1's rows overlap sender 0's at positions 8 and 9.
  EXPECT_TRUE(destinationRefuses({LinRun{0, 0, 10, 1, 0}},
                                 {LinRun{8, 0, 8, 1, 1}}));
  // Sender 1's slice precedes sender 0's.
  EXPECT_TRUE(destinationRefuses({LinRun{8, 0, 8, 1, 0}},
                                 {LinRun{0, 0, 8, 1, 1}}));
}

TEST(InterProgram, OwnershipRowPastTheChunkEndIsRefused) {
  EXPECT_TRUE(destinationRefuses({LinRun{0, 0, 8, 1, 0}},
                                 {LinRun{8, 0, 9, 1, 1}}));
}

// Offsets the destination's join and run greedy would compute beyond
// Index: a stride that overflows within the run, a negative offset.
TEST(InterProgram, OwnershipRowLeavingTheOffsetRangeIsRefused) {
  EXPECT_TRUE(destinationRefuses({LinRun{0, 0, 8, Index{1} << 61, 0}},
                                 {LinRun{8, 0, 8, 1, 1}}));
  EXPECT_TRUE(destinationRefuses({LinRun{0, -1, 8, 1, 0}},
                                 {LinRun{8, 0, 8, 1, 1}}));
}

TEST(InterProgram, OwnershipRowsWithAGapAreRefused) {
  EXPECT_TRUE(destinationRefuses({LinRun{0, 0, 7, 1, 0}},
                                 {LinRun{8, 0, 8, 1, 1}}));
}

// The duplication bundle (library name, descriptor, set) arrives from the
// other program: for every library it decodes or throws mc::Error for every
// prefix and byte flip, and what decodes can be enumerated the way
// buildInterDuplication does, by the run inquiry over every position.
TEST(InterProgram, RemoteBundleDecoderSurvivesFuzz) {
  World::runSPMD(2, [](Comm& c) {
    parti::BlockDistArray<double> pa(c, Shape::of({6, 5}), 1);
    hpfrt::HpfArray<double> ha(
        c, hpfrt::HpfDist::blockEveryDim(Shape::of({6, 5}), c.size()));
    tulip::Collection<double> coll(c, 30, tulip::Placement::kCyclic);
    const Index n = 30;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 9);
    auto table = std::make_shared<const chaos::TranslationTable>(
        chaos::TranslationTable::build(
            c, mine, n, chaos::TranslationTable::Storage::kDistributed));
    chaos::IrregArray<double> irreg(c, table, mine);

    const SetOfRegions section(
        Region::section(RegularSection::of({0, 1}, {5, 4}, {2, 1})));
    std::vector<Index> ids;
    for (Index k = 0; k < n; k += 3) ids.push_back((k * 7) % n);
    const SetOfRegions indices(Region::indices(ids));
    const SetOfRegions range(Region::range(1, 28, 3));
    const std::pair<DistObject, const SetOfRegions*> cases[] = {
        {PartiAdapter::describe(pa), &section},
        {HpfAdapter::describe(ha), &section},
        {ChaosAdapter::describe(irreg), &indices},
        {TulipAdapter::describe(coll), &range},
    };
    for (const auto& [obj, set] : cases) {
      const std::vector<std::byte> bundle =
          detail::packRemoteBundle(adapterFor(obj), obj, *set, c);
      if (c.rank() != 0) continue;
      SCOPED_TRACE(obj.library());
      const auto [back, backSet] = detail::unpackRemoteBundle(bundle);
      EXPECT_EQ(back.library(), obj.library());
      EXPECT_EQ(backSet.numElements(), set->numElements());
      fuzzDecoder(bundle, [](std::span<const std::byte> bytes) {
        const auto [dObj, dSet] = detail::unpackRemoteBundle(bytes);
        const Index n = dSet.numElements();
        EXPECT_GE(n, 0);
        Index covered = 0;
        adapterFor(dObj).enumerateRangeRuns(
            dObj, dSet, 0, n,
            [&](Index, int, Index, Index count, Index) { covered += count; });
        EXPECT_EQ(covered, n);
      });
    }
  });
}

// A peer's bundle whose descriptor and set disagree — a 2-D array described
// with a 1-D section — is refused at decode with mc::Error, before the run
// inquiry divides by the section's missing last-dimension stride.
// packRemoteBundle does not validate, so it can build one.
TEST(InterProgram, RemoteBundleWithMismatchedRankIsRefused) {
  World::runSPMD(2, [](Comm& c) {
    parti::BlockDistArray<double> pa(c, Shape::of({6, 5}), 1);
    hpfrt::HpfArray<double> ha(
        c, hpfrt::HpfDist::blockEveryDim(Shape::of({6, 5}), c.size()));
    const SetOfRegions row(Region::section(RegularSection::of({0}, {4}, {1})));
    for (const DistObject& obj :
         {PartiAdapter::describe(pa), HpfAdapter::describe(ha)}) {
      SCOPED_TRACE(obj.library());
      const std::vector<std::byte> bundle =
          detail::packRemoteBundle(adapterFor(obj), obj, row, c);
      EXPECT_THROW((void)detail::unpackRemoteBundle(bundle), Error);
    }
  });
}

}  // namespace
}  // namespace mc::core
