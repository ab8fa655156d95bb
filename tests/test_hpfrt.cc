// Tests for the HPF-like runtime: distributions (BLOCK / CYCLIC /
// CYCLIC(k)), arrays, redistribution, matrix-vector multiply.
#include <gtest/gtest.h>

#include <set>

#include "hpfrt/hpf_array.h"
#include "hpfrt/matvec.h"
#include "hpfrt/redistribute.h"
#include "oracle/run_reference.h"
#include "transport/world.h"

namespace mc::hpfrt {
namespace {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::World;

// Every (kind, n, P) combination must give a disjoint, complete partition
// with consistent local indexing.
struct DistCase {
  DistKind kind;
  Index n;
  int procs;
  Index param;
};

class DimDistP : public ::testing::TestWithParam<DistCase> {};

TEST_P(DimDistP, OwnershipPartitionsAndIndexes) {
  const DistCase tc = GetParam();
  const HpfDist dist(Shape::of({tc.n}),
                     {DimDist{tc.kind, tc.procs, tc.param}});
  std::vector<Index> counts(static_cast<size_t>(tc.procs), 0);
  for (Index g = 0; g < tc.n; ++g) {
    const int owner = dist.ownerInDim(0, g);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, tc.procs);
    const Index li = dist.localIndexInDim(0, g);
    EXPECT_EQ(dist.globalFromLocal(0, owner, li), g);
    ++counts[static_cast<size_t>(owner)];
  }
  Index total = 0;
  for (int c = 0; c < tc.procs; ++c) {
    EXPECT_EQ(dist.localCountInDim(0, c), counts[static_cast<size_t>(c)])
        << "coord " << c;
    total += counts[static_cast<size_t>(c)];
  }
  EXPECT_EQ(total, tc.n);
  // Local indices are dense 0..count-1 per owner.
  for (int c = 0; c < tc.procs; ++c) {
    std::set<Index> lis;
    for (Index g = 0; g < tc.n; ++g) {
      if (dist.ownerInDim(0, g) == c) lis.insert(dist.localIndexInDim(0, g));
    }
    Index expect = 0;
    for (Index li : lis) EXPECT_EQ(li, expect++);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, DimDistP,
    ::testing::Values(
        DistCase{DistKind::kBlock, 16, 4, 1},
        DistCase{DistKind::kBlock, 17, 4, 1},
        DistCase{DistKind::kBlock, 3, 4, 1},
        DistCase{DistKind::kCyclic, 16, 4, 1},
        DistCase{DistKind::kCyclic, 17, 5, 1},
        DistCase{DistKind::kCyclic, 2, 4, 1},
        DistCase{DistKind::kBlockCyclic, 16, 4, 2},
        DistCase{DistKind::kBlockCyclic, 17, 4, 3},
        DistCase{DistKind::kBlockCyclic, 23, 3, 5},
        DistCase{DistKind::kBlockCyclic, 7, 2, 16},  // blocks > extent
        DistCase{DistKind::kBlockCyclic, 12, 1, 4}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      return "case" + std::to_string(info.index);
    });

TEST(HpfDist, TwoDimensionalOwnership) {
  // (BLOCK, CYCLIC) on a 2x3 grid.
  const HpfDist dist(Shape::of({8, 9}), {DimDist{DistKind::kBlock, 2, 1},
                                         DimDist{DistKind::kCyclic, 3, 1}});
  EXPECT_EQ(dist.nprocs(), 6);
  std::vector<Index> counts(6, 0);
  for (Index i = 0; i < 8; ++i) {
    for (Index j = 0; j < 9; ++j) {
      ++counts[static_cast<size_t>(dist.ownerOf(Point::of({i, j})))];
    }
  }
  // 4 rows x 3 columns each.
  for (Index c : counts) EXPECT_EQ(c, 12);
}

TEST(HpfDist, ForEachOwnedConsistentWithOffsets) {
  const HpfDist dist(Shape::of({10, 10}),
                     {DimDist{DistKind::kBlockCyclic, 2, 3},
                      DimDist{DistKind::kCyclic, 2, 1}});
  for (int proc = 0; proc < 4; ++proc) {
    Index seen = 0;
    dist.forEachOwned(proc, [&](const Point& g, Index off) {
      EXPECT_EQ(dist.ownerOf(g), proc);
      EXPECT_EQ(dist.localOffset(proc, g), off);
      EXPECT_EQ(off, seen++);
    });
    EXPECT_EQ(seen, dist.localShape(proc).numElements());
  }
}

TEST(HpfDist, RejectsBadConfig) {
  EXPECT_THROW(HpfDist(Shape::of({4, 4}), {DimDist{DistKind::kBlock, 2, 1}}),
               Error);
  EXPECT_THROW(HpfDist(Shape::of({4}), {DimDist{DistKind::kBlockCyclic, 2, 0}}),
               Error);
}

TEST(HpfArray, FillAndGather) {
  World::runSPMD(4, [](Comm& c) {
    HpfArray<double> a(c, HpfDist(Shape::of({6, 6}),
                                  {DimDist{DistKind::kCyclic, 2, 1},
                                   DimDist{DistKind::kBlock, 2, 1}}));
    a.fillByPoint([](const Point& p) { return static_cast<double>(p[0] * 10 + p[1]); });
    const auto g = a.gatherGlobal();
    for (Index i = 0; i < 6; ++i) {
      for (Index j = 0; j < 6; ++j) {
        EXPECT_DOUBLE_EQ(g[static_cast<size_t>(i * 6 + j)],
                         static_cast<double>(i * 10 + j));
      }
    }
  });
}

TEST(HpfArray, WrongProcessorCountRejected) {
  World::runSPMD(2, [](Comm& c) {
    EXPECT_THROW(HpfArray<double>(c, HpfDist::blockEveryDim(Shape::of({4}), 3)),
                 Error);
  });
}

struct RedistCase {
  std::vector<DimDist> srcDims, dstDims;
  Shape srcShape, dstShape;
  RegularSection srcSec, dstSec;
  int nprocs;
};

class RedistP : public ::testing::TestWithParam<RedistCase> {};

TEST_P(RedistP, MatchesOracle) {
  const RedistCase tc = GetParam();
  World::runSPMD(tc.nprocs, [&](Comm& c) {
    HpfArray<double> a(c, HpfDist(tc.srcShape, tc.srcDims));
    HpfArray<double> b(c, HpfDist(tc.dstShape, tc.dstDims));
    a.fillByPoint([&](const Point& p) {
      return static_cast<double>(rowMajorOffset(tc.srcShape, p)) + 0.25;
    });
    b.fill(-1.0);
    const auto sched = buildRedistSchedule(a.dist(), tc.srcSec, b.dist(),
                                           tc.dstSec, c.rank());
    redistribute(sched, a, b);
    const auto got = b.gatherGlobal();
    // Oracle.
    std::vector<double> want(static_cast<size_t>(tc.dstShape.numElements()),
                             -1.0);
    tc.srcSec.forEach([&](const Point& sp, Index k) {
      const Point dp = tc.dstSec.pointAt(k);
      want[static_cast<size_t>(rowMajorOffset(tc.dstShape, dp))] =
          static_cast<double>(rowMajorOffset(tc.srcShape, sp)) + 0.25;
    });
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], want[i]) << "flat " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, RedistP,
    ::testing::Values(
        // BLOCK -> CYCLIC full-array, 1-D
        RedistCase{{DimDist{DistKind::kBlock, 4, 1}},
                   {DimDist{DistKind::kCyclic, 4, 1}},
                   Shape::of({32}), Shape::of({32}),
                   RegularSection::box({0}, {31}),
                   RegularSection::box({0}, {31}), 4},
        // CYCLIC(3) -> BLOCK, partial strided section
        RedistCase{{DimDist{DistKind::kBlockCyclic, 3, 3}},
                   {DimDist{DistKind::kBlock, 3, 1}},
                   Shape::of({40}), Shape::of({25}),
                   RegularSection::of({1}, {39}, {2}),
                   RegularSection::box({2}, {21}), 3},
        // 2-D (BLOCK,BLOCK) -> (CYCLIC,BLOCK), sub-box (the paper's Fig. 9
        // HPF example shape: A[1:50,10:60] = B[50:100,50:100])
        RedistCase{{DimDist{DistKind::kBlock, 2, 1}, DimDist{DistKind::kBlock, 2, 1}},
                   {DimDist{DistKind::kCyclic, 2, 1}, DimDist{DistKind::kBlock, 2, 1}},
                   Shape::of({20, 20}), Shape::of({12, 12}),
                   RegularSection::box({8, 8}, {17, 17}),
                   RegularSection::box({1, 2}, {10, 11}), 4},
        // linearization pairing across different ranks: 2-D section -> 1-D
        RedistCase{{DimDist{DistKind::kBlock, 2, 1}, DimDist{DistKind::kBlock, 2, 1}},
                   {DimDist{DistKind::kCyclic, 4, 1}},
                   Shape::of({6, 6}), Shape::of({36}),
                   RegularSection::box({0, 0}, {5, 5}),
                   RegularSection::box({0}, {35}), 4}),
    [](const ::testing::TestParamInfo<RedistCase>& info) {
      return "case" + std::to_string(info.index);
    });

// The redistribution builder appends element by element; its plans must be
// exactly the runs of the element lists in section order.
sched::Schedule elementwiseRedistSchedule(const HpfDist& src,
                                          const RegularSection& srcSec,
                                          const HpfDist& dst,
                                          const RegularSection& dstSec,
                                          int me) {
  std::vector<std::vector<Index>> sendBy(static_cast<size_t>(dst.nprocs()));
  std::vector<std::vector<Index>> recvBy(static_cast<size_t>(src.nprocs()));
  std::vector<std::pair<Index, Index>> pairs;
  for (Index k = 0; k < srcSec.numElements(); ++k) {
    const Point sp = srcSec.pointAt(k);
    const Point dp = dstSec.pointAt(k);
    const int s = src.ownerOf(sp);
    const int d = dst.ownerOf(dp);
    if (s == me && d == me) {
      pairs.emplace_back(src.localOffset(me, sp), dst.localOffset(me, dp));
    } else if (s == me) {
      sendBy[static_cast<size_t>(d)].push_back(src.localOffset(me, sp));
    } else if (d == me) {
      recvBy[static_cast<size_t>(s)].push_back(dst.localOffset(me, dp));
    }
  }
  sched::Schedule out;
  out.sends = sched::reference::laneOf(sendBy);
  out.recvs = sched::reference::laneOf(recvBy);
  out.localRuns = sched::reference::compressPairs(pairs);
  return out;
}

TEST(Redistribute, RunsEqualTheElementwiseLists) {
  int checked = 0;
  for (const int np : {1, 2, 3, 4, 6}) {
    // A 2-D grid of np processors: (np, 1), (2, 2) or (3, 2).
    const int p0 = np == 4 ? 2 : (np == 6 ? 3 : np);
    const int p1 = np / p0;
    const DimDist block{DistKind::kBlock, np, 1};
    const DimDist cyclic{DistKind::kCyclic, np, 1};
    const DimDist cyclic3{DistKind::kBlockCyclic, np, 3};
    struct Case {
      HpfDist src, dst;
      RegularSection srcSec, dstSec;
    };
    const Case cases[] = {
        // BLOCK -> CYCLIC, whole 1-D array
        {HpfDist(Shape::of({37}), {block}), HpfDist(Shape::of({37}), {cyclic}),
         RegularSection::box({0}, {36}), RegularSection::box({0}, {36})},
        // CYCLIC(3) -> BLOCK, strided partial section
        {HpfDist(Shape::of({40}), {cyclic3}),
         HpfDist(Shape::of({25}), {block}), RegularSection::of({1}, {39}, {2}),
         RegularSection::box({2}, {21})},
        // CYCLIC -> CYCLIC(3), shifted window
        {HpfDist(Shape::of({30}), {cyclic}),
         HpfDist(Shape::of({33}), {cyclic3}), RegularSection::box({0}, {26}),
         RegularSection::box({6}, {32})},
        // 2-D (BLOCK, BLOCK) -> (CYCLIC, BLOCK), sub-box
        {HpfDist(Shape::of({20, 20}), {DimDist{DistKind::kBlock, p0, 1},
                                       DimDist{DistKind::kBlock, p1, 1}}),
         HpfDist(Shape::of({12, 12}), {DimDist{DistKind::kCyclic, p1, 1},
                                       DimDist{DistKind::kBlock, p0, 1}}),
         RegularSection::box({8, 8}, {17, 17}),
         RegularSection::box({1, 2}, {10, 11})},
        // 2-D section -> 1-D CYCLIC(3)
        {HpfDist(Shape::of({6, 7}), {DimDist{DistKind::kBlock, p0, 1},
                                     DimDist{DistKind::kCyclic, p1, 1}}),
         HpfDist(Shape::of({50}), {cyclic3}),
         RegularSection::box({0, 0}, {5, 6}), RegularSection::box({4}, {45})},
    };
    for (const Case& tc : cases) {
      for (int me = 0; me < np; ++me) {
        EXPECT_EQ(sched::reference::runListing(buildRedistSchedule(
                      tc.src, tc.srcSec, tc.dst, tc.dstSec, me)),
                  sched::reference::runListing(elementwiseRedistSchedule(
                      tc.src, tc.srcSec, tc.dst, tc.dstSec, me)))
            << "P=" << np << " case " << (&tc - cases) << " proc " << me;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 80);
}

TEST(Redistribute, SectionAssignOneCall) {
  // The Figure-9-style assignment A[0:4, 2:6] = B[5:9, 0:4] in one call.
  World::runSPMD(4, [](Comm& c) {
    HpfArray<double> B(c, HpfDist::blockEveryDim(Shape::of({10, 10}), c.size()));
    HpfArray<double> A(c, HpfDist(Shape::of({8, 8}),
                                  {DimDist{DistKind::kCyclic, c.size(), 1},
                                   DimDist{DistKind::kBlock, 1, 1}}));
    B.fillByPoint([](const Point& p) { return static_cast<double>(p[0] * 10 + p[1]); });
    A.fill(-1.0);
    sectionAssign(B, RegularSection::box({5, 0}, {9, 4}),
                  A, RegularSection::box({0, 2}, {4, 6}));
    const auto img = A.gatherGlobal();
    for (Index i = 0; i < 5; ++i) {
      for (Index j = 0; j < 5; ++j) {
        EXPECT_DOUBLE_EQ(img[static_cast<size_t>(i * 8 + j + 2)],
                         static_cast<double>((i + 5) * 10 + j));
      }
    }
  });
}

TEST(Redistribute, SectionAssignWithinOneArray) {
  World::runSPMD(2, [](Comm& c) {
    HpfArray<int> A(c, HpfDist::blockEveryDim(Shape::of({12}), c.size()));
    A.fillByPoint([](const Point& p) { return static_cast<int>(p[0]); });
    // Shift the first half onto the second half (disjoint sections).
    sectionAssign(A, RegularSection::box({0}, {5}),
                  A, RegularSection::box({6}, {11}));
    const auto img = A.gatherGlobal();
    for (Index k = 0; k < 6; ++k) {
      EXPECT_EQ(img[static_cast<size_t>(k + 6)], static_cast<int>(k));
    }
  });
}

TEST(Redistribute, RejectsMismatchedCounts) {
  World::runSPMD(1, [](Comm& c) {
    HpfArray<double> a(c, HpfDist::blockEveryDim(Shape::of({8}), 1));
    HpfArray<double> b(c, HpfDist::blockEveryDim(Shape::of({8}), 1));
    EXPECT_THROW(buildRedistSchedule(a.dist(), RegularSection::box({0}, {3}),
                                     b.dist(), RegularSection::box({0}, {4}),
                                     0),
                 Error);
  });
}

TEST(Matvec, MatchesSerialProduct) {
  const Index n = 24;
  for (int np : {1, 2, 4, 6}) {
    World::runSPMD(np, [&](Comm& c) {
      HpfArray<double> A(c, matvecMatrixDist(n, c.size()));
      HpfArray<double> x(c, matvecVectorDist(n, c.size()));
      HpfArray<double> y(c, matvecVectorDist(n, c.size()));
      A.fillByPoint([](const Point& p) {
        return static_cast<double>((p[0] + 1) * (p[1] + 2) % 7);
      });
      x.fillByPoint([](const Point& p) { return static_cast<double>(p[0] % 5) - 2.0; });
      matvec(A, x, y);
      const auto got = y.gatherGlobal();
      for (Index i = 0; i < n; ++i) {
        double want = 0;
        for (Index j = 0; j < n; ++j) {
          want += static_cast<double>((i + 1) * (j + 2) % 7) *
                  (static_cast<double>(j % 5) - 2.0);
        }
        EXPECT_NEAR(got[static_cast<size_t>(i)], want, 1e-9) << "np=" << np;
      }
    });
  }
}

TEST(Matvec, RepeatedMultipliesAreStable) {
  // The server loop of Section 5.4 multiplies many vectors by one matrix.
  World::runSPMD(3, [](Comm& c) {
    const Index n = 12;
    HpfArray<double> A(c, matvecMatrixDist(n, c.size()));
    HpfArray<double> x(c, matvecVectorDist(n, c.size()));
    HpfArray<double> y(c, matvecVectorDist(n, c.size()));
    A.fillByPoint([](const Point& p) { return p[0] == p[1] ? 2.0 : 0.0; });
    x.fillByPoint([](const Point& p) { return static_cast<double>(p[0]); });
    for (int iter = 0; iter < 5; ++iter) {
      matvec(A, x, y);
      const auto got = y.gatherGlobal();
      for (Index i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)], 2.0 * static_cast<double>(i));
      }
    }
  });
}

TEST(Matvec, RejectsWrongDistribution) {
  World::runSPMD(2, [](Comm& c) {
    const Index n = 8;
    // (BLOCK, BLOCK) over a 1x2 grid distributes *columns*; matvec refuses.
    HpfArray<double> A(c, HpfDist(Shape::of({n, n}),
                                  {DimDist{DistKind::kBlock, 1, 1},
                                   DimDist{DistKind::kBlock, 2, 1}}));
    HpfArray<double> x(c, matvecVectorDist(n, c.size()));
    HpfArray<double> y(c, matvecVectorDist(n, c.size()));
    EXPECT_THROW(matvec(A, x, y), Error);
  });
}

}  // namespace
}  // namespace mc::hpfrt
