// Tests for the Multiblock-Parti-like library: distributed arrays, ghost
// exchange, regular-section copy, stencil sweeps.
#include <gtest/gtest.h>

#include "parti/dist_array.h"
#include "parti/ghost.h"
#include "parti/section_copy.h"
#include "parti/stencil.h"
#include "transport/world.h"

namespace mc::parti {
namespace {

using layout::Index;
using layout::Point;
using layout::RegularSection;
using layout::Shape;
using transport::Comm;
using transport::World;

double cell(Index i, Index j) { return 1000.0 * static_cast<double>(i) + static_cast<double>(j); }

TEST(PartiDesc, PaddedOffsets) {
  // 8x8 over 2x2 grid, ghost 1: proc 0 padded shape 6x6, owned at (1,1).
  PartiDesc d{layout::BlockDecomp(Shape::of({8, 8}), {2, 2}), 1};
  EXPECT_EQ(d.paddedShape(0), Shape::of({6, 6}));
  EXPECT_EQ(d.paddedOffsetOf(0, Point::of({0, 0})), 7);   // (1,1) in 6x6
  EXPECT_EQ(d.paddedOffsetOf(0, Point::of({3, 3})), 28);  // (4,4)
  // Halo point from the neighbour's block is addressable.
  EXPECT_EQ(d.paddedOffsetOf(0, Point::of({4, 0})), 31);  // (5,1)
  // Beyond the halo is not.
  EXPECT_THROW(d.paddedOffsetOf(0, Point::of({5, 0})), Error);
}

TEST(PartiArray, FillAndGather) {
  for (int np : {1, 2, 4}) {
    World::runSPMD(np, [](Comm& c) {
      BlockDistArray<double> a(c, Shape::of({6, 5}));
      a.fillByPoint([](const Point& p) { return cell(p[0], p[1]); });
      const auto global = a.gatherGlobal();
      for (Index i = 0; i < 6; ++i) {
        for (Index j = 0; j < 5; ++j) {
          EXPECT_DOUBLE_EQ(global[static_cast<size_t>(i * 5 + j)], cell(i, j));
        }
      }
    });
  }
}

TEST(PartiArray, MismatchedDecompRejected) {
  World::runSPMD(2, [](Comm& c) {
    layout::BlockDecomp d(Shape::of({4, 4}), {1, 1});  // 1-proc decomp
    EXPECT_THROW(BlockDistArray<double>(c, d, 0), Error);
  });
}

TEST(Ghost, FillsAllHaloCells) {
  for (int np : {2, 4}) {
    World::runSPMD(np, [](Comm& c) {
      BlockDistArray<double> a(c, Shape::of({8, 8}), 1);
      a.fillByPoint([](const Point& p) { return cell(p[0], p[1]); });
      const Schedule sched = buildGhostSchedule(a);
      exchangeGhosts(a, sched);
      // Every in-domain halo point now holds the owner's value.
      const RegularSection box = a.ownedBox();
      const RegularSection halo =
          layout::expandBox(box, 1, a.globalShape());
      halo.forEach([&](const Point& p, Index) {
        EXPECT_DOUBLE_EQ(a.at(p), cell(p[0], p[1]))
            << "at (" << p[0] << "," << p[1] << ")";
      });
    });
  }
}

TEST(Ghost, WidthTwo) {
  World::runSPMD(4, [](Comm& c) {
    BlockDistArray<int> a(c, Shape::of({12, 12}), 2);
    a.fillByPoint([](const Point& p) { return static_cast<int>(p[0] * 100 + p[1]); });
    const Schedule sched = buildGhostSchedule(a);
    exchangeGhosts(a, sched);
    const RegularSection halo = layout::expandBox(a.ownedBox(), 2, a.globalShape());
    halo.forEach([&](const Point& p, Index) {
      EXPECT_EQ(a.at(p), static_cast<int>(p[0] * 100 + p[1]));
    });
  });
}

TEST(Ghost, ZeroWidthIsEmptySchedule) {
  World::runSPMD(2, [](Comm& c) {
    BlockDistArray<double> a(c, Shape::of({4, 4}), 0);
    const Schedule sched = buildGhostSchedule(a);
    EXPECT_TRUE(sched.sends.empty());
    EXPECT_TRUE(sched.recvs.empty());
  });
}

TEST(Ghost, OneMessagePerNeighbourPair) {
  World::runSPMD(4, [](Comm& c) {
    BlockDistArray<double> a(c, Shape::of({8, 8}), 1);
    const Schedule sched = buildGhostSchedule(a);
    c.resetStats();
    exchangeGhosts(a, sched);
    // 2x2 grid with corner halos: every proc exchanges with all 3 others.
    EXPECT_EQ(c.stats().messagesSent, 3u);
    EXPECT_EQ(c.stats().messagesReceived, 3u);
  });
}

// Reference oracle: serial section copy by conformant index mapping.
void oracleSectionCopy(const RegularSection& srcSec, std::vector<double>& dst,
                       const std::vector<double>& src, const Shape& srcShape,
                       const RegularSection& dstSec, const Shape& dstShape) {
  srcSec.forEach([&](const Point& sp, Index pos) {
    const Point dp = dstSec.pointAt(pos);
    dst[static_cast<size_t>(rowMajorOffset(dstShape, dp))] =
        src[static_cast<size_t>(rowMajorOffset(srcShape, sp))];
  });
}

struct CopyCase {
  Shape srcShape, dstShape;
  RegularSection srcSec, dstSec;
  int nprocs;
};

class SectionCopyP : public ::testing::TestWithParam<CopyCase> {};

TEST_P(SectionCopyP, MatchesOracle) {
  const CopyCase tc = GetParam();
  World::runSPMD(tc.nprocs, [&](Comm& c) {
    BlockDistArray<double> a(c, tc.srcShape);
    BlockDistArray<double> b(c, tc.dstShape);
    a.fillByPoint([](const Point& p) { return cell(p[0], p[1]); });
    b.fillByPoint([](const Point& p) { return -cell(p[0], p[1]); });
    const Schedule sched = buildSectionCopySchedule(
        a.desc(), tc.srcSec, b.desc(), tc.dstSec, c.rank());
    sectionCopy(sched, a, b);

    const auto got = b.gatherGlobal();
    // Build the oracle from the initial global images.
    std::vector<double> srcImg(static_cast<size_t>(tc.srcShape.numElements()));
    std::vector<double> want(static_cast<size_t>(tc.dstShape.numElements()));
    RegularSection::all(tc.srcShape).forEach([&](const Point& p, Index) {
      srcImg[static_cast<size_t>(rowMajorOffset(tc.srcShape, p))] = cell(p[0], p[1]);
    });
    RegularSection::all(tc.dstShape).forEach([&](const Point& p, Index) {
      want[static_cast<size_t>(rowMajorOffset(tc.dstShape, p))] = -cell(p[0], p[1]);
    });
    oracleSectionCopy(tc.srcSec, want, srcImg, tc.srcShape, tc.dstSec,
                      tc.dstShape);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], want[i]) << "at flat index " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SectionCopyP,
    ::testing::Values(
        // whole-array copy, same shapes
        CopyCase{Shape::of({8, 8}), Shape::of({8, 8}),
                 RegularSection::box({0, 0}, {7, 7}),
                 RegularSection::box({0, 0}, {7, 7}), 4},
        // shifted block (inter-block boundary update pattern)
        CopyCase{Shape::of({16, 16}), Shape::of({16, 16}),
                 RegularSection::box({0, 0}, {7, 15}),
                 RegularSection::box({8, 0}, {15, 15}), 4},
        // different shapes, offset sections
        CopyCase{Shape::of({12, 10}), Shape::of({9, 20}),
                 RegularSection::box({2, 1}, {7, 6}),
                 RegularSection::box({3, 10}, {8, 15}), 3},
        // strided source onto dense destination
        CopyCase{Shape::of({16, 16}), Shape::of({8, 8}),
                 RegularSection::of({0, 0}, {15, 15}, {2, 2}),
                 RegularSection::box({0, 0}, {7, 7}), 4},
        // dense source onto strided destination
        CopyCase{Shape::of({6, 6}), Shape::of({18, 12}),
                 RegularSection::box({1, 1}, {4, 4}),
                 RegularSection::of({0, 0}, {15, 10}, {5, 3}), 2},
        // single processor degenerate
        CopyCase{Shape::of({10, 10}), Shape::of({10, 10}),
                 RegularSection::box({0, 0}, {4, 9}),
                 RegularSection::box({5, 0}, {9, 9}), 1},
        // many processors, small array (empty blocks likely)
        CopyCase{Shape::of({5, 5}), Shape::of({5, 5}),
                 RegularSection::box({0, 0}, {3, 3}),
                 RegularSection::box({1, 1}, {4, 4}), 8},
        // 1-D arrays
        CopyCase{Shape::of({100}), Shape::of({60}),
                 RegularSection::of({0}, {98}, {2}),
                 RegularSection::box({5}, {54}), 4}),
    [](const ::testing::TestParamInfo<CopyCase>& info) {
      return "case" + std::to_string(info.index);
    });

TEST(SectionCopy, RejectsNonConformant) {
  World::runSPMD(1, [](Comm& c) {
    BlockDistArray<double> a(c, Shape::of({8, 8}));
    BlockDistArray<double> b(c, Shape::of({8, 8}));
    EXPECT_THROW(buildSectionCopySchedule(
                     a.desc(), RegularSection::box({0, 0}, {3, 3}),
                     b.desc(), RegularSection::box({0, 0}, {3, 4}), 0),
                 Error);
  });
}

TEST(SectionCopy, MessageCountIsMinimal) {
  // Copying the left half to the right half on a 1x4 grid: each source proc
  // sends to exactly the procs owning its image — no more.
  World::runSPMD(4, [](Comm& c) {
    layout::BlockDecomp d(Shape::of({8, 8}), {1, 4});
    BlockDistArray<double> a(c, d, 0);
    BlockDistArray<double> b(c, d, 0);
    const auto srcSec = RegularSection::box({0, 0}, {7, 3});
    const auto dstSec = RegularSection::box({0, 4}, {7, 7});
    const Schedule sched =
        buildSectionCopySchedule(a.desc(), srcSec, b.desc(), dstSec, c.rank());
    // Source columns 0..3 live on procs 0,1; images (cols 4..7) on procs 2,3.
    // Proc 0 owns cols 0,1 -> images cols 4,5 -> exactly proc 2.
    if (c.rank() == 0) {
      ASSERT_EQ(sched.sends.size(), 1u);
      EXPECT_EQ(sched.sends[0].peer, 2);
      EXPECT_TRUE(sched.recvs.empty());
    }
    if (c.rank() == 2) {
      ASSERT_EQ(sched.recvs.size(), 1u);
      EXPECT_EQ(sched.recvs[0].peer, 0);
      EXPECT_TRUE(sched.sends.empty());
    }
    sectionCopy(sched, a, b);  // completes without mismatch
  });
}

TEST(SectionCopy, LocalBufferingMatchesDirect) {
  // The intermediate-buffer local path and the direct path must agree even
  // when source and destination alias the same array (in-place shift).
  World::runSPMD(1, [](Comm& c) {
    for (bool buffered : {true, false}) {
      BlockDistArray<double> a(c, Shape::of({10}));
      a.fillByPoint([](const Point& p) { return static_cast<double>(p[0]); });
      Schedule sched = buildSectionCopySchedule(
          a.desc(), RegularSection::box({0}, {8}), a.desc(),
          RegularSection::box({1}, {9}), 0);
      sched.bufferLocalCopies = buffered;
      if (buffered) {
        // Parti semantics: the staging buffer makes in-place shifts safe.
        execute<double>(c, sched, a.raw(), a.raw(), c.nextUserTag());
        const auto g = a.gatherGlobal();
        for (Index i = 1; i < 10; ++i) {
          EXPECT_DOUBLE_EQ(g[static_cast<size_t>(i)], static_cast<double>(i - 1));
        }
      }
    }
  });
}

TEST(SectionCopy, CompressedStagingShiftsRowsInPlace) {
  // An in-place copy of box (0,0)-(3,2) to (1,0)-(4,2) overlaps itself.
  // compress() stores the local transfers as one run per row; staging must
  // still read every source row before writing any, so rows 1-4 end as the
  // old rows 0-3 in both forms (copying run by run would smear row 0 down
  // the box).
  World::runSPMD(1, [](Comm& c) {
    for (bool compressed : {false, true}) {
      BlockDistArray<double> a(c, Shape::of({6, 6}));
      a.fillByPoint([](const Point& p) { return cell(p[0], p[1]); });
      Schedule sched = buildSectionCopySchedule(
          a.desc(), RegularSection::box({0, 0}, {3, 2}), a.desc(),
          RegularSection::box({1, 0}, {4, 2}), 0);
      ASSERT_TRUE(sched.bufferLocalCopies);
      if (compressed) {
        sched.compress();
        ASSERT_EQ(sched.localRuns.size(), 4u);
      }
      execute<double>(c, sched, a.raw(), a.raw(), c.nextUserTag());
      const auto g = a.gatherGlobal();
      for (Index i = 0; i < 6; ++i) {
        for (Index j = 0; j < 6; ++j) {
          const bool moved = i >= 1 && i <= 4 && j <= 2;
          EXPECT_DOUBLE_EQ(g[static_cast<size_t>(6 * i + j)],
                           moved ? cell(i - 1, j) : cell(i, j))
              << (compressed ? "compressed" : "pairs") << " (" << i << ","
              << j << ")";
        }
      }
    }
  });
}

TEST(Stencil, MatchesSerialSweep) {
  // Run the Figure-1 Loop-1 sweep for several steps on several processor
  // counts and compare with a serial reference.
  const Index n = 12;
  const int steps = 3;
  // Serial reference.
  std::vector<double> ref(static_cast<size_t>(n * n));
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      ref[static_cast<size_t>(i * n + j)] = cell(i, j);
    }
  }
  for (int s = 0; s < steps; ++s) {
    std::vector<double> old = ref;
    for (Index i = 1; i <= n - 2; ++i) {
      for (Index j = 1; j <= n - 2; ++j) {
        ref[static_cast<size_t>(i * n + j)] =
            old[static_cast<size_t>(i * n + j - 1)] +
            old[static_cast<size_t>((i - 1) * n + j)] +
            old[static_cast<size_t>((i + 1) * n + j)] +
            old[static_cast<size_t>(i * n + j + 1)];
      }
    }
  }
  for (int np : {1, 2, 4}) {
    World::runSPMD(np, [&](Comm& c) {
      BlockDistArray<double> a(c, Shape::of({n, n}), 1);
      a.fillByPoint([](const Point& p) { return cell(p[0], p[1]); });
      const Schedule sched = buildGhostSchedule(a);
      std::vector<double> scratch;
      for (int s = 0; s < steps; ++s) stencilSweep(a, sched, scratch);
      const auto got = a.gatherGlobal();
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_DOUBLE_EQ(got[i], ref[i]) << "np=" << np << " flat=" << i;
      }
    });
  }
}

}  // namespace
}  // namespace mc::parti
