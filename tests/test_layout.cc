// Unit tests for src/layout: index math, regular sections, block decomps.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "layout/block_decomp.h"
#include "layout/index.h"
#include "layout/section.h"

namespace mc::layout {
namespace {

TEST(Index, RowMajorRoundTrip) {
  const Shape s = Shape::of({3, 4, 5});
  Index expect = 0;
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) {
      for (Index k = 0; k < 5; ++k) {
        const Point p = Point::of({i, j, k});
        EXPECT_EQ(rowMajorOffset(s, p), expect);
        EXPECT_EQ(rowMajorPoint(s, expect), p);
        ++expect;
      }
    }
  }
}

TEST(Index, ShapeContains) {
  const Shape s = Shape::of({2, 3});
  EXPECT_TRUE(s.contains(Point::of({0, 0})));
  EXPECT_TRUE(s.contains(Point::of({1, 2})));
  EXPECT_FALSE(s.contains(Point::of({2, 0})));
  EXPECT_FALSE(s.contains(Point::of({0, -1})));
  EXPECT_FALSE(s.contains(Point::of({0, 0, 0})));  // rank mismatch
}

TEST(Index, NumElements) {
  EXPECT_EQ(Shape::of({7}).numElements(), 7);
  EXPECT_EQ(Shape::of({3, 0}).numElements(), 0);
  EXPECT_EQ(Shape::of({2, 3, 4, 5}).numElements(), 120);
}

TEST(Section, CountAndElements) {
  // 2:10:3 -> {2, 5, 8} (paper-style triplet, inclusive upper bound)
  const RegularSection s = RegularSection::of({2}, {10}, {3});
  EXPECT_EQ(s.numElements(), 3);
  EXPECT_EQ(s.pointAt(0), Point::of({2}));
  EXPECT_EQ(s.pointAt(1), Point::of({5}));
  EXPECT_EQ(s.pointAt(2), Point::of({8}));
}

TEST(Section, EmptyWhenReversed) {
  const RegularSection s = RegularSection::of({5}, {4}, {1});
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.numElements(), 0);
}

TEST(Section, RowMajorLinearization) {
  // The linearization of a section is row-major over its tuples (paper 4.1.2).
  const RegularSection s = RegularSection::of({1, 2}, {5, 8}, {2, 3});
  // rows {1,3,5} x cols {2,5,8}
  EXPECT_EQ(s.numElements(), 9);
  EXPECT_EQ(s.pointAt(0), Point::of({1, 2}));
  EXPECT_EQ(s.pointAt(1), Point::of({1, 5}));
  EXPECT_EQ(s.pointAt(3), Point::of({3, 2}));
  EXPECT_EQ(s.pointAt(8), Point::of({5, 8}));
}

TEST(Section, PositionOfInvertsPointAt) {
  const RegularSection s = RegularSection::of({0, 3, 1}, {9, 9, 7}, {3, 2, 1});
  for (Index k = 0; k < s.numElements(); ++k) {
    EXPECT_EQ(s.positionOf(s.pointAt(k)), k);
  }
}

TEST(Section, ForEachMatchesPointAt) {
  const RegularSection s = RegularSection::of({2, 0}, {8, 4}, {3, 2});
  Index calls = 0;
  s.forEach([&](const Point& p, Index pos) {
    EXPECT_EQ(p, s.pointAt(pos));
    EXPECT_EQ(pos, calls);
    ++calls;
  });
  EXPECT_EQ(calls, s.numElements());
}

TEST(Section, ForEachEmpty) {
  const RegularSection s = RegularSection::of({3}, {2}, {1});
  s.forEach([&](const Point&, Index) { FAIL(); });
}

TEST(Section, ForEachRowVisitsForEachsPointsInOrder) {
  // Expanding every row (first, first + s, ... along the last dimension,
  // s = its stride) reproduces forEach's point sequence exactly.
  const RegularSection cases[] = {
      RegularSection::box({4}, {19}),                       // 1-D
      RegularSection::of({1}, {30}, {4}),                   // 1-D strided
      RegularSection::of({2, 1}, {9, 13}, {3, 5}),          // 2-D strided
      RegularSection::of({0, 2, 1}, {3, 6, 7}, {1, 2, 3}),  // 3-D strided
      RegularSection::box({1, 2, 3}, {2, 4, 3}),            // 3-D, 1-wide rows
  };
  for (const RegularSection& s : cases) {
    std::vector<Point> want;
    s.forEach([&](const Point& p, Index) { want.push_back(p); });
    std::vector<Point> got;
    const auto last = static_cast<size_t>(s.rank - 1);
    s.forEachRow([&](const Point& first, Index count) {
      EXPECT_EQ(count, s.count(s.rank - 1));
      Point p = first;
      for (Index k = 0; k < count; ++k) {
        got.push_back(p);
        p[s.rank - 1] += s.stride[last];
      }
    });
    EXPECT_EQ(got, want);
  }
}

TEST(Section, ForEachRowEmpty) {
  RegularSection::of({3}, {2}, {1}).forEachRow(
      [&](const Point&, Index) { FAIL(); });
  // An empty outer dimension empties every row.
  RegularSection::box({2, 0}, {1, 5}).forEachRow(
      [&](const Point&, Index) { FAIL(); });
  // A default-constructed section has rank 0 and no last dimension.
  EXPECT_THROW(RegularSection{}.forEachRow([&](const Point&, Index) {}),
               Error);
}

TEST(Section, Contains) {
  const RegularSection s = RegularSection::of({2, 1}, {10, 9}, {2, 4});
  EXPECT_TRUE(s.contains(Point::of({2, 1})));
  EXPECT_TRUE(s.contains(Point::of({4, 5})));
  EXPECT_FALSE(s.contains(Point::of({3, 1})));   // off-lattice dim 0
  EXPECT_FALSE(s.contains(Point::of({2, 2})));   // off-lattice dim 1
  EXPECT_FALSE(s.contains(Point::of({12, 1})));  // out of bounds
}

TEST(Section, ClampToBoxKeepsLattice) {
  const RegularSection s = RegularSection::of({1}, {19}, {3});  // 1,4,...,19
  const RegularSection c = s.clampToBox(Point::of({5}), Point::of({14}));
  // lattice points in [5,14]: 7, 10, 13
  EXPECT_EQ(c.numElements(), 3);
  EXPECT_EQ(c.pointAt(0), Point::of({7}));
  EXPECT_EQ(c.pointAt(2), Point::of({13}));
}

TEST(Section, ClampToBoxEmpty) {
  const RegularSection s = RegularSection::of({0}, {100}, {10});
  const RegularSection c = s.clampToBox(Point::of({41}), Point::of({49}));
  EXPECT_TRUE(c.empty());
}

TEST(Section, ClampToBox2D) {
  const RegularSection s = RegularSection::of({0, 0}, {9, 9}, {2, 2});
  const RegularSection c = s.clampToBox(Point::of({3, 0}), Point::of({7, 5}));
  std::set<std::pair<Index, Index>> got;
  c.forEach([&](const Point& p, Index) { got.insert({p[0], p[1]}); });
  std::set<std::pair<Index, Index>> want;
  s.forEach([&](const Point& p, Index) {
    if (p[0] >= 3 && p[0] <= 7 && p[1] >= 0 && p[1] <= 5) {
      want.insert({p[0], p[1]});
    }
  });
  EXPECT_EQ(got, want);
}

TEST(Section, AllCoversShape) {
  const Shape shape = Shape::of({4, 6});
  const RegularSection s = RegularSection::all(shape);
  EXPECT_EQ(s.numElements(), shape.numElements());
  // Linearization of all() equals row-major order of the array.
  s.forEach([&](const Point& p, Index pos) {
    EXPECT_EQ(rowMajorOffset(shape, p), pos);
  });
}

TEST(Section, StrideMustBePositive) {
  EXPECT_THROW(RegularSection::of({0}, {5}, {0}), Error);
}

TEST(ProcGrid, ProductMatches) {
  for (int np : {1, 2, 3, 4, 6, 8, 12, 16, 17, 24}) {
    auto g = chooseProcGrid(np, 2);
    EXPECT_EQ(static_cast<int>(g.size()), 2);
    EXPECT_EQ(g[0] * g[1], np);
  }
}

TEST(ProcGrid, NearSquare) {
  auto g = chooseProcGrid(16, 2);
  EXPECT_EQ(g[0], 4);
  EXPECT_EQ(g[1], 4);
  g = chooseProcGrid(8, 2);
  EXPECT_EQ(g[0] * g[1], 8);
  EXPECT_LE(g[0] / g[1], 2);
}

TEST(BlockDecomp, PartitionIsDisjointAndComplete) {
  const Shape shape = Shape::of({13, 7});
  for (int np : {1, 2, 4, 6}) {
    const BlockDecomp d = BlockDecomp::regular(shape, np);
    std::set<std::pair<Index, Index>> seen;
    for (int p = 0; p < np; ++p) {
      const RegularSection box = d.ownedBox(p);
      box.forEach([&](const Point& pt, Index) {
        EXPECT_TRUE(seen.insert({pt[0], pt[1]}).second)
            << "duplicate ownership of (" << pt[0] << "," << pt[1] << ")";
        EXPECT_EQ(d.ownerOf(pt), p);
      });
    }
    EXPECT_EQ(static_cast<Index>(seen.size()), shape.numElements());
  }
}

TEST(BlockDecomp, ProcCoordRoundTrip) {
  const BlockDecomp d(Shape::of({16, 16}), {2, 3});
  for (int p = 0; p < 6; ++p) EXPECT_EQ(d.procAt(d.procCoord(p)), p);
}

TEST(BlockDecomp, CeilingBlocks) {
  // 10 elements over 4 procs: blocks of 3,3,3,1 (HPF BLOCK rule).
  const BlockDecomp d(Shape::of({10}), {4});
  EXPECT_EQ(d.ownedRange(0, 0), (std::pair<Index, Index>{0, 2}));
  EXPECT_EQ(d.ownedRange(0, 1), (std::pair<Index, Index>{3, 5}));
  EXPECT_EQ(d.ownedRange(0, 3), (std::pair<Index, Index>{9, 9}));
}

TEST(BlockDecomp, EmptyBlocks) {
  // 3 elements over 4 procs: ceil(3/4)=1 per block, last proc owns nothing.
  const BlockDecomp d(Shape::of({3}), {4});
  const auto [lo, hi] = d.ownedRange(0, 3);
  EXPECT_GT(lo, hi);
  EXPECT_TRUE(d.ownedBox(3).empty());
}

TEST(BlockDecomp, LocalOffsetRowMajor) {
  const BlockDecomp d(Shape::of({8, 8}), {2, 2});
  // proc 0 owns [0..3]x[0..3]; local shape 4x4.
  EXPECT_EQ(d.localOffset(0, Point::of({0, 0})), 0);
  EXPECT_EQ(d.localOffset(0, Point::of({0, 3})), 3);
  EXPECT_EQ(d.localOffset(0, Point::of({1, 0})), 4);
  EXPECT_EQ(d.localOffset(0, Point::of({3, 3})), 15);
  // proc 3 owns [4..7]x[4..7].
  EXPECT_EQ(d.localOffset(3, Point::of({4, 4})), 0);
  EXPECT_EQ(d.localOffset(3, Point::of({7, 7})), 15);
}

TEST(BlockDecomp, LocalOffsetRejectsForeignPoint) {
  const BlockDecomp d(Shape::of({8, 8}), {2, 2});
  EXPECT_THROW(d.localOffset(0, Point::of({7, 7})), Error);
}

TEST(BlockDecomp, LocalShapesSumToGlobal) {
  const Shape shape = Shape::of({257, 129});
  const BlockDecomp d = BlockDecomp::regular(shape, 8);
  Index total = 0;
  for (int p = 0; p < 8; ++p) total += d.localShape(p).numElements();
  EXPECT_EQ(total, shape.numElements());
}

}  // namespace
}  // namespace mc::layout
