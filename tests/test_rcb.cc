// Tests for the recursive-coordinate-bisection partitioner and mesh
// coordinates, including an end-to-end edge sweep over an RCB-partitioned
// unstructured mesh (the realistic Chaos usage: a geometric partitioner
// feeds the runtime) and a differential check of the one-branch
// partitioner against the whole-tree oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "chaos/irregular_loop.h"
#include "chaos/partition.h"
#include "meshgen/meshgen.h"
#include "oracle/repartition_oracle.h"
#include "transport/world.h"
#include "util/rng.h"

namespace mc::chaos {
namespace {

using layout::Index;
using transport::Comm;
using transport::World;

std::pair<std::vector<double>, std::vector<double>> gridCoords(Index side,
                                                               std::uint64_t seed) {
  const auto perm = meshgen::nodePermutation(side * side, seed);
  auto coords = meshgen::gridCoordinates(side, side, perm);
  return {std::move(coords.x), std::move(coords.y)};
}

TEST(Rcb, CoversExactlyOnce) {
  const auto [x, y] = gridCoords(9, 3);
  for (int np : {1, 2, 3, 7, 8}) {
    std::set<Index> seen;
    for (int r = 0; r < np; ++r) {
      for (Index g : rcbPartition(x, y, np, r)) {
        EXPECT_TRUE(seen.insert(g).second);
      }
    }
    EXPECT_EQ(seen.size(), x.size());
  }
}

TEST(Rcb, BalancedParts) {
  const auto [x, y] = gridCoords(16, 5);
  const int np = 8;
  for (int r = 0; r < np; ++r) {
    const auto mine = rcbPartition(x, y, np, r);
    EXPECT_NEAR(static_cast<double>(mine.size()), 256.0 / np, 1.0);
  }
}

TEST(Rcb, Deterministic) {
  const auto [x, y] = gridCoords(8, 9);
  EXPECT_EQ(rcbPartition(x, y, 4, 2), rcbPartition(x, y, 4, 2));
}

TEST(Rcb, PartsAreSpatiallyCompact) {
  // Each RCB part's bounding box must be much smaller than the domain: the
  // whole point of a geometric partitioner.
  const Index side = 16;
  const auto [x, y] = gridCoords(side, 1);
  const int np = 4;
  for (int r = 0; r < np; ++r) {
    const auto mine = rcbPartition(x, y, np, r);
    double xMin = 1e9, xMax = -1e9, yMin = 1e9, yMax = -1e9;
    for (Index g : mine) {
      xMin = std::min(xMin, x[static_cast<size_t>(g)]);
      xMax = std::max(xMax, x[static_cast<size_t>(g)]);
      yMin = std::min(yMin, y[static_cast<size_t>(g)]);
      yMax = std::max(yMax, y[static_cast<size_t>(g)]);
    }
    const double area = (xMax - xMin + 1) * (yMax - yMin + 1);
    // A quadrant-ish part covers ~1/4 of the domain, far below the whole.
    EXPECT_LE(area, 0.6 * side * side) << "rank " << r;
  }
}

TEST(Rcb, DegenerateInputs) {
  std::vector<double> x{0.5}, y{0.5};
  EXPECT_EQ(rcbPartition(x, y, 1, 0), (std::vector<Index>{0}));
  // More parts than points: someone gets nothing, everything covered once.
  std::set<Index> seen;
  for (int r = 0; r < 4; ++r) {
    for (Index g : rcbPartition(x, y, 4, r)) seen.insert(g);
  }
  EXPECT_EQ(seen.size(), 1u);
  // Empty input.
  EXPECT_TRUE(rcbPartition({}, {}, 3, 1).empty());
  // Mismatched coordinates.
  std::vector<double> bad{1.0, 2.0};
  EXPECT_THROW(rcbPartition(x, bad, 2, 0), Error);
}

TEST(Rcb, CutsReduceEdgeCuts) {
  // On a grid graph, RCB should cut far fewer edges than a random
  // partition — the property that makes it the realistic choice.
  const Index side = 16;
  const Index n = side * side;
  const std::uint64_t seed = 11;
  const auto perm = meshgen::nodePermutation(n, seed);
  const auto edges = meshgen::renumberNodes(meshgen::gridEdges(side, side), perm);
  const auto coords = meshgen::gridCoordinates(side, side, perm);
  const int np = 4;
  auto countCuts = [&](auto partitionOf) {
    Index cuts = 0;
    for (Index e = 0; e < edges.numEdges(); ++e) {
      if (partitionOf(edges.ia[static_cast<size_t>(e)]) !=
          partitionOf(edges.ib[static_cast<size_t>(e)])) {
        ++cuts;
      }
    }
    return cuts;
  };
  std::vector<int> rcbOwner(static_cast<size_t>(n));
  for (int r = 0; r < np; ++r) {
    for (Index g : rcbPartition(coords.x, coords.y, np, r)) {
      rcbOwner[static_cast<size_t>(g)] = r;
    }
  }
  std::vector<int> rndOwner(static_cast<size_t>(n));
  for (int r = 0; r < np; ++r) {
    for (Index g : randomPartition(n, np, r, seed)) {
      rndOwner[static_cast<size_t>(g)] = r;
    }
  }
  const Index rcbCuts = countCuts([&](Index v) { return rcbOwner[static_cast<size_t>(v)]; });
  const Index rndCuts = countCuts([&](Index v) { return rndOwner[static_cast<size_t>(v)]; });
  EXPECT_LT(rcbCuts * 4, rndCuts) << "rcb=" << rcbCuts << " rnd=" << rndCuts;
}

TEST(Rcb, EdgeSweepOverRcbPartitionMatchesOracle) {
  const Index side = 8;
  const Index n = side * side;
  const std::uint64_t seed = 21;
  const auto perm = meshgen::nodePermutation(n, seed);
  const auto edges = meshgen::renumberNodes(meshgen::gridEdges(side, side), perm);
  const auto coords = meshgen::gridCoordinates(side, side, perm);

  // Serial oracle.
  std::vector<double> xs(static_cast<size_t>(n)), ys(static_cast<size_t>(n), 0.0);
  for (Index v = 0; v < n; ++v) xs[static_cast<size_t>(v)] = std::sqrt(1.0 + v);
  for (Index e = 0; e < edges.numEdges(); ++e) {
    const double contrib = (xs[static_cast<size_t>(edges.ia[static_cast<size_t>(e)])] +
                            xs[static_cast<size_t>(edges.ib[static_cast<size_t>(e)])]) / 4.0;
    ys[static_cast<size_t>(edges.ia[static_cast<size_t>(e)])] += contrib;
    ys[static_cast<size_t>(edges.ib[static_cast<size_t>(e)])] += contrib;
  }

  World::runSPMD(4, [&](Comm& c) {
    const auto mine = rcbPartition(coords.x, coords.y, c.size(), c.rank());
    auto table = std::make_shared<const TranslationTable>(TranslationTable::build(
        c, mine, n, TranslationTable::Storage::kDistributed));
    IrregArray<double> x(c, table, mine), y(c, table, mine);
    x.fillByGlobal([](Index g) { return std::sqrt(1.0 + g); });
    const auto myEdges = blockPartition(edges.numEdges(), c.size(), c.rank());
    std::vector<Index> ia, ib;
    for (Index e : myEdges) {
      ia.push_back(edges.ia[static_cast<size_t>(e)]);
      ib.push_back(edges.ib[static_cast<size_t>(e)]);
    }
    EdgeSweep<double> sweep(c, *table, ia, ib);
    sweep.run(x, y);
    const auto got = y.gatherGlobal();
    for (Index v = 0; v < n; ++v) {
      EXPECT_NEAR(got[static_cast<size_t>(v)], ys[static_cast<size_t>(v)], 1e-9);
    }
  });
}

// ---------------------------------------------------------------------------
// Differential: the one-branch rcbPartition against the whole-tree oracle.

struct Cloud {
  std::string name;
  std::vector<double> x, y;
};

/// A side x side grid of points, each jittered by up to `jitter` in both
/// axes and sheared so row r shifts right by shear * r / side (the
/// adaptive_remap workload's cloud).
Cloud shearedGrid(Index side, double jitter, double shear,
                  std::uint64_t seed) {
  Cloud c;
  c.name = std::to_string(side) + "^2 jitter " + std::to_string(jitter) +
           " shear " + std::to_string(shear) + " seed " +
           std::to_string(seed);
  Rng rng(seed);
  for (Index g = 0; g < side * side; ++g) {
    const double row = static_cast<double>(g / side) + jitter * rng.uniform();
    const double col = static_cast<double>(g % side) + jitter * rng.uniform();
    c.x.push_back(col + shear * (row / static_cast<double>(side)));
    c.y.push_back(row);
  }
  return c;
}

/// Checks every (parts, rank) pair of one cloud for parts in 1..9; returns
/// the number of pairs compared.
int expectMatchesOracle(const Cloud& c) {
  int compared = 0;
  for (int np = 1; np <= 9; ++np) {
    const std::vector<int> owner = oracle::rcbOwners(c.x, c.y, np);
    std::vector<std::vector<Index>> expect(static_cast<std::size_t>(np));
    for (std::size_t g = 0; g < owner.size(); ++g) {
      expect[static_cast<std::size_t>(owner[g])].push_back(
          static_cast<Index>(g));
    }
    for (int r = 0; r < np; ++r) {
      EXPECT_EQ(rcbPartition(c.x, c.y, np, r),
                expect[static_cast<std::size_t>(r)])
          << c.name << ", " << np << " parts, rank " << r;
      ++compared;
    }
  }
  return compared;
}

TEST(RcbOracle, JitteredAndShearedCloudsMatchTheWholeTree) {
  int compared = 0;
  for (const Index side : {Index{128}, Index{512}}) {
    compared += expectMatchesOracle(shearedGrid(side, 0.5, 0.0, 1));
    compared += expectMatchesOracle(shearedGrid(side, 0.5, 27.0, 2));
  }
  compared += expectMatchesOracle(shearedGrid(128, 0.5, 63.0, 3));
  compared += expectMatchesOracle(shearedGrid(128, 0.25, 200.0, 4));
  EXPECT_EQ(compared, 6 * 45);
}

TEST(RcbOracle, LatticeTiesAndDuplicateCoordinatesMatchTheWholeTree) {
  // Exact lattices: whole columns and rows tie on the cut coordinate, so
  // the global index decides every cut; the square one also ties the
  // axis choice (equal extents cut along x).
  expectMatchesOracle(shearedGrid(64, 0.0, 0.0, 1));
  expectMatchesOracle(shearedGrid(37, 0.0, 0.0, 1));
  expectMatchesOracle(shearedGrid(40, 0.0, 12.0, 1));
  // Heavy duplicates: 2,000 points on a 3 x 2 set of coordinates, and
  // 500 copies of one point.
  Cloud dup{"3x2 duplicates", {}, {}};
  for (Index g = 0; g < 2000; ++g) {
    dup.x.push_back(static_cast<double>(g % 3));
    dup.y.push_back(static_cast<double>((g * 7 / 5) % 2));
  }
  expectMatchesOracle(dup);
  Cloud same{"one point 500 times", std::vector<double>(500, 1.25),
             std::vector<double>(500, -3.5)};
  expectMatchesOracle(same);
}

TEST(RcbOracle, FewerPointsThanPartsMatchTheWholeTree) {
  for (Index n = 0; n <= 8; ++n) {
    Cloud c = shearedGrid(3, 0.5, 1.0, 5);
    c.x.resize(static_cast<std::size_t>(n));
    c.y.resize(static_cast<std::size_t>(n));
    c.name = std::to_string(n) + " points";
    expectMatchesOracle(c);
  }
}

TEST(GridCoordinates, InverseOfPermutation) {
  const auto perm = meshgen::nodePermutation(12, 4);
  const auto coords = meshgen::gridCoordinates(3, 4, perm);
  for (Index k = 0; k < 12; ++k) {
    const auto id = static_cast<size_t>(perm[static_cast<size_t>(k)]);
    EXPECT_DOUBLE_EQ(coords.x[id], static_cast<double>(k % 4));
    EXPECT_DOUBLE_EQ(coords.y[id], static_cast<double>(k / 4));
  }
}

}  // namespace
}  // namespace mc::chaos
