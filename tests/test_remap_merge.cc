// Tests for the adaptive-application features: chaos::remap (repartition a
// live irregular array), sched::merge (one message per peer for grouped
// transfers), and Parti global reductions.
#include <gtest/gtest.h>

#include "chaos/localize.h"
#include "chaos/partition.h"
#include "chaos/remap.h"
#include "oracle/run_reference.h"
#include "parti/dist_array.h"
#include "transport/world.h"

namespace mc {
namespace {

using chaos::IrregArray;
using chaos::TranslationTable;
using layout::Index;
using layout::Point;
using layout::Shape;
using transport::Comm;
using transport::World;

TEST(Remap, PreservesValuesUnderNewDistribution) {
  for (int np : {1, 2, 4}) {
    World::runSPMD(np, [&](Comm& c) {
      const Index n = 40;
      const auto oldMine = chaos::blockPartition(n, c.size(), c.rank());
      auto table = std::make_shared<const TranslationTable>(
          TranslationTable::build(c, oldMine, n,
                                  TranslationTable::Storage::kDistributed));
      IrregArray<double> x(c, table, oldMine);
      x.fillByGlobal([](Index g) { return 3.0 * static_cast<double>(g) + 1.0; });

      const auto newMine = chaos::randomPartition(n, c.size(), c.rank(), 99);
      IrregArray<double> y = chaos::remap(
          x, newMine, TranslationTable::Storage::kDistributed);
      EXPECT_EQ(y.localCount(), static_cast<Index>(newMine.size()));
      const auto img = y.gatherGlobal();
      for (Index g = 0; g < n; ++g) {
        EXPECT_DOUBLE_EQ(img[static_cast<size_t>(g)],
                         3.0 * static_cast<double>(g) + 1.0)
            << "np=" << np;
      }
    });
  }
}

TEST(Remap, StorageCanChange) {
  World::runSPMD(3, [](Comm& c) {
    const Index n = 21;
    const auto oldMine = chaos::cyclicPartition(n, c.size(), c.rank());
    auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, oldMine, n,
                                TranslationTable::Storage::kReplicated));
    IrregArray<int> x(c, table, oldMine);
    x.fillByGlobal([](Index g) { return static_cast<int>(g * g); });
    const auto newMine = chaos::blockPartition(n, c.size(), c.rank());
    IrregArray<int> y =
        chaos::remap(x, newMine, TranslationTable::Storage::kDistributed);
    EXPECT_EQ(y.table().storage(), TranslationTable::Storage::kDistributed);
    const auto img = y.gatherGlobal();
    for (Index g = 0; g < n; ++g) {
      EXPECT_EQ(img[static_cast<size_t>(g)], static_cast<int>(g * g));
    }
  });
}

TEST(Remap, LocalizeWorksAfterRemap) {
  // The inspector/executor contract: schedules must be rebuilt after a
  // remap, and the rebuilt ones must see the new distribution.
  World::runSPMD(2, [](Comm& c) {
    const Index n = 16;
    const auto oldMine = chaos::blockPartition(n, c.size(), c.rank());
    auto table = std::make_shared<const TranslationTable>(
        TranslationTable::build(c, oldMine, n,
                                TranslationTable::Storage::kDistributed));
    IrregArray<double> x(c, table, oldMine);
    x.fillByGlobal([](Index g) { return static_cast<double>(g); });
    const auto newMine = chaos::cyclicPartition(n, c.size(), c.rank());
    IrregArray<double> y =
        chaos::remap(x, newMine, TranslationTable::Storage::kDistributed);

    std::vector<Index> refs;
    for (Index k = 0; k < n; ++k) refs.push_back((k * 5) % n);
    const chaos::Localized loc = chaos::localize(c, y.table(), refs);
    std::vector<double> ghost(static_cast<size_t>(loc.ghostCount));
    chaos::gatherGhosts<double>(c, loc, y.raw(), ghost);
    for (size_t i = 0; i < refs.size(); ++i) {
      const Index li = loc.localIndices[i];
      const double v = li < y.localCount()
                           ? y.raw()[static_cast<size_t>(li)]
                           : ghost[static_cast<size_t>(li - y.localCount())];
      EXPECT_DOUBLE_EQ(v, static_cast<double>(refs[i]));
    }
  });
}

TEST(ScheduleMerge, OneMessagePerPeerForGroupedTransfers) {
  World::runSPMD(2, [](Comm& c) {
    // Two disjoint transfers 0 -> 1 into different slots.
    sched::Schedule s1, s2;
    if (c.rank() == 0) {
      s1.sends.push_back(sched::reference::planOf(1, {0, 1}));
      s2.sends.push_back(sched::reference::planOf(1, {4, 5}));
    } else {
      s1.recvs.push_back(sched::reference::planOf(0, {0, 1}));
      s2.recvs.push_back(sched::reference::planOf(0, {6, 7}));
    }
    const std::vector<sched::Schedule> parts{s1, s2};
    const sched::Schedule merged = sched::merge(parts);
    std::vector<double> src{10, 11, 12, 13, 14, 15, 16, 17};
    std::vector<double> dst(8, 0.0);
    c.resetStats();
    sched::execute<double>(c, merged, src, dst, c.nextUserTag());
    if (c.rank() == 0) {
      EXPECT_EQ(c.stats().messagesSent, 1u);  // one message for both parts
    } else {
      EXPECT_EQ(c.stats().messagesReceived, 1u);
      EXPECT_DOUBLE_EQ(dst[0], 10);
      EXPECT_DOUBLE_EQ(dst[1], 11);
      EXPECT_DOUBLE_EQ(dst[6], 14);
      EXPECT_DOUBLE_EQ(dst[7], 15);
    }
  });
}

TEST(ScheduleMerge, EquivalentToSequentialExecution) {
  World::runSPMD(3, [](Comm& c) {
    // Ring transfers in two parts; merged result == sequential results.
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    sched::Schedule s1, s2;
    s1.sends.push_back(sched::reference::planOf(next, {0}));
    s1.recvs.push_back(sched::reference::planOf(prev, {4}));
    s2.sends.push_back(sched::reference::planOf(next, {1, 2}));
    s2.recvs.push_back(sched::reference::planOf(prev, {5, 6}));
    std::vector<double> src{1.0 + c.rank(), 10.0 + c.rank(), 20.0 + c.rank(), 0};
    std::vector<double> seq(8, 0.0), mrg(8, 0.0);
    sched::execute<double>(c, s1, src, seq, c.nextUserTag());
    sched::execute<double>(c, s2, src, seq, c.nextUserTag());
    const std::vector<sched::Schedule> parts{s1, s2};
    sched::execute<double>(c, sched::merge(parts), src, mrg, c.nextUserTag());
    EXPECT_EQ(seq, mrg);
  });
}

TEST(ScheduleMerge, RejectsMixedLocalCopyPolicies) {
  sched::Schedule a, b;
  a.bufferLocalCopies = true;
  b.bufferLocalCopies = false;
  const std::vector<sched::Schedule> parts{a, b};
  EXPECT_THROW(sched::merge(parts), Error);
}

TEST(ScheduleMerge, EmptyInput) {
  EXPECT_TRUE(sched::merge({}).sends.empty());
}

TEST(PartiReductions, SumAndMax) {
  for (int np : {1, 3, 4}) {
    World::runSPMD(np, [](Comm& c) {
      parti::BlockDistArray<double> a(c, Shape::of({6, 7}), 1);
      a.fillByPoint([](const Point& p) {
        return static_cast<double>(p[0] * 7 + p[1]);
      });
      EXPECT_DOUBLE_EQ(parti::globalSum(a), 41.0 * 42.0 / 2.0);
      EXPECT_DOUBLE_EQ(parti::globalMax(a), 41.0);
    });
  }
}

TEST(PartiReductions, MaxWithEmptyBlocks) {
  // 2x2 array over 8 processors: most own nothing.
  World::runSPMD(8, [](Comm& c) {
    parti::BlockDistArray<int> a(c, Shape::of({2, 2}), 0);
    a.fillByPoint([](const Point& p) { return static_cast<int>(p[0] + p[1]); });
    EXPECT_EQ(parti::globalMax(a), 2);
    EXPECT_EQ(parti::globalSum(a), 0 + 1 + 1 + 2);
  });
}

}  // namespace
}  // namespace mc
