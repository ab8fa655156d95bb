// Property tests for the vectorized run kernels (sched/kernels.h): every
// compiled pack/unpack/scatter-add variant must be bit-identical to the
// element-wise oracle and to the sched::reference executors on randomized
// (start,count,stride) runs — including stride 0, stride 1, and negative
// strides — with aliased src/dst buffers guarded by Footprint, and with
// float `+=` staying bitwise deterministic under shuffled arrival.
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "chaos/localize.h"
#include "chaos/partition.h"
#include "obs/metrics.h"
#include "oracle/reference_executor.h"
#include "sched/executor.h"
#include "sched/footprint.h"
#include "sched/kernels.h"
#include "transport/world.h"

namespace mc::sched {
namespace {

using layout::Index;
using transport::Comm;
using transport::World;

OffsetPlan planFromOffsets(const std::vector<Index>& offsets) {
  OffsetPlan p;
  p.peer = 1;
  p.runs = compressOffsets(std::span<const Index>(offsets));
  return p;
}

OffsetPlan planFromRuns(std::vector<OffsetRun> runs) {
  OffsetPlan p;
  p.peer = 1;
  p.runs = std::move(runs);
  return p;
}

/// Checks one plan's compiled kernels against the element-wise oracle for
/// pack, unpack, and accumulating unpack.
void checkPlanKernels(const OffsetPlan& plan, Index bufSize) {
  const std::vector<Index> offs =
      expandOffsets(std::span<const OffsetRun>(plan.runs));
  const size_t n = offs.size();
  const PlanKernel kernel = PlanKernel::compile(plan);

  std::vector<double> src(static_cast<size_t>(bufSize));
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = 1.0 + 0.125 * static_cast<double>(i);
  }

  // pack: out[i] = src[offs[i]].
  std::vector<double> got(n, -1.0), want(n, -2.0);
  packKernel<double>(kernel, plan, src, got.data());
  for (size_t i = 0; i < n; ++i) want[i] = src[static_cast<size_t>(offs[i])];
  EXPECT_EQ(got, want);

  // unpack: dst[offs[i]] = buf[i], in element order (last write wins on
  // duplicate offsets — stride-0 runs).
  std::vector<double> buf(n);
  for (size_t i = 0; i < n; ++i) buf[i] = 100.0 + static_cast<double>(i);
  std::vector<double> dstGot(static_cast<size_t>(bufSize), 0.0);
  std::vector<double> dstWant(dstGot);
  unpackKernel<double>(kernel, plan, buf.data(), dstGot);
  for (size_t i = 0; i < n; ++i) {
    dstWant[static_cast<size_t>(offs[i])] = buf[i];
  }
  EXPECT_EQ(dstGot, dstWant);

  // unpackAdd: dst[offs[i]] += buf[i], element order (duplicates
  // accumulate; float order must match the oracle exactly).
  std::fill(dstGot.begin(), dstGot.end(), 0.5);
  std::fill(dstWant.begin(), dstWant.end(), 0.5);
  unpackAddKernel<double>(kernel, plan, buf.data(), dstGot);
  for (size_t i = 0; i < n; ++i) {
    dstWant[static_cast<size_t>(offs[i])] += buf[i];
  }
  EXPECT_EQ(dstGot, dstWant);
}

TEST(PlanKernel, ClassificationPicksTheExpectedVariant) {
  EXPECT_EQ(classifyPlan(planFromOffsets({})), KernelKind::kEmpty);
  // Single stride-1 run.
  EXPECT_EQ(classifyPlan(planFromOffsets({4, 5, 6, 7})),
            KernelKind::kContiguous);
  // Single run, count 1: contiguous (stride irrelevant).
  EXPECT_EQ(classifyPlan(planFromOffsets({9})),
            KernelKind::kContiguous);
  // Single constant-stride run.
  EXPECT_EQ(classifyPlan(planFromOffsets({0, 3, 6, 9})),
            KernelKind::kStrided);
  // Single descending run (negative stride).
  EXPECT_EQ(classifyPlan(planFromOffsets({9, 6, 3, 0})),
            KernelKind::kStrided);
  // Many short runs: flattened to an index list.
  EXPECT_EQ(classifyPlan(planFromOffsets({0, 1, 7, 8, 3, 4, 11, 12})),
            KernelKind::kIndexList);
  // Few long runs: run-wise loop.
  EXPECT_EQ(classifyPlan(planFromRuns({OffsetRun{0, 16, 1},
                                       OffsetRun{100, 16, 2}})),
            KernelKind::kRunList);
}

TEST(PlanKernel, EdgeCaseRunsMatchElementwiseOracle) {
  // Hand-built runs covering stride 0 / 1 / negative and count 1.
  checkPlanKernels(planFromRuns({OffsetRun{10, 5, 1}}), 32);    // contiguous
  checkPlanKernels(planFromRuns({OffsetRun{3, 4, 0}}), 32);     // stride 0
  checkPlanKernels(planFromRuns({OffsetRun{20, 6, -2}}), 32);   // descending
  checkPlanKernels(planFromRuns({OffsetRun{7, 1, 99}}), 32);    // count 1
  checkPlanKernels(planFromRuns({OffsetRun{0, 8, 3}}), 32);     // strided
  // Mixed short runs (flattens), including duplicate offsets across runs.
  checkPlanKernels(planFromRuns({OffsetRun{0, 2, 1}, OffsetRun{0, 2, 1},
                                 OffsetRun{30, 2, -3}, OffsetRun{5, 1, 0}}),
                   32);
  // Long runs stay run-wise.
  checkPlanKernels(planFromRuns({OffsetRun{0, 12, 1}, OffsetRun{40, 12, 2}}),
                   80);
  checkPlanKernels(planFromOffsets({}), 8);  // empty
}

TEST(PlanKernel, RandomizedRunsMatchElementwiseOracle) {
  std::mt19937 rng(2026);
  std::uniform_int_distribution<int> runCount(1, 12);
  std::uniform_int_distribution<Index> count(1, 9);
  std::uniform_int_distribution<Index> stride(-3, 3);
  for (int iter = 0; iter < 200; ++iter) {
    const Index bufSize = 256;
    std::vector<OffsetRun> runs;
    const int nr = runCount(rng);
    for (int r = 0; r < nr; ++r) {
      OffsetRun run{0, count(rng), stride(rng)};
      // Place the run so every element stays inside the buffer.
      const Index span = (run.count - 1) * (run.stride < 0 ? -run.stride
                                                           : run.stride);
      std::uniform_int_distribution<Index> start(
          run.stride < 0 ? span : 0,
          run.stride < 0 ? bufSize - 1 : bufSize - 1 - span);
      run.start = start(rng);
      runs.push_back(run);
    }
    checkPlanKernels(planFromRuns(std::move(runs)), bufSize);
    // And a random offset list, compressed as a builder would.
    std::uniform_int_distribution<Index> off(0, bufSize - 1);
    std::vector<Index> offs(static_cast<size_t>(1 + iter % 40));
    for (Index& o : offs) o = off(rng);
    checkPlanKernels(planFromOffsets(offs), bufSize);
  }
}

TEST(LocalKernel, FlattenGateKeepsMemmoveRunsRunwise) {
  // A (1,1)-stride run with count > 1 must NOT flatten: copyLocalRuns
  // gives it read-all-then-write (memmove) semantics under aliasing.
  Schedule overlapping;
  overlapping.localRuns = {LocalRun{0, 1, 4, 1, 1}};
  EXPECT_EQ(LocalKernel::compile(overlapping).kind, KernelKind::kRunList);
  // Count-1 and non-(1,1)-stride short runs flatten.
  Schedule fine;
  fine.localRuns = {LocalRun{0, 9, 1, 1, 1}, LocalRun{4, 2, 2, 3, 1},
                    LocalRun{7, 20, 2, 1, -1}};
  const LocalKernel k = LocalKernel::compile(fine);
  ASSERT_EQ(k.kind, KernelKind::kIndexList);
  // Flattened order == element order == copyLocalRuns order for these runs.
  std::vector<double> src = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<double> dst(24, -1.0);
  k.copy<double>(src, dst);
  std::vector<double> want(24, -1.0);
  copyLocalRuns<double>(std::span<const LocalRun>(fine.localRuns), src, want);
  EXPECT_EQ(dst, want);
  // add variant against addLocalRuns.
  std::fill(dst.begin(), dst.end(), 0.25);
  std::fill(want.begin(), want.end(), 0.25);
  k.add<double>(src, dst);
  addLocalRuns<double>(std::span<const LocalRun>(fine.localRuns), src, want);
  EXPECT_EQ(dst, want);
}

TEST(PlanKernel, FittingOffsetsKeepOnlyTheNarrowStream) {
  // Many short runs flatten to an index list, held as 32 bits only.
  const OffsetPlan plan = planFromRuns({OffsetRun{0, 2, 1}, OffsetRun{7, 2, 1},
                                        OffsetRun{3, 2, 1},
                                        OffsetRun{12, 2, -1}});
  const PlanKernel k = PlanKernel::compile(plan);
  ASSERT_EQ(k.kind, KernelKind::kIndexList);
  EXPECT_TRUE(k.ownedIndices.empty());
  EXPECT_EQ(k.idx32,
            (std::vector<std::uint32_t>{0, 1, 7, 8, 3, 4, 12, 11}));
  EXPECT_EQ(k.extent, 13);
  // A plan of singleton runs narrows likewise.
  const PlanKernel flat = PlanKernel::compile(planFromOffsets({5, 0, 9}));
  EXPECT_TRUE(flat.ownedIndices.empty());
  EXPECT_EQ(flat.idx32, (std::vector<std::uint32_t>{5, 0, 9}));
  EXPECT_EQ(flat.extent, 10);
  // Local transfers likewise.
  Schedule local;
  local.localRuns = {LocalRun{0, 9, 1, 1, 1}, LocalRun{4, 2, 2, 3, 1},
                     LocalRun{7, 20, 2, 1, -1}};
  const LocalKernel lk = LocalKernel::compile(local);
  ASSERT_EQ(lk.kind, KernelKind::kIndexList);
  EXPECT_TRUE(lk.srcIdx.empty());
  EXPECT_TRUE(lk.dstIdx.empty());
  EXPECT_EQ(lk.srcIdx32, (std::vector<std::uint32_t>{0, 4, 7, 7, 8}));
  EXPECT_EQ(lk.dstIdx32, (std::vector<std::uint32_t>{9, 2, 3, 20, 19}));
  EXPECT_EQ(lk.srcExtent, 9);
  EXPECT_EQ(lk.dstExtent, 21);
}

TEST(PlanKernel, OffsetBeyond32BitsKeepsOnlyTheWideList) {
  // Compiled but never executed: no test can allocate such a buffer.
  const Index big = Index{1} << 32;
  const OffsetPlan plan = planFromRuns(
      {OffsetRun{0, 2, 1}, OffsetRun{big, 1, 0}, OffsetRun{5, 1, 0}});
  const PlanKernel k = PlanKernel::compile(plan);
  ASSERT_EQ(k.kind, KernelKind::kIndexList);
  EXPECT_TRUE(k.idx32.empty());
  EXPECT_EQ(k.ownedIndices,
            expandOffsets(std::span<const OffsetRun>(plan.runs)));
  EXPECT_EQ(k.extent, big + 1);

  Schedule local;
  local.localRuns = {LocalRun{0, big, 1, 1, 1}, LocalRun{2, 3, 1, 1, 1}};
  const LocalKernel lk = LocalKernel::compile(local);
  ASSERT_EQ(lk.kind, KernelKind::kIndexList);
  EXPECT_TRUE(lk.srcIdx32.empty());
  EXPECT_TRUE(lk.dstIdx32.empty());
  EXPECT_EQ(lk.srcIdx, (std::vector<Index>{0, 2}));
  EXPECT_EQ(lk.dstIdx, (std::vector<Index>{big, 3}));
  EXPECT_EQ(lk.dstExtent, big + 1);
}

// --- executor-level differentials ------------------------------------------

/// An irregular gather schedule from a real localize run: every rank
/// references a shuffled sample of the global array, producing the mostly
/// count-2 random-stride plans whose dispatch the kernels exist for.
chaos::Localized irregularLocalized(Comm& c, const chaos::TranslationTable& t,
                                    Index n, unsigned seed) {
  std::mt19937 rng(seed + static_cast<unsigned>(c.rank()) * 131u);
  std::uniform_int_distribution<Index> pick(0, n - 1);
  std::vector<Index> refs(static_cast<size_t>(2 * n / c.size()));
  for (Index& g : refs) g = pick(rng);
  return chaos::localize(c, t, refs);
}

TEST(KernelExecutor, IrregularGatherMatchesReferenceBitwise) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 160;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 3);
    const auto table = chaos::TranslationTable::build(
        c, mine, n, chaos::TranslationTable::Storage::kReplicated);
    chaos::Localized loc = irregularLocalized(c, table, n, 17);

    std::vector<double> owned(mine.size());
    for (size_t i = 0; i < owned.size(); ++i) {
      owned[i] = 1000.0 * c.rank() + static_cast<double>(i) * 0.75;
    }
    std::vector<double> ghostRef(static_cast<size_t>(loc.ghostCount), -1.0);
    reference::execute<double>(c, loc.gatherSched, owned, ghostRef,
                               c.nextUserTag());

    Executor<double> ex(c, loc.gatherSched);
    std::vector<double> ghost(static_cast<size_t>(loc.ghostCount));
    for (int it = 0; it < 4; ++it) {
      std::fill(ghost.begin(), ghost.end(), -1.0);
      ex.run(owned, ghost);
      EXPECT_EQ(ghost, ghostRef) << "iteration " << it;
    }
  });
}

TEST(KernelExecutor, ScatterAddBitwiseDeterministicUnderShuffledArrival) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 120;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 5);
    const auto table = chaos::TranslationTable::build(
        c, mine, n, chaos::TranslationTable::Storage::kReplicated);
    chaos::Localized loc = irregularLocalized(c, table, n, 29);

    // Contributions with magnitudes that expose any reassociation.
    std::vector<double> ghost(static_cast<size_t>(loc.ghostCount));
    for (size_t i = 0; i < ghost.size(); ++i) {
      ghost[i] = (i % 3 == 0 ? 1e16 : 1.0) * (c.rank() % 2 == 0 ? 1 : -1);
    }
    std::vector<double> ownedRef(mine.size(), 0.125);
    reference::executeAdd<double>(c, loc.scatterAddSched, ghost, ownedRef,
                                  c.nextUserTag());

    Executor<double> ex(c, loc.scatterAddSched);
    std::vector<double> owned(mine.size());
    for (int it = 0; it < 4; ++it) {
      std::fill(owned.begin(), owned.end(), 0.125);
      // Shuffle real arrival order across iterations.
      if (c.rank() > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            ((c.rank() + it) % 3) * 3));
      }
      ex.runAdd(ghost, owned);
      EXPECT_EQ(owned, ownedRef) << "iteration " << it;
    }
  });
}

TEST(KernelExecutor, AliasedGhostFillGuardedByFootprint) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 96;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 9);
    const auto table = chaos::TranslationTable::build(
        c, mine, n, chaos::TranslationTable::Storage::kReplicated);
    chaos::Localized loc = irregularLocalized(c, table, n, 41);

    // One buffer: owned elements followed by the ghost area.  The gather's
    // recv offsets index the ghost *suffix*, so shift them up and run the
    // schedule aliased (src == dst), the chaos ghost-fill idiom.
    Schedule aliased = loc.gatherSched;
    const Index base = static_cast<Index>(mine.size());
    for (OffsetPlan& p : aliased.recvs) {
      for (OffsetRun& r : p.runs) r.start += base;
    }
    const size_t total = mine.size() + static_cast<size_t>(loc.ghostCount);
    std::vector<double> buf(total, -7.0);
    for (size_t i = 0; i < mine.size(); ++i) {
      buf[i] = 10.0 * c.rank() + static_cast<double>(i);
    }
    // Footprint guards the aliasing: the destination offsets the run
    // touches must all lie in the ghost suffix, never in the owned prefix
    // the pack reads from.
    const Footprint fp = Footprint::of(aliased);
    for (size_t i = 0; i < mine.size(); ++i) {
      ASSERT_FALSE(fp.dstTouched.contains(static_cast<Index>(i)));
    }

    std::vector<double> expected(buf);
    {
      std::vector<double> ghost(static_cast<size_t>(loc.ghostCount), 0.0);
      reference::execute<double>(c, loc.gatherSched, buf, ghost,
                                 c.nextUserTag());
      std::copy(ghost.begin(), ghost.end(), expected.begin() + base);
    }
    Executor<double> ex(c, aliased);
    ex.run(buf, buf);  // aliased
    EXPECT_EQ(buf, expected);
  });
}

TEST(KernelExecutor, IrregularPlansDispatchToIndexListAndCount) {
  World::runSPMD(4, [](Comm& c) {
    const Index n = 160;
    const auto mine = chaos::randomPartition(n, c.size(), c.rank(), 23);
    const auto table = chaos::TranslationTable::build(
        c, mine, n, chaos::TranslationTable::Storage::kReplicated);
    chaos::Localized loc = irregularLocalized(c, table, n, 61);

    const obs::Snapshot before = obs::threadRegistry().snapshot();
    Executor<double> ex(c, loc.gatherSched);
    std::vector<double> owned(mine.size(), 1.0);
    std::vector<double> ghost(static_cast<size_t>(loc.ghostCount));
    ex.run(owned, ghost);
    const obs::Snapshot diff = obs::threadRegistry().snapshot() - before;
    // Random gathers compile to index lists; the bind recorded the
    // dispatch and the run recorded executions.
    if (!loc.gatherSched.sends.empty() || !loc.gatherSched.recvs.empty()) {
      EXPECT_GT(diff.get("kernel.dispatch.index_list"), 0.0);
      EXPECT_GT(diff.get("kernel.exec.index_list"), 0.0);
    }
  });
}

}  // namespace
}  // namespace mc::sched
