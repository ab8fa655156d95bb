// Micro-benchmarks (google-benchmark) for linearization enumeration — the
// ownership inquiry at the heart of every Meta-Chaos schedule build,
// LibraryAdapter::enumerateRangeRuns, measured per region type / library
// adapter over the whole set (and over one chunk of it for Parti).  Items
// are elements; regular layouts answer in one run per section row segment,
// irregular ones degrade to count-1 runs.
//
// Also the two host passes an irregular build makes over its index lists:
// the digest of an index region (HashStream::podSpan, as
// core::Region::indices takes it) and chaos::sortUnique on a dense batch
// (bitmap) and a sparse one (radix sort), one on each side of its
// selection.
#include <benchmark/benchmark.h>

#include "chaos/deref_cache.h"
#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/tulip_adapter.h"
#include "util/hash.h"
#include "util/rng.h"

namespace {

using mc::layout::Index;
using mc::layout::RegularSection;
using mc::layout::Shape;
using namespace mc::core;

/// Times adapter.enumerateRangeRuns over positions [lo, hi) of `set`.
void timeRangeRuns(benchmark::State& state, const LibraryAdapter& adapter,
                   const DistObject& obj, const SetOfRegions& set, Index lo,
                   Index hi) {
  Index sink = 0;
  const LibraryAdapter::RunFn sum = [&](Index, int owner, Index off,
                                        Index count, Index) {
    sink += owner + off + count;
  };
  for (auto _ : state) {
    adapter.enumerateRangeRuns(obj, set, lo, hi, sum);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * (hi - lo));
}

void BM_EnumerateParti(benchmark::State& state) {
  const Index side = state.range(0);
  auto desc = std::make_shared<const mc::parti::PartiDesc>(
      mc::parti::PartiDesc{
          mc::layout::BlockDecomp::regular(Shape::of({side, side}), 16), 1});
  const DistObject obj("parti", desc);
  SetOfRegions set;
  set.add(Region::section(RegularSection::box({0, 0}, {side - 1, side - 1})));
  timeRangeRuns(state, PartiAdapter(), obj, set, 0, set.numElements());
}
BENCHMARK(BM_EnumerateParti)->Arg(256)->Arg(512);

void BM_EnumerateHpfCyclic(benchmark::State& state) {
  const Index side = state.range(0);
  auto dist = std::make_shared<const mc::hpfrt::HpfDist>(
      Shape::of({side, side}),
      std::vector<mc::hpfrt::DimDist>{
          mc::hpfrt::DimDist{mc::hpfrt::DistKind::kCyclic, 16, 1},
          mc::hpfrt::DimDist{mc::hpfrt::DistKind::kBlockCyclic, 1, 4}});
  const DistObject obj("hpf", dist);
  SetOfRegions set;
  set.add(Region::section(RegularSection::box({0, 0}, {side - 1, side - 1})));
  timeRangeRuns(state, HpfAdapter(), obj, set, 0, set.numElements());
}
BENCHMARK(BM_EnumerateHpfCyclic)->Arg(256)->Arg(512);

void BM_EnumerateChaosReplicated(benchmark::State& state) {
  const Index n = state.range(0);
  std::vector<mc::chaos::ElementLoc> entries(static_cast<size_t>(n));
  std::vector<Index> next(16, 0);  // each owner's offsets form a row
  mc::Rng rng(7);
  for (Index g = 0; g < n; ++g) {
    const auto p = static_cast<size_t>(rng.below(16));
    entries[static_cast<size_t>(g)] =
        mc::chaos::ElementLoc{static_cast<int>(p), next[p]++};
  }
  auto table = std::make_shared<const mc::chaos::TranslationTable>(
      mc::chaos::TranslationTable::replicatedFromEntries(std::move(entries),
                                                         16));
  const DistObject obj("chaos", table);
  std::vector<Index> ids(static_cast<size_t>(n));
  for (Index k = 0; k < n; ++k) ids[static_cast<size_t>(k)] = n - 1 - k;
  SetOfRegions set;
  set.add(Region::indices(std::move(ids)));
  timeRangeRuns(state, ChaosAdapter(), obj, set, 0, set.numElements());
}
BENCHMARK(BM_EnumerateChaosReplicated)->Arg(65536);

void BM_EnumerateTulip(benchmark::State& state) {
  const Index n = state.range(0);
  auto desc = std::make_shared<const mc::tulip::TulipDesc>(
      mc::tulip::TulipDesc{n, 16, mc::tulip::Placement::kCyclic});
  const DistObject obj("pc++", desc);
  SetOfRegions set;
  set.add(Region::range(0, n - 1));
  timeRangeRuns(state, TulipAdapter(), obj, set, 0, set.numElements());
}
BENCHMARK(BM_EnumerateTulip)->Arg(65536);

void BM_EnumerateRangeParti(benchmark::State& state) {
  // Range enumeration must cost O(range), not O(set): enumerate 1/16th.
  const Index side = 1024;
  auto desc = std::make_shared<const mc::parti::PartiDesc>(
      mc::parti::PartiDesc{
          mc::layout::BlockDecomp::regular(Shape::of({side, side}), 16), 0});
  const DistObject obj("parti", desc);
  SetOfRegions set;
  set.add(Region::section(RegularSection::box({0, 0}, {side - 1, side - 1})));
  const Index chunk = side * side / 16;
  timeRangeRuns(state, PartiAdapter(), obj, set, 5 * chunk, 6 * chunk);
}
BENCHMARK(BM_EnumerateRangeParti);

void BM_DigestIndexList(benchmark::State& state) {
  // mesh_coupling's permutation region: 512^2 indices, 2 MiB.
  const Index n = Index{1} << 18;
  mc::Rng rng(11);
  std::vector<Index> ids(static_cast<size_t>(n));
  for (Index& g : ids) g = static_cast<Index>(rng.below(n));
  for (auto _ : state) {
    mc::HashStream h;
    h.podSpan(std::span<const Index>(ids));
    benchmark::DoNotOptimize(h.digest());
  }
  state.SetBytesProcessed(state.iterations() * n *
                          static_cast<Index>(sizeof(Index)));
}
BENCHMARK(BM_DigestIndexList);

/// Times chaos::sortUnique on 261,888 references (one rank's edge
/// endpoints in mesh_coupling) drawn from [0, span).
void timeSortUnique(benchmark::State& state, Index span) {
  const std::size_t refs = 261888;
  mc::Rng rng(13);
  std::vector<Index> globals(refs);
  for (Index& g : globals) g = static_cast<Index>(rng.below(span));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc::chaos::sortUnique(globals, span));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<Index>(refs));
}

void BM_SortUniqueDense(benchmark::State& state) {
  timeSortUnique(state, Index{1} << 18);  // 4,096 bitmap words
}
BENCHMARK(BM_SortUniqueDense);

void BM_SortUniqueSparse(benchmark::State& state) {
  timeSortUnique(state, Index{1} << 40);
}
BENCHMARK(BM_SortUniqueSparse);

}  // namespace

BENCHMARK_MAIN();
