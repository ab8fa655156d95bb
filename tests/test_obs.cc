// The observability layer: registry registration and epoch snapshot/diff,
// span nesting on the virtual clock, RunningStat::merge vs pooled
// equivalence, deterministic cross-rank aggregation, the mc-bench-v1
// emitter's explicit-empty contract, the Chrome trace exporter, and
// regression tests pinning the per-case accounting fixes (TrafficStats /
// CacheStats epoch diffs instead of destructive resets).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/adapters/parti_adapter.h"
#include "core/schedule_cache.h"
#include "obs/aggregate.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "parti/dist_array.h"
#include "sched/executor.h"
#include "transport/world.h"
#include "util/error.h"
#include "util/stats.h"

namespace mc::obs {
namespace {

using layout::Index;
using transport::Comm;
using transport::World;

/// Restores the global enabled flag (tests flip it; the default is off).
struct EnabledGuard {
  bool prev = enabled();
  ~EnabledGuard() { setEnabled(prev); }
};

// --- registry: counters, snapshot, epoch diff -----------------------------

TEST(Registry, SnapshotSamplesRegisteredCounters) {
  MetricsRegistry reg;
  double a = 1.0, b = 10.0;
  reg.registerCounter("t.a", [&] { return a; });
  reg.registerCounter("t.b", [&] { return b; });
  const Snapshot s0 = reg.snapshot();
  EXPECT_DOUBLE_EQ(s0.get("t.a"), 1.0);
  EXPECT_DOUBLE_EQ(s0.get("t.b"), 10.0);
  a = 4.0;
  b = 10.5;
  const Snapshot s1 = reg.snapshot();
  // Epoch diff: the cost of the region between the snapshots.
  const Snapshot d = s1 - s0;
  EXPECT_DOUBLE_EQ(d.get("t.a"), 3.0);
  EXPECT_DOUBLE_EQ(d.get("t.b"), 0.5);
  EXPECT_FALSE(d.has("t.c"));
  EXPECT_THROW(d.get("t.c"), Error);
}

TEST(Registry, DiffHandlesCountersRegisteredMidRegion) {
  MetricsRegistry reg;
  reg.registerCounter("t.a", [] { return 2.0; });
  const Snapshot before = reg.snapshot();
  reg.registerCounter("t.late", [] { return 7.0; });
  const Snapshot d = reg.snapshot() - before;
  EXPECT_DOUBLE_EQ(d.get("t.a"), 0.0);
  EXPECT_DOUBLE_EQ(d.get("t.late"), 7.0);  // diffs against zero
}

TEST(Registry, DuplicateNameThrows) {
  MetricsRegistry reg;
  reg.registerCounter("t.a", [] { return 0.0; });
  EXPECT_THROW(reg.registerCounter("t.a", [] { return 0.0; }), Error);
}

TEST(Registry, UnregisterPrefixDropsSubsystem) {
  MetricsRegistry reg;
  reg.registerCounter("sub.a", [] { return 1.0; });
  reg.registerCounter("sub.b", [] { return 2.0; });
  reg.registerCounter("other.a", [] { return 3.0; });
  reg.unregisterPrefix("sub.");
  const Snapshot s = reg.snapshot();
  EXPECT_FALSE(s.has("sub.a"));
  EXPECT_FALSE(s.has("sub.b"));
  EXPECT_TRUE(s.has("other.a"));
}

// --- spans ----------------------------------------------------------------

TEST(Spans, RecordNestingOnTheInstalledVirtualClock) {
  EnabledGuard guard;
  MetricsRegistry reg;
  double clock = 100.0;
  reg.setVirtualClock([&] { return clock; });
  setEnabled(true);

  const std::size_t outer = reg.beginSpan(phase::kSend);
  clock = 101.0;
  const std::size_t inner = reg.beginSpan(phase::kPack);
  EXPECT_EQ(reg.spanDepth(), 2);
  clock = 103.0;
  reg.endSpan(inner);
  clock = 106.0;
  reg.endSpan(outer);
  EXPECT_EQ(reg.spanDepth(), 0);

  const auto spans = reg.takeSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, phase::kSend);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_DOUBLE_EQ(spans[0].virtualBegin, 100.0);
  EXPECT_DOUBLE_EQ(spans[0].virtualEnd, 106.0);
  EXPECT_STREQ(spans[1].name, phase::kPack);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_DOUBLE_EQ(spans[1].virtualSeconds(), 2.0);
  EXPECT_GE(spans[0].cpuSeconds(), 0.0);
  EXPECT_TRUE(reg.spans().empty());  // takeSpans resets
}

TEST(Spans, DisabledModeRecordsNothing) {
  EnabledGuard guard;
  setEnabled(false);
  threadRegistry().clearSpans();
  {
    ScopedSpan span(phase::kCompute);
    ScopedSpan nested(phase::kPack);
  }
  EXPECT_TRUE(threadRegistry().spans().empty());
  EXPECT_EQ(threadRegistry().spanDepth(), 0);
}

TEST(Spans, ScopedSpanEarlyEndIsIdempotent) {
  EnabledGuard guard;
  setEnabled(true);
  threadRegistry().clearSpans();
  {
    ScopedSpan span(phase::kCompute);
    span.end();
    span.end();  // no-op; destructor is a third no-op
  }
  const auto spans = threadRegistry().takeSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(threadRegistry().spanDepth(), 0);
}

TEST(Spans, VirtualTimesComeFromTheCommClock) {
  EnabledGuard guard;
  setEnabled(true);
  double begin[2] = {0, 0}, end[2] = {0, 0};
  World::runSPMD(2, [&](Comm& c) {
    threadRegistry().clearSpans();
    {
      ScopedSpan span(phase::kCompute);
      c.advance(1.5 + c.rank());
    }
    const auto spans = threadRegistry().takeSpans();
    ASSERT_EQ(spans.size(), 1u);
    begin[c.rank()] = spans[0].virtualBegin;
    end[c.rank()] = spans[0].virtualEnd;
  });
  // Each rank's span is measured on its own virtual clock.
  EXPECT_NEAR(end[0] - begin[0], 1.5, 1e-12);
  EXPECT_NEAR(end[1] - begin[1], 2.5, 1e-12);
}

// --- RunningStat::merge ---------------------------------------------------

TEST(Stats, MergeMatchesPooledAccumulation) {
  RunningStat a, b, pooled;
  for (int i = 0; i < 40; ++i) {
    const double x = 0.1 * i * i - 3.0 * i + 7.0;
    (i % 3 == 0 ? a : b).add(x);
    pooled.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-9 * std::fabs(pooled.mean()));
  EXPECT_DOUBLE_EQ(a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(a.max(), pooled.max());
  EXPECT_NEAR(a.stddev(), pooled.stddev(), 1e-9 * pooled.stddev());
  EXPECT_NEAR(a.sum(), pooled.sum(), 1e-9 * std::fabs(pooled.sum()));
}

TEST(Stats, MergeWithEmptySidesIsExact) {
  RunningStat filled;
  filled.add(3.0);
  filled.add(5.0);

  RunningStat left = filled, empty;
  left.merge(empty);  // empty right side: unchanged
  EXPECT_EQ(left.count(), 2u);
  EXPECT_DOUBLE_EQ(left.mean(), 4.0);

  RunningStat right;
  right.merge(filled);  // empty left side: becomes the other
  EXPECT_EQ(right.count(), 2u);
  EXPECT_DOUBLE_EQ(right.mean(), 4.0);
  EXPECT_DOUBLE_EQ(right.stddev(), filled.stddev());

  RunningStat both;
  both.merge(empty);  // empty + empty stays explicitly empty
  EXPECT_EQ(both.count(), 0u);
  EXPECT_TRUE(std::isnan(both.mean()));
}

TEST(Stats, MergeOfSingletonsEqualsTwoAdds) {
  RunningStat a, b, direct;
  a.add(2.0);
  b.add(6.0);
  direct.add(2.0);
  direct.add(6.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), direct.mean());
  EXPECT_DOUBLE_EQ(a.variance(), direct.variance());
}

// --- cross-rank aggregation -----------------------------------------------

TEST(Aggregate, MatchesDirectStatisticsAndIsDeterministic) {
  constexpr int kProcs = 5;
  std::map<std::string, RunningStat> first, second;
  for (int round = 0; round < 2; ++round) {
    auto& out = round == 0 ? first : second;
    World::runSPMD(kProcs, [&](Comm& c) {
      MetricsRegistry reg;
      const double mine = 1.0 + 0.3 * c.rank() * c.rank();
      reg.registerCounter("t.v", [&] { return mine; });
      reg.registerCounter("t.const", [] { return 2.0; });
      const auto agg = aggregate(c, reg.snapshot());
      if (c.rank() == 0) out = agg;
    });
  }

  RunningStat direct;
  for (int r = 0; r < kProcs; ++r) direct.add(1.0 + 0.3 * r * r);
  const RunningStat& v = first.at("t.v");
  EXPECT_EQ(v.count(), static_cast<std::size_t>(kProcs));
  EXPECT_DOUBLE_EQ(v.min(), direct.min());
  EXPECT_DOUBLE_EQ(v.max(), direct.max());
  EXPECT_NEAR(v.mean(), direct.mean(), 1e-12);
  EXPECT_NEAR(v.stddev(), direct.stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(first.at("t.const").stddev(), 0.0);

  // The binomial allreduce fixes the merge tree, so aggregation is bitwise
  // reproducible run to run.
  for (const auto& [key, stat] : first) {
    const RunningStat& other = second.at(key);
    EXPECT_EQ(std::memcmp(&stat, &other, sizeof(RunningStat)), 0)
        << "aggregate of '" << key << "' differs between identical runs";
  }
}

TEST(Aggregate, KeySetDisagreementFailsLoudly) {
  std::atomic<int> failures{0};
  World::runSPMD(2, [&](Comm& c) {
    MetricsRegistry reg;
    // Rank 1 registers an extra metric: the digest agreement must throw on
    // every rank rather than silently pairing different keys.
    reg.registerCounter("t.a", [] { return 1.0; });
    if (c.rank() == 1) reg.registerCounter("t.b", [] { return 2.0; });
    try {
      (void)aggregate(c, reg.snapshot());
    } catch (const Error&) {
      ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 2);
}

// --- the accounting-bug regressions ---------------------------------------

// TrafficStats attribution: diffing epochs isolates one case's traffic even
// though the counters keep accumulating (resetStats() would instead clobber
// the cumulative values the obs registry samples).
TEST(Accounting, TrafficEpochDiffIsolatesACase) {
  World::runSPMD(2, [&](Comm& c) {
    const int peer = 1 - c.rank();
    const std::vector<double> payload = {1, 2, 3, 4};
    const auto exchange = [&](int times) {
      for (int i = 0; i < times; ++i) {
        const int tag = c.nextUserTag();
        c.send(peer, tag, payload);
        (void)c.recv<double>(peer, tag);
      }
    };
    exchange(3);  // earlier "case": 3 messages
    const transport::TrafficStats before = c.stats();
    exchange(2);  // the measured case
    const transport::TrafficStats d = c.stats() - before;
    EXPECT_EQ(d.messagesSent, 2u);
    EXPECT_EQ(d.messagesReceived, 2u);
    EXPECT_EQ(d.bytesSent, 2 * payload.size() * sizeof(double));
    // And the cumulative epoch kept growing — nothing was reset.
    EXPECT_EQ(c.stats().messagesSent, 5u);
  });
}

// CacheStats attribution: the bug fixed in bench/micro_schedule_cache — a
// leg that reads cumulative counters claims the next leg's prep hit.
TEST(Accounting, CacheEpochDiffSeparatesLegs) {
  World::runSPMD(2, [](Comm& c) {
    parti::BlockDistArray<double> a(c, layout::Shape::of({8, 8}), 0);
    parti::BlockDistArray<double> b(c, layout::Shape::of({8, 8}), 0);
    core::SetOfRegions set;
    set.add(core::Region::section(
        layout::RegularSection::box({0, 0}, {7, 7})));
    const core::DistObject src = core::PartiAdapter::describe(a);
    const core::DistObject dst = core::PartiAdapter::describe(b);
    core::ScheduleCache cache;

    const core::CacheStats before = cache.stats();
    // "Cached" leg: 1 miss + 3 hits.
    for (int i = 0; i < 4; ++i) (void)cache.getOrBuild(c, src, set, dst, set);
    const core::CacheStats afterLeg = cache.stats();
    // "Prep" for the next leg: one more hit that must NOT count above.
    (void)cache.getOrBuild(c, src, set, dst, set);
    const core::CacheStats afterPrep = cache.stats();

    const core::CacheStats leg = afterLeg - before;
    EXPECT_EQ(leg.hits, 3u);
    EXPECT_EQ(leg.misses, 1u);
    EXPECT_EQ(leg.insertions, 1u);
    const core::CacheStats prep = afterPrep - afterLeg;
    EXPECT_EQ(prep.hits, 1u);
    EXPECT_EQ(prep.misses, 0u);
  });
}

// The executor registers transport.* counters through the Comm: snapshots
// taken inside a world see the live traffic and pool counters.
TEST(Accounting, RegistrySamplesLiveTransportCounters) {
  World::runSPMD(2, [&](Comm& c) {
    const Snapshot before = threadRegistry().snapshot();
    ASSERT_TRUE(before.has("transport.messages_sent"));
    ASSERT_TRUE(before.has("transport.pool.acquires"));
    const int peer = 1 - c.rank();
    const int tag = c.nextUserTag();
    const std::vector<double> payload = {1, 2};
    c.send(peer, tag, payload);
    (void)c.recv<double>(peer, tag);
    const Snapshot d = threadRegistry().snapshot() - before;
    EXPECT_DOUBLE_EQ(d.get("transport.messages_sent"), 1.0);
    EXPECT_DOUBLE_EQ(d.get("transport.messages_received"), 1.0);
    EXPECT_DOUBLE_EQ(d.get("transport.bytes_sent"),
                     static_cast<double>(payload.size() * sizeof(double)));
    EXPECT_GE(d.get("transport.virtual_seconds"), 0.0);
  });
}

// --- the emitter ----------------------------------------------------------

TEST(BenchReport, EmitsSchemaConfigAndMetrics) {
  BenchReport report("unit");
  report.config("procs", 8);
  report.config("mode", "virtual");
  BenchReport::Case& cs = report.addCase("case_one");
  cs.metric("x.per_step_seconds", 0.25);
  cs.metric("x.messages", 42.0);
  const std::string out = report.render();
  EXPECT_NE(out.find("\"schema\": \"mc-bench-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"benchmark\": \"unit\""), std::string::npos);
  EXPECT_NE(out.find("\"procs\": 8"), std::string::npos);  // integral double
  EXPECT_NE(out.find("\"mode\": \"virtual\""), std::string::npos);
  EXPECT_NE(out.find("\"x.per_step_seconds\": 0.25"), std::string::npos);
  EXPECT_NE(out.find("\"x.messages\": 42"), std::string::npos);
}

TEST(BenchReport, EmptyStatIsExplicitNull) {
  BenchReport report("unit");
  BenchReport::Case& cs = report.addCase("case_one");
  cs.metric("empty", RunningStat{});
  RunningStat two;
  two.add(1.0);
  two.add(3.0);
  cs.metric("filled", two);
  const std::string out = report.render();
  // Never a fake zero: count 0 plus null moments.
  EXPECT_NE(out.find("\"empty\": {\"count\": 0, \"mean\": null, "
                     "\"min\": null, \"max\": null, \"stddev\": null, "
                     "\"sum\": 0}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"filled\": {\"count\": 2, \"mean\": 2, \"min\": 1, "
                     "\"max\": 3"),
            std::string::npos)
      << out;
}

TEST(BenchReport, NanMetricEmitsNull) {
  BenchReport report("unit");
  report.addCase("c").metric("bad", std::nan(""));
  EXPECT_NE(report.render().find("\"bad\": null"), std::string::npos);
}

// --- quantile reservoirs --------------------------------------------------

TEST(ReservoirStat, ExactQuantilesBelowCapacity) {
  Reservoir r(128);
  for (int v = 1; v <= 100; ++v) r.add(static_cast<double>(v));
  // Nearest-rank on the full stream: ceil(q * 100).
  EXPECT_DOUBLE_EQ(r.p50(), 50.0);
  EXPECT_DOUBLE_EQ(r.p99(), 99.0);
  EXPECT_DOUBLE_EQ(r.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(r.quantile(-0.5), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(r.quantile(2.0), 100.0);
}

TEST(ReservoirStat, EmptyIsNaNNotZero) {
  Reservoir r;
  EXPECT_TRUE(std::isnan(r.p50()));
  EXPECT_TRUE(std::isnan(r.p99()));
}

TEST(ReservoirStat, DeterministicPastCapacity) {
  Reservoir a(64, 42), b(64, 42);
  for (int v = 0; v < 1000; ++v) {
    const double x = static_cast<double>((v * 7919) % 1000);
    a.add(x);
    b.add(x);
  }
  // Same seed, same insertion order -> identical sample set, run to run.
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
  EXPECT_DOUBLE_EQ(a.p99(), b.p99());
  EXPECT_EQ(a.stat().count(), 1000u);
}

TEST(ReservoirStat, MergeMatchesPooledStream) {
  Reservoir a(2048), b(2048), pooled(2048);
  RunningStat ref;
  for (int v = 0; v < 500; ++v) {
    a.add(static_cast<double>(v));
    pooled.add(static_cast<double>(v));
    ref.add(static_cast<double>(v));
  }
  for (int v = 500; v < 1000; ++v) {
    b.add(static_cast<double>(v));
    pooled.add(static_cast<double>(v));
    ref.add(static_cast<double>(v));
  }
  a.merge(b);
  EXPECT_EQ(a.stat().count(), 1000u);
  EXPECT_NEAR(a.stat().mean(), ref.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(a.stat().min(), 0.0);
  EXPECT_DOUBLE_EQ(a.stat().max(), 999.0);
  // Below 4x capacity the merged samples are the full stream: exact.
  EXPECT_DOUBLE_EQ(a.p50(), pooled.p50());
  EXPECT_DOUBLE_EQ(a.p99(), pooled.p99());
}

TEST(BenchReport, ReservoirMetricEmitsQuantileFields) {
  BenchReport report("unit");
  BenchReport::Case& cs = report.addCase("case_one");
  Reservoir filled(64);
  for (int v = 1; v <= 10; ++v) filled.add(static_cast<double>(v));
  cs.metric("lat_seconds", filled);
  cs.metric("empty_seconds", Reservoir{});
  const std::string out = report.render();
  // Eight fields: the six RunningStat moments plus p50/p99.
  EXPECT_NE(out.find("\"lat_seconds\": {\"count\": 10"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"p50\": 5"), std::string::npos) << out;
  EXPECT_NE(out.find("\"p99\": 10"), std::string::npos) << out;
  // An empty reservoir is explicit: null quantiles, never a fake zero.
  EXPECT_NE(out.find("\"empty_seconds\": {\"count\": 0"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"p50\": null"), std::string::npos) << out;
  EXPECT_NE(out.find("\"p99\": null"), std::string::npos) << out;
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.beginObject();
  w.kv("k\"ey", std::string_view("va\\l\nue"));
  w.endObject();
  EXPECT_EQ(w.str(), "{\"k\\\"ey\": \"va\\\\l\\nue\"}");
}

// --- trace export ---------------------------------------------------------

TEST(Trace, RendersSortedCompleteEventsOnTheVirtualTimeline) {
  TraceCollector collector;
  SpanRecord r;
  r.name = phase::kCompute;
  r.virtualBegin = 0.5;
  r.virtualEnd = 0.75;
  r.cpuBegin = 0.0;
  r.cpuEnd = 0.001;
  // Added out of rank order; the exporter sorts.
  collector.add(0, 1, "prog0/rank1", {r});
  collector.add(0, 0, "prog0/rank0", {r});
  const std::string out = renderChromeTrace(collector);
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"compute\""), std::string::npos);
  EXPECT_NE(out.find("\"ts\": 500000"), std::string::npos);   // 0.5 s -> µs
  EXPECT_NE(out.find("\"dur\": 250000"), std::string::npos);  // 0.25 s -> µs
  EXPECT_NE(out.find("prog0/rank0"), std::string::npos);
  // rank 0's metadata precedes rank 1's despite insertion order.
  EXPECT_LT(out.find("prog0/rank0"), out.find("prog0/rank1"));
}

TEST(Trace, OverlapPipelineSpansAreWellFormed) {
  EnabledGuard guard;
  setEnabled(true);
  constexpr int kProcs = 4;
  TraceCollector collector;
  World::runSPMD(kProcs, [&](Comm& c) {
    const Index block = 64;
    sched::Schedule plan;
    plan.sends.push_back(sched::OffsetPlan{
        (c.rank() + 1) % c.size(), {}, {sched::OffsetRun{0, block, 1}}});
    plan.recvs.push_back(
        sched::OffsetPlan{(c.rank() + c.size() - 1) % c.size(),
                          {},
                          {sched::OffsetRun{block, block, 1}}});
    std::vector<double> src(static_cast<size_t>(block), 1.0);
    std::vector<double> dst(static_cast<size_t>(2 * block), 0.0);
    sched::Executor<double> ex(c, plan);
    threadRegistry().clearSpans();
    auto pending = ex.start(std::span<const double>(src));
    {
      ScopedSpan compute(phase::kCompute);
      c.advance(1e-3);
    }
    pending.finish(std::span<double>(dst));
    collector.add(c.program(), c.globalRank(), "r",
                  threadRegistry().takeSpans());
  });
  const auto ranks = collector.sorted();
  ASSERT_EQ(ranks.size(), static_cast<size_t>(kProcs));
  for (const auto& rank : ranks) {
    bool sawSend = false, sawCompute = false;
    for (const auto& s : rank.spans) {
      EXPECT_GE(s.virtualEnd, s.virtualBegin) << s.name;
      EXPECT_GE(s.depth, 0);
      sawSend |= std::strcmp(s.name, phase::kSend) == 0;
      sawCompute |= std::strcmp(s.name, phase::kCompute) == 0;
    }
    EXPECT_TRUE(sawSend);
    EXPECT_TRUE(sawCompute);
  }
}

}  // namespace
}  // namespace mc::obs
