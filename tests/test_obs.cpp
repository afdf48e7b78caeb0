// Tests for mhs::obs — the flow-wide observability layer: span
// recording/nesting, cross-thread counter aggregation, Chrome-trace JSON
// export + well-formedness, the disabled-sink no-op guarantee, and the
// core::Report envelope the flow and explorer fill in.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "core/explorer.h"
#include "core/flow.h"
#include "core/report.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "sim/cosim.h"
#include "sim/run.h"

namespace mhs::obs {
namespace {

/// Drives the accelerator co-simulation through the sim::run seam.
sim::CosimReport accel_cosim(
    const hw::HlsResult& impl, const sim::CosimConfig& config,
    const std::vector<std::vector<std::int64_t>>& samples) {
  sim::SimRequest sreq;
  sreq.impl = &impl;
  sreq.samples = &samples;
  sreq.cosim = config;
  return sim::run(sreq).cosim.value();
}


TEST(Obs, DisabledByDefaultAndSpansInert) {
  ASSERT_EQ(registry(), nullptr);
  EXPECT_FALSE(enabled());
  Span span("orphan", "test");
  EXPECT_FALSE(span.active());
  span.arg("key", "value");  // must be a no-op, not a crash
  count("orphan.counter", 5);  // likewise
  // Nothing was recorded anywhere: installing a fresh registry afterwards
  // sees an empty world.
  Registry r;
  EXPECT_EQ(r.num_events(), 0u);
  EXPECT_EQ(r.counter("orphan.counter"), 0u);
}

TEST(Obs, UninstalledRegistryRecordsNothing) {
  Registry r;  // constructed but never installed
  { Span span("ignored", "test"); }
  count("ignored", 1);
  EXPECT_EQ(r.num_events(), 0u);
  EXPECT_EQ(r.counter("ignored"), 0u);
}

TEST(Obs, SpanRecordsNameCategoryAndDuration) {
  Registry r;
  {
    ScopedRegistry scope(r);
    Span span("work", "test");
    EXPECT_TRUE(span.active());
  }
  ASSERT_EQ(r.num_events(), 1u);
  const std::vector<SpanEvent> events = r.events();
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].category, "test");
  EXPECT_GE(events[0].start_us, 0.0);
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST(Obs, NestedSpansBothRecordedInnerWithinOuter) {
  Registry r;
  {
    ScopedRegistry scope(r);
    Span outer("outer", "test");
    {
      Span inner("inner", "test");
    }
  }
  ASSERT_EQ(r.num_events(), 2u);
  const std::vector<SpanEvent> events = r.events();  // (start, tid, name)
  // The outer span starts first but finishes last; sorting by start time
  // puts it first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_LE(events[0].start_us, events[1].start_us);
  EXPECT_GE(events[0].start_us + events[0].dur_us,
            events[1].start_us + events[1].dur_us);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(Obs, SpanMoveTransfersOwnershipWithoutDoubleRecord) {
  Registry r;
  {
    ScopedRegistry scope(r);
    Span span;
    EXPECT_FALSE(span.active());
    if (enabled()) {
      span = Span(std::string("dynamic[") + "7]", "test");
      span.arg("index", "7");
    }
    EXPECT_TRUE(span.active());
    Span moved(std::move(span));
    EXPECT_FALSE(span.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved.active());
  }
  ASSERT_EQ(r.num_events(), 1u);
  const SpanEvent event = r.events()[0];
  EXPECT_EQ(event.name, "dynamic[7]");
  ASSERT_EQ(event.args.size(), 1u);
  EXPECT_EQ(event.args[0].first, "index");
  EXPECT_EQ(event.args[0].second, "7");
}

TEST(Obs, CountersAggregateAcrossThreads) {
  Registry r;
  {
    ScopedRegistry scope(r);
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 1000;
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        for (std::size_t i = 0; i < kPerThread; ++i) count("shared", 1);
        count("per_thread_once", 3);
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(r.counter("shared"), kThreads * kPerThread);
    EXPECT_EQ(r.counter("per_thread_once"), kThreads * 3u);
  }
}

TEST(Obs, SpansFromDistinctThreadsGetDistinctTids) {
  Registry r;
  {
    ScopedRegistry scope(r);
    Span main_span("main", "test");
    std::thread worker([] { Span span("worker", "test"); });
    worker.join();
  }
  ASSERT_EQ(r.num_events(), 2u);
  const std::vector<SpanEvent> events = r.events();
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(Obs, SummaryAggregatesByCategoryAndName) {
  Registry r;
  {
    ScopedRegistry scope(r);
    for (int i = 0; i < 3; ++i) Span span("kl", "partition");
    Span other("estimate", "flow");
    count("cache.hits", 41);
    count("cache.hits", 1);
  }
  const Summary s = r.summary();
  ASSERT_EQ(s.spans.size(), 2u);
  // Sorted by (category, name): flow/estimate before partition/kl.
  EXPECT_EQ(s.spans[0].category, "flow");
  EXPECT_EQ(s.spans[0].name, "estimate");
  EXPECT_EQ(s.spans[0].count, 1u);
  EXPECT_EQ(s.spans[1].category, "partition");
  EXPECT_EQ(s.spans[1].name, "kl");
  EXPECT_EQ(s.spans[1].count, 3u);
  EXPECT_GE(s.spans[1].max_us, s.spans[1].min_us);
  EXPECT_GE(s.spans[1].total_us, s.spans[1].max_us);
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].name, "cache.hits");
  EXPECT_EQ(s.counters[0].value, 42u);
  // The plain-text rendering mentions every aggregate.
  const std::string table = s.table();
  EXPECT_NE(table.find("kl"), std::string::npos);
  EXPECT_NE(table.find("estimate"), std::string::npos);
  EXPECT_NE(table.find("cache.hits"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(Summary{}.empty());
}

TEST(Obs, ChromeTraceJsonIsWellFormedAndEscaped) {
  Registry r;
  {
    ScopedRegistry scope(r);
    Span span("name with \"quotes\" and \\slashes\\", "cat\negory");
    span.arg("key", "line1\nline2\ttabbed");
    count("counter/with\"quote", 7);
  }
  const std::string json = r.chrome_trace_json();
  EXPECT_TRUE(json_is_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Obs, JsonValidatorAcceptsValidDocuments) {
  EXPECT_TRUE(json_is_valid("{}"));
  EXPECT_TRUE(json_is_valid("[]"));
  EXPECT_TRUE(json_is_valid("  {\"a\": [1, -2.5e3, true, false, null]} "));
  EXPECT_TRUE(json_is_valid("{\"s\": \"\\\"\\\\\\n\\u0041\"}"));
  EXPECT_TRUE(json_is_valid("[[[{\"deep\": []}]]]"));
}

TEST(Obs, JsonValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(json_is_valid(""));
  EXPECT_FALSE(json_is_valid("{"));
  EXPECT_FALSE(json_is_valid("{\"a\":}"));
  EXPECT_FALSE(json_is_valid("[1,]"));
  EXPECT_FALSE(json_is_valid("{\"a\": 1} trailing"));
  EXPECT_FALSE(json_is_valid("{'single': 1}"));
  EXPECT_FALSE(json_is_valid("{\"bad\": \"\\q\"}"));
  EXPECT_FALSE(json_is_valid("{\"bad\": \"\\u12g4\"}"));
  EXPECT_FALSE(json_is_valid("01"));
  EXPECT_FALSE(json_is_valid("nul"));
}

TEST(Obs, JsonEscapeRoundTripsThroughValidator) {
  const std::string nasty = "\"\\\n\r\t\x01 plain";
  const std::string doc = "{\"k\": \"" + json_escape(nasty) + "\"}";
  EXPECT_TRUE(json_is_valid(doc)) << doc;
}

TEST(Obs, JsonParseReportsErrorPositions) {
  JsonError error;
  // The offending character is the second ',' on line 3.
  EXPECT_FALSE(json_parse("{\n  \"a\": 1,\n  \"b\": [1,, 2]\n}", &error));
  EXPECT_EQ(error.line, 3u);
  EXPECT_EQ(error.column, 11u);
  EXPECT_EQ(error.str(), "line 3, column 11: expected a value");

  // Single-line: column counts from 1.
  EXPECT_FALSE(json_parse("[1, x]", &error));
  EXPECT_EQ(error.line, 1u);
  EXPECT_EQ(error.column, 5u);

  // Unexpected end of input points one past the last character.
  EXPECT_FALSE(json_parse("{\"a\": ", &error));
  EXPECT_EQ(error.line, 1u);
  EXPECT_EQ(error.column, 7u);
  EXPECT_NE(error.message.find("end of input"), std::string::npos);

  // Trailing garbage after a complete document.
  EXPECT_FALSE(json_parse("{} {}", &error));
  EXPECT_EQ(error.column, 4u);
  EXPECT_NE(error.message.find("trailing"), std::string::npos);

  // The deepest (first) failure wins, not an enclosing context.
  EXPECT_FALSE(json_parse("{\"s\": \"ab\\q\"}", &error));
  EXPECT_EQ(error.line, 1u);
  EXPECT_EQ(error.column, 11u);
  EXPECT_NE(error.message.find("escape"), std::string::npos);

  // Success leaves the error untouched and returns the value.
  error = JsonError{};
  const auto parsed = json_parse("{\"ok\": 1}", &error);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(error.message.empty());
}

TEST(Obs, ScopedRegistryRestoresPreviousSink) {
  Registry outer_r;
  {
    ScopedRegistry outer(outer_r);
    EXPECT_EQ(registry(), &outer_r);
    {
      Registry inner_r;
      ScopedRegistry inner(inner_r);
      EXPECT_EQ(registry(), &inner_r);
      count("where", 1);
      EXPECT_EQ(inner_r.counter("where"), 1u);
      EXPECT_EQ(outer_r.counter("where"), 0u);
    }
    EXPECT_EQ(registry(), &outer_r);
  }
  EXPECT_EQ(registry(), nullptr);
}

// -- End-to-end: the instrumented flow and explorer.

TEST(ObsFlow, CodesignFlowEmitsAllFivePhaseSpans) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  core::FlowConfig config;
  config.cosim_samples = 2;
  Registry r;
  core::FlowReport report;
  {
    ScopedRegistry scope(r);
    report = core::run_codesign_flow(w.graph, w.kernels, config);
  }
  const Summary s = r.summary();
  for (const char* phase :
       {"specify", "estimate", "partition", "cosynth", "cosim"}) {
    bool found = false;
    for (const SpanStat& span : s.spans) {
      if (span.category == "flow" && span.name == phase) found = true;
    }
    EXPECT_TRUE(found) << "missing flow phase span: " << phase;
  }
  // The partition phase ran a strategy underneath, with its counters.
  EXPECT_GE(r.counter("partition." +
                      std::string(partition::strategy_name(config.strategy)) +
                      ".runs"),
            1u);
  // Co-simulation ran and counted its events.
  ASSERT_TRUE(report.cosim.has_value());
  EXPECT_EQ(r.counter("cosim.events"), report.cosim->sim_events);
  EXPECT_EQ(r.counter("cosim.samples"), config.cosim_samples);
  // The trace export is valid Chrome trace JSON.
  const std::string json = r.chrome_trace_json();
  EXPECT_TRUE(json_is_valid(json));
  for (const char* phase :
       {"specify", "estimate", "partition", "cosynth", "cosim"}) {
    EXPECT_NE(json.find(std::string("\"") + phase + "\""),
              std::string::npos)
        << phase;
  }
  // The flow's Report envelope embeds the summary and the design.
  EXPECT_FALSE(report.report.obs.empty());
  ASSERT_EQ(report.report.designs.size(), 1u);
  EXPECT_EQ(report.report.designs[0].target, "coprocessor");
  EXPECT_GT(report.report.wall_ms, 0.0);
  const std::string rendered = report.report.str();
  EXPECT_NE(rendered.find("coprocessor"), std::string::npos);
}

TEST(ObsFlow, DisabledRunProducesIdenticalDesign) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  core::FlowConfig config;
  config.cosim_samples = 2;
  const core::FlowReport plain =
      core::run_codesign_flow(w.graph, w.kernels, config);
  Registry r;
  core::FlowReport traced;
  {
    ScopedRegistry scope(r);
    traced = core::run_codesign_flow(w.graph, w.kernels, config);
  }
  // Tracing must not perturb results.
  EXPECT_EQ(plain.design.partition.mapping, traced.design.partition.mapping);
  EXPECT_DOUBLE_EQ(plain.design.latency(), traced.design.latency());
  EXPECT_DOUBLE_EQ(plain.design.area(), traced.design.area());
  // And the untraced run carries an empty obs summary.
  EXPECT_TRUE(plain.report.obs.empty());
  EXPECT_FALSE(traced.report.obs.empty());
}

TEST(ObsFlow, ExplorerEmitsPointSpansAndCacheCounters) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  core::Explorer::Options options;
  options.num_threads = 2;
  core::Explorer explorer(w.graph, w.kernels, options);
  const std::vector<core::FlowConfig> configs = {
      core::FlowConfig::defaults(),
      core::FlowConfig::defaults().without_kernel_optimization()};
  const std::vector<partition::Strategy> strategies = {
      partition::Strategy::kHotSpot, partition::Strategy::kKl};
  const std::vector<partition::Objective> objectives = {{}};
  Registry r;
  core::ExploreReport report;
  {
    ScopedRegistry scope(r);
    report = explorer.sweep(configs, strategies, objectives);
  }
  EXPECT_EQ(r.counter("explorer.points"), report.points.size());
  // The estimate cache saw one lookup per (kernel, config) pair; the obs
  // counters mirror the report's counts.
  EXPECT_EQ(r.counter("explorer.estimate_cache.hits"),
            report.estimate_cache_hits);
  EXPECT_EQ(r.counter("explorer.estimate_cache.misses"),
            report.estimate_cache_misses);
  EXPECT_GT(r.counter("explorer.estimate_cache.hits") +
                r.counter("explorer.estimate_cache.misses"),
            0u);
  // Per-point spans are tagged with batch index and strategy args.
  const std::vector<SpanEvent> events = r.events();
  std::size_t point_spans = 0;
  for (const SpanEvent& event : events) {
    if (event.category != "explorer" ||
        event.name.rfind("point[", 0) != 0) {
      continue;
    }
    ++point_spans;
    bool has_batch = false;
    bool has_strategy = false;
    for (const auto& [key, value] : event.args) {
      if (key == "batch_index") has_batch = true;
      if (key == "strategy") has_strategy = true;
    }
    EXPECT_TRUE(has_batch && has_strategy) << event.name;
  }
  EXPECT_EQ(point_spans, report.points.size());
  // The explorer's Report envelope lists the frontier designs.
  EXPECT_EQ(report.report.designs.size(), report.frontier.size());
  EXPECT_FALSE(report.report.obs.empty());
  EXPECT_TRUE(json_is_valid(r.chrome_trace_json()));
}

// -- Histograms and gauges.

TEST(ObsHistogram, BucketGeometry) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_hi(0), 0u);
  for (std::size_t b = 1; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_hi(b)), b);
    EXPECT_EQ(Histogram::bucket_lo(b), Histogram::bucket_hi(b - 1) + 1);
  }
}

TEST(ObsHistogram, CountSumMinMaxAndEmptyStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  const HistStat empty = h.stat("empty");
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.min, 0u);
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  for (const std::uint64_t v : {7u, 3u, 100u, 3u}) h.record(v);
  const HistStat s = h.stat("vals");
  EXPECT_EQ(s.name, "vals");
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 113u);
  EXPECT_EQ(s.min, 3u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 113.0 / 4.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
}

TEST(ObsHistogram, PercentilesAreInterpolatedFromBuckets) {
  // A single sample: every percentile is the lower edge of its bucket
  // (rank 0, interpolation weight 0).
  Histogram single;
  single.record(8);
  EXPECT_DOUBLE_EQ(single.percentile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(single.percentile(0.99), 8.0);
  // All zeros live in the exact bucket {0}.
  Histogram zeros;
  for (int i = 0; i < 5; ++i) zeros.record(0);
  EXPECT_DOUBLE_EQ(zeros.percentile(0.9), 0.0);
  // Eight samples of 8 (bucket [8, 15]): p50 rank = 0.5 * 7 = 3.5, so
  // the interpolated value is lo + (3.5 / 8) * (hi - lo).
  Histogram repeated;
  for (int i = 0; i < 8; ++i) repeated.record(8);
  EXPECT_DOUBLE_EQ(repeated.percentile(0.5), 8.0 + (3.5 / 8.0) * 7.0);
  // The top quantile interpolates the last rank (7 of 8) the same way.
  EXPECT_DOUBLE_EQ(repeated.percentile(1.0), 8.0 + (7.0 / 8.0) * 7.0);
}

TEST(ObsHistogram, MergeIsBitIdenticalAcrossThreadCounts) {
  // One fixed multiset of samples, recorded through 1/2/4/8 threads into
  // a registry histogram. Every exported statistic must be bit-identical
  // (not just close): the histogram is a pure function of the recorded
  // multiset, independent of interleaving.
  constexpr std::size_t kSamples = 4096;
  std::vector<std::uint64_t> values;
  Rng rng(99);
  for (std::size_t i = 0; i < kSamples; ++i) {
    values.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)));
  }
  std::vector<HistStat> stats;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    Registry r;
    ScopedRegistry scope(r);
    Histogram& h = r.histogram("merge.test");
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&h, &values, t, threads] {
        for (std::size_t i = t; i < values.size(); i += threads) {
          h.record(values[i]);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    stats.push_back(h.stat("merge.test"));
    // The registry's summary carries the same percentiles.
    const Summary s = r.summary();
    ASSERT_EQ(s.hists.size(), 1u);
    EXPECT_EQ(s.hists[0].count, kSamples);
    EXPECT_EQ(s.hists[0].p50, stats.back().p50);
  }
  for (const HistStat& s : stats) {
    EXPECT_EQ(s.count, stats[0].count);
    EXPECT_EQ(s.sum, stats[0].sum);
    EXPECT_EQ(s.min, stats[0].min);
    EXPECT_EQ(s.max, stats[0].max);
    // Bit-identical doubles, hence EXPECT_EQ rather than NEAR.
    EXPECT_EQ(s.p50, stats[0].p50);
    EXPECT_EQ(s.p90, stats[0].p90);
    EXPECT_EQ(s.p99, stats[0].p99);
  }
}

TEST(ObsGauge, LastWriteWinsAndRangeTracked) {
  Registry r;
  {
    ScopedRegistry scope(r);
    gauge("speed", 3.0);
    gauge("speed", 1.0);
    gauge("speed", 2.0);
  }
  const Summary s = r.summary();
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].name, "speed");
  EXPECT_DOUBLE_EQ(s.gauges[0].value, 2.0);
  EXPECT_DOUBLE_EQ(s.gauges[0].min, 1.0);
  EXPECT_DOUBLE_EQ(s.gauges[0].max, 3.0);
  EXPECT_EQ(s.gauges[0].updates, 3u);
  // Gauges ride into the summary table and the Chrome trace.
  EXPECT_NE(s.table().find("speed"), std::string::npos);
  EXPECT_TRUE(json_is_valid(r.chrome_trace_json()));
  EXPECT_NE(r.chrome_trace_json().find("speed"), std::string::npos);
  // And the free function is a no-op without a sink.
  gauge("orphan", 1.0);
  EXPECT_TRUE(Registry().summary().gauges.empty());
}

TEST(ObsHistogram, ObserveLandsInSummaryWithPercentiles) {
  Registry r;
  {
    ScopedRegistry scope(r);
    for (std::uint64_t v = 1; v <= 100; ++v) observe("latency", v);
  }
  const Summary s = r.summary();
  ASSERT_EQ(s.hists.size(), 1u);
  EXPECT_EQ(s.hists[0].name, "latency");
  EXPECT_EQ(s.hists[0].count, 100u);
  EXPECT_EQ(s.hists[0].sum, 5050u);
  EXPECT_EQ(s.hists[0].min, 1u);
  EXPECT_EQ(s.hists[0].max, 100u);
  EXPECT_GT(s.hists[0].p50, 0.0);
  EXPECT_LE(s.hists[0].p90, s.hists[0].p99);
  const std::string table = s.table();
  EXPECT_NE(table.find("latency"), std::string::npos);
  EXPECT_NE(table.find("p50"), std::string::npos);
  // Histogram percentiles export as Chrome counter events.
  const std::string json = r.chrome_trace_json();
  EXPECT_TRUE(json_is_valid(json));
  EXPECT_NE(json.find("latency"), std::string::npos);
}

// -- JSON parser edge cases.

TEST(ObsJson, RejectsNaNAndInfinity) {
  EXPECT_FALSE(json_is_valid("NaN"));
  EXPECT_FALSE(json_is_valid("Infinity"));
  EXPECT_FALSE(json_is_valid("-Infinity"));
  EXPECT_FALSE(json_is_valid("{\"a\": NaN}"));
  EXPECT_FALSE(json_is_valid("[Infinity]"));
  EXPECT_FALSE(json_is_valid("{\"a\": nan}"));
}

TEST(ObsJson, NumberGrammarEdges) {
  EXPECT_TRUE(json_is_valid("0"));
  EXPECT_TRUE(json_is_valid("-0"));
  EXPECT_TRUE(json_is_valid("0.5"));
  EXPECT_TRUE(json_is_valid("1e5"));
  EXPECT_TRUE(json_is_valid("1E+5"));
  EXPECT_TRUE(json_is_valid("-1.25e-3"));
  EXPECT_FALSE(json_is_valid("+1"));
  EXPECT_FALSE(json_is_valid("1."));
  EXPECT_FALSE(json_is_valid(".5"));
  EXPECT_FALSE(json_is_valid("1e"));
  EXPECT_FALSE(json_is_valid("-"));
  EXPECT_FALSE(json_is_valid("0x10"));
  // A literal that overflows a double is an error, not an infinity; one
  // that underflows is 0.
  EXPECT_FALSE(json_is_valid("1e400"));
  EXPECT_FALSE(json_is_valid("-1e400"));
  EXPECT_FALSE(json_is_valid("[1, 1e400]"));
  EXPECT_TRUE(json_is_valid("1e308"));
  EXPECT_TRUE(json_is_valid("1e-400"));
  JsonError error;
  EXPECT_FALSE(json_parse("{\"w\": -1e400}", &error).has_value());
  EXPECT_EQ(error.message, "number out of range");
  EXPECT_EQ(error.column, 7u);  // the number's first character
}

TEST(ObsJson, IntegerBoundariesRenderBackToThemselves) {
  // {token, its canonical render}. Every integer of at most 64 bits
  // keeps its digits; one past either end becomes a double.
  const std::pair<const char*, const char*> table[] = {
      {"0", "0"},
      {"-0", "0"},
      {"9007199254740991", "9007199254740991"},
      {"9007199254740993", "9007199254740993"},
      {"-9007199254740991", "-9007199254740991"},
      {"-9007199254740993", "-9007199254740993"},
      {"-9223372036854775808", "-9223372036854775808"},
      {"-9223372036854775809", "-9.2233720368547758e+18"},
      {"9223372036854775807", "9223372036854775807"},
      {"18446744073709551615", "18446744073709551615"},
      {"18446744073709551616", "1.8446744073709552e+19"},
      {"1.0", "1"},
      {"1e308", "1e+308"},
      {"1e-400", "0"},
  };
  for (const auto& [token, canonical] : table) {
    const std::optional<JsonValue> parsed = json_parse(token);
    ASSERT_TRUE(parsed.has_value()) << token;
    EXPECT_TRUE(parsed->is_number()) << token;
    const std::string rendered = json_render(*parsed);
    EXPECT_EQ(rendered, canonical) << token;
    const std::optional<JsonValue> again = json_parse(rendered);
    ASSERT_TRUE(again.has_value()) << rendered;
    EXPECT_EQ(json_render(*again), rendered) << token;
    EXPECT_EQ(again->as_number(), parsed->as_number()) << token;
  }
}

TEST(ObsJson, IntegersAreExactAndDoublesAreNot) {
  EXPECT_EQ(json_render(JsonValue(INT64_MIN)), "-9223372036854775808");
  EXPECT_EQ(json_render(JsonValue(UINT64_MAX)), "18446744073709551615");
  EXPECT_EQ(json_render(JsonValue(-1)), "-1");
  EXPECT_EQ(json_render(JsonValue(std::uint8_t{255})), "255");
  EXPECT_EQ(json_render(JsonValue(true)), "true");
  EXPECT_EQ(json_render(JsonValue(0.5)), "0.5");
  EXPECT_EQ(json_render(JsonValue("text")), "\"text\"");

  // as_u64 is exact and only for non-negative integer tokens.
  EXPECT_EQ(json_parse("18446744073709551615")->as_u64(), UINT64_MAX);
  EXPECT_EQ(json_parse("9007199254740993")->as_u64(), 9007199254740993u);
  EXPECT_EQ(json_parse("-0")->as_u64(), 0u);
  for (const char* not_u64 :
       {"-1", "8.9", "8.0", "1e3", "18446744073709551616", "\"8\"", "true"}) {
    EXPECT_FALSE(json_parse(not_u64)->as_u64().has_value()) << not_u64;
  }
  // Every integer still reads as a number.
  EXPECT_EQ(json_parse("-9223372036854775808")->as_number(),
            -9.2233720368547758e18);
  EXPECT_EQ(JsonValue(std::uint64_t{7}).kind(), JsonValue::Kind::kNumber);
}

TEST(ObsJson, EscapesAndNestedArrays) {
  EXPECT_TRUE(json_is_valid("\"\\u0000\""));
  EXPECT_TRUE(json_is_valid("\"\\b\\f\\n\\r\\t\\/\\\\\\\"\""));
  EXPECT_FALSE(json_is_valid("\"\\x41\""));
  EXPECT_FALSE(json_is_valid("\"unterminated"));
  // Deeply nested arrays with mixed values parse and navigate.
  const std::optional<JsonValue> v =
      json_parse("[[1, [2, [3, {\"k\": [true, null, \"s\"]}]]], []]");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_array());
  ASSERT_EQ(v->as_array().size(), 2u);
  const JsonValue& deep =
      v->as_array()[0].as_array()[1].as_array()[1].as_array()[1];
  const JsonValue* k = deep.find("k");
  ASSERT_NE(k, nullptr);
  ASSERT_TRUE(k->is_array());
  EXPECT_TRUE(k->as_array()[0].as_bool());
  EXPECT_EQ(k->as_array()[2].as_string(), "s");
}

TEST(ObsJson, DepthGuardRejectsRunawayNesting) {
  // The parser serves untrusted request bodies (svc::Request wire JSON),
  // so recursion is capped at kJsonMaxDepth: anything deeper is a parse
  // error naming the limit, not a stack overflow.
  const auto nested = [](int depth, char open, char close) {
    std::string s(static_cast<std::size_t>(depth), open);
    s += "1";
    s.append(static_cast<std::size_t>(depth), close);
    return s;
  };

  EXPECT_TRUE(json_is_valid(nested(kJsonMaxDepth - 1, '[', ']')));
  EXPECT_TRUE(json_is_valid(nested(kJsonMaxDepth, '[', ']')));

  JsonError error;
  EXPECT_FALSE(json_parse(nested(kJsonMaxDepth + 1, '[', ']'), &error));
  EXPECT_NE(error.message.find("nesting"), std::string::npos);
  EXPECT_NE(error.message.find(std::to_string(kJsonMaxDepth)),
            std::string::npos);

  // Objects burn the same depth budget as arrays.
  std::string object = "1";
  for (int i = 0; i < kJsonMaxDepth + 1; ++i) {
    object = "{\"k\":" + object + "}";
  }
  error = JsonError{};
  EXPECT_FALSE(json_parse(object, &error));
  EXPECT_NE(error.message.find("nesting"), std::string::npos);

  // Well under the limit, mixed nesting parses and renders back.
  const std::string mixed = nested(200, '[', ']');
  const std::optional<JsonValue> v = json_parse(mixed);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(json_render(*v), mixed);
}

// -- Cycle-attribution profiles.

TEST(ObsProfile, FinalizeDerivesIdleAndHoldsExactSum) {
  Profile p("unit");
  p.attribute(Profile::kSwExecute, 10);
  p.attribute(Profile::kBus, 5);
  p.finalize(20);
  EXPECT_EQ(p.cycles(Profile::kSwExecute), 10u);
  EXPECT_EQ(p.cycles(Profile::kBus), 5u);
  EXPECT_EQ(p.cycles(Profile::kIdle), 5u);
  EXPECT_EQ(p.attributed(), p.total());
  EXPECT_EQ(p.total(), 20u);
  EXPECT_DOUBLE_EQ(p.fraction(Profile::kSwExecute), 0.5);
  const std::string table = p.table();
  EXPECT_NE(table.find("cycle attribution: unit"), std::string::npos);
  EXPECT_NE(table.find("sw execute"), std::string::npos);
  EXPECT_NE(table.find("100.0"), std::string::npos);
}

TEST(ObsProfile, OvershootIsShavedDeterministically) {
  // Rounding overshoot: claimed 15 > total 12; the excess 3 comes out of
  // kSwExecute first, idle stays 0 and the sum is exact.
  Profile p;
  p.attribute(Profile::kSwExecute, 10);
  p.attribute(Profile::kBus, 5);
  p.finalize(12);
  EXPECT_EQ(p.cycles(Profile::kSwExecute), 7u);
  EXPECT_EQ(p.cycles(Profile::kBus), 5u);
  EXPECT_EQ(p.cycles(Profile::kIdle), 0u);
  EXPECT_EQ(p.attributed(), 12u);
  EXPECT_EQ(p.total(), 12u);
}

namespace {
std::vector<std::vector<std::int64_t>> profile_samples(
    const ir::Cdfg& kernel, std::size_t n) {
  Rng rng(404);
  std::vector<std::vector<std::int64_t>> samples;
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-1000, 1000));
    }
    samples.push_back(std::move(in));
  }
  return samples;
}
}  // namespace

TEST(ObsProfile, PinLevelCosimAttributionSumsToTotalCycles) {
  // Fig. 4 configuration: the FIR accelerator co-simulated at pin level.
  // Every simulated cycle must be attributed to exactly one class.
  const ir::Cdfg kernel = apps::fir_kernel(8);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
  const auto samples = profile_samples(kernel, 8);
  for (const sim::InterfaceLevel level :
       {sim::InterfaceLevel::kPin, sim::InterfaceLevel::kRegister,
        sim::InterfaceLevel::kDriver}) {
    sim::CosimConfig cfg;
    cfg.level = level;
    const sim::CosimReport r = accel_cosim(impl, cfg, samples);
    ASSERT_GT(r.total_cycles, 0.0);
    EXPECT_EQ(r.profile.total(),
              static_cast<std::uint64_t>(r.total_cycles))
        << sim::interface_level_name(level);
    EXPECT_EQ(r.profile.attributed(), r.profile.total())
        << sim::interface_level_name(level);
    // ISS-backed levels charge software execution; every level moves data.
    if (level != sim::InterfaceLevel::kDriver) {
      EXPECT_GT(r.profile.cycles(Profile::kSwExecute), 0u)
          << sim::interface_level_name(level);
    }
    EXPECT_GT(r.profile.cycles(Profile::kBus), 0u)
        << sim::interface_level_name(level);
  }
}

TEST(ObsProfile, FlowEmbedsCosimProfileInReport) {
  // Fig. 8-style flow with co-simulation enabled: the CosimReport's
  // profile lands in core::Report::profiles and renders in str().
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  core::FlowConfig config;
  config.cosim_samples = 2;
  const core::FlowReport report =
      core::run_codesign_flow(w.graph, w.kernels, config);
  ASSERT_TRUE(report.cosim.has_value());
  ASSERT_EQ(report.report.profiles.size(), 1u);
  const Profile& p = report.report.profiles[0];
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.attributed(), p.total());
  EXPECT_EQ(p.total(),
            static_cast<std::uint64_t>(report.cosim->total_cycles));
  EXPECT_NE(report.report.str().find("cycle attribution"),
            std::string::npos);
}

TEST(ObsProfile, IssOpcodeCountersSumToRetiredInstructions) {
  const ir::Cdfg kernel = apps::fir_kernel(8);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
  const auto samples = profile_samples(kernel, 4);
  sim::CosimConfig cfg;
  cfg.level = sim::InterfaceLevel::kRegister;
  Registry r;
  sim::CosimReport report;
  {
    ScopedRegistry scope(r);
    report = accel_cosim(impl, cfg, samples);
  }
  ASSERT_GT(report.sw_instructions, 0u);
  std::uint64_t op_total = 0;
  std::size_t op_kinds = 0;
  for (const CounterStat& c : r.summary().counters) {
    if (c.name.rfind("iss.op.", 0) == 0) {
      op_total += c.value;
      ++op_kinds;
    }
  }
  EXPECT_GT(op_kinds, 1u);
  EXPECT_EQ(op_total, report.sw_instructions);
}

TEST(ObsFlow, WallTimeDerivedFromRootFlowSpan) {
  // Satellite (f): the report's wall time and the root "flow" span come
  // from the same two clock reads, so they agree exactly.
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  core::FlowConfig config;
  config.cosim_samples = 2;
  Registry r;
  core::FlowReport report;
  {
    ScopedRegistry scope(r);
    report = core::run_codesign_flow(w.graph, w.kernels, config);
  }
  const SpanEvent* root = nullptr;
  const std::vector<SpanEvent> events = r.events();
  for (const SpanEvent& e : events) {
    if (e.category == "flow" && e.name == "flow") root = &e;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_DOUBLE_EQ(report.report.wall_ms, root->dur_us / 1000.0);
}

TEST(ObsFlow, ExplorerWallTimeDerivedFromExploreSpan) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  core::Explorer explorer(w.graph, w.kernels, {});
  const std::vector<core::FlowConfig> configs = {core::FlowConfig::defaults()};
  const std::vector<partition::Strategy> strategies = {
      partition::Strategy::kHotSpot};
  const std::vector<partition::Objective> objectives = {{}};
  Registry r;
  core::ExploreReport report;
  {
    ScopedRegistry scope(r);
    report = explorer.sweep(configs, strategies, objectives);
  }
  const SpanEvent* batch = nullptr;
  const std::vector<SpanEvent> events = r.events();
  for (const SpanEvent& e : events) {
    if (e.category == "explorer" && e.name == "explore") batch = &e;
  }
  ASSERT_NE(batch, nullptr);
  EXPECT_DOUBLE_EQ(report.wall_ms, batch->dur_us / 1000.0);
  // The per-point latency histogram recorded one sample per point.
  const Summary s = r.summary();
  bool found = false;
  for (const HistStat& h : s.hists) {
    if (h.name == "explorer.point_us") {
      found = true;
      EXPECT_EQ(h.count, report.points.size());
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsReport, AddDesignCapturesCommonShape) {
  core::Report report;
  report.title = "unit";
  struct FakeDesign {
    double latency() const { return 123.0; }
    double area() const { return 4.5; }
    std::string summary() const { return "fake detail"; }
  };
  report.add_design("fake", FakeDesign{});
  ASSERT_EQ(report.designs.size(), 1u);
  EXPECT_EQ(report.designs[0].target, "fake");
  EXPECT_DOUBLE_EQ(report.designs[0].latency, 123.0);
  EXPECT_DOUBLE_EQ(report.designs[0].area, 4.5);
  const std::string text = report.str();
  EXPECT_NE(text.find("unit"), std::string::npos);
  EXPECT_NE(text.find("fake"), std::string::npos);
}

// ------------------------------------------------ request-registry merging

/// Builds one deterministic "per-request" registry: `threads` concurrent
/// recorders each add spans, counters, histogram samples, and gauges.
/// The same (salt, threads) always produces the same aggregate content,
/// so merge-order experiments compare apples to apples.
std::unique_ptr<Registry> make_request_registry(std::uint32_t salt,
                                                std::size_t threads) {
  auto r = std::make_unique<Registry>();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&r, salt] {
      for (std::uint32_t i = 0; i < 8; ++i) {
        SpanEvent e;
        e.name = "work" + std::to_string(i % 3);
        e.category = "req";
        e.start_us = static_cast<double>(salt * 100 + i);
        e.dur_us = 1.0 + (salt % 5) + i;
        r->record(std::move(e));
        r->count("req.ops", salt + i);
        r->histogram("req.latency_us").record(10 * (i + 1) + salt);
        r->gauge("req.depth", static_cast<double>(salt));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return r;
}

TEST(ObsMerge, MergeOrderIsByteIdenticalAcrossRecordingThreadCounts) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    constexpr std::size_t kRequests = 5;
    std::vector<std::unique_ptr<Registry>> sources;
    for (std::size_t k = 0; k < kRequests; ++k) {
      sources.push_back(
          make_request_registry(static_cast<std::uint32_t>(k + 1), threads));
    }

    const std::vector<std::vector<std::size_t>> orders = {
        {0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 4, 0, 3, 2}};
    std::string first_json;
    std::string first_table;
    for (const std::vector<std::size_t>& order : orders) {
      Registry target;
      for (const std::size_t idx : order) target.merge_from(*sources[idx]);
      const Summary s = target.summary();
      const std::string json = summary_json(s);
      const std::string table = s.table();
      if (first_json.empty()) {
        first_json = json;
        first_table = table;
      }
      EXPECT_EQ(json, first_json) << "threads=" << threads;
      EXPECT_EQ(table, first_table) << "threads=" << threads;
    }

    // A pairwise merge tree folds to the same bytes as the flat fold.
    Registry left;
    left.merge_from(*sources[0]);
    left.merge_from(*sources[1]);
    Registry right;
    right.merge_from(*sources[2]);
    right.merge_from(*sources[3]);
    right.merge_from(*sources[4]);
    Registry tree;
    tree.merge_from(left);
    tree.merge_from(right);
    EXPECT_EQ(summary_json(tree.summary()), first_json)
        << "threads=" << threads;

    // Counters sum exactly: each source adds threads * (8*salt + 28).
    std::uint64_t expected_ops = 0;
    for (std::uint64_t salt = 1; salt <= kRequests; ++salt) {
      expected_ops += threads * (8 * salt + 28);
    }
    EXPECT_EQ(tree.counter("req.ops"), expected_ops);
  }
}

// ------------------------------------------------------- hostile name JSON

TEST(ObsJson, ChromeTraceAndSummarySurviveHostileNames) {
  Registry r;
  const std::string hostile[] = {
      "quote\"name",       "back\\slash",  "ctrl\x01\x02char",
      "new\nline\ttab",    "</script>",    "utf8 µs \xE2\x86\x92 done",
      "nul-adjacent \x1f", "{\"fake\":1}",
  };
  double i = 0.0;
  for (const std::string& name : hostile) {
    SpanEvent e;
    e.name = name;
    e.category = "cat\"\\\n";
    e.start_us = i;
    e.dur_us = 1.0 + i;
    e.args = {{"arg\"key\n", "val\\ue\x02"}};
    r.record(std::move(e));
    r.count(name, 1);
    r.histogram(name).record(static_cast<std::uint64_t>(i) + 1);
    r.gauge(name, i * 1.5);
    i += 1.0;
  }

  // The Chrome trace must be strict JSON despite every name needing
  // escaping — json_parse is the oracle.
  const std::string trace = r.chrome_trace_json();
  JsonError err;
  const std::optional<JsonValue> doc = json_parse(trace, &err);
  ASSERT_TRUE(doc.has_value()) << err.str();
  ASSERT_TRUE(doc->is_object());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GE(events->as_array().size(), std::size(hostile));

  // Escaping must round-trip: every hostile name comes back verbatim
  // through the parser (as a span name and as a counter event).
  for (const std::string& name : hostile) {
    bool span_found = false;
    bool counter_found = false;
    for (const JsonValue& event : events->as_array()) {
      const JsonValue* n = event.find("name");
      const JsonValue* ph = event.find("ph");
      if (n == nullptr || ph == nullptr || !n->is_string()) continue;
      if (ph->string_or("") == "X" && n->as_string() == name) {
        span_found = true;
      }
      // Counter events carry decorated names ("counter <name>", ...):
      // containment is the round-trip check.
      if (ph->string_or("") == "C" &&
          n->as_string().find(name) != std::string::npos) {
        counter_found = true;
      }
    }
    EXPECT_TRUE(span_found) << "span name lost: " << name;
    EXPECT_TRUE(counter_found) << "counter name lost: " << name;
  }

  // The summary JSON form survives the same names.
  const std::string summary = summary_json(r.summary());
  EXPECT_TRUE(json_parse(summary, &err).has_value()) << err.str();
}

// --------------------------------------------------------- request scopes

TEST(Obs, ScopedSinkNestsRestoresAndStaysOnItsThread) {
  ASSERT_EQ(registry(), nullptr);  // no global sink installed
  Registry global;
  const ScopedRegistry installed(global);
  Registry outer;
  Registry inner;
  Registry* seen_elsewhere = nullptr;
  {
    const ScopedSink outer_scope(&outer);
    EXPECT_EQ(registry(), &outer);
    EXPECT_EQ(global_registry(), &global);
    count("outer.count");
    {
      const ScopedSink inner_scope(&inner);
      EXPECT_EQ(registry(), &inner);
      {
        // A null scope changes nothing: an untraced request opened
        // inside a traced one still records into the traced one.
        const ScopedSink untraced(nullptr);
        EXPECT_EQ(registry(), &inner);
        const Span span("inner", "test");
        EXPECT_TRUE(span.active());
        count("inner.count", 2);
        observe("inner.us", 7);
        gauge("inner.gauge", 1.0);
      }
      EXPECT_EQ(registry(), &inner);
      // Swapping the process-wide registry inside a scope restores the
      // global one, never the scope's sink.
      {
        Registry swapped;
        const ScopedRegistry swap(swapped);
        EXPECT_EQ(global_registry(), &swapped);
        EXPECT_EQ(registry(), &inner);
      }
      EXPECT_EQ(global_registry(), &global);
      // The scope belongs to this thread: another thread sees the
      // process-wide registry.
      std::thread other([&seen_elsewhere] {
        seen_elsewhere = registry();
        count("other.count");
      });
      other.join();
    }
    // Leaving the inner scope restores the outer one.
    EXPECT_EQ(registry(), &outer);
  }
  EXPECT_EQ(registry(), &global);
  EXPECT_EQ(seen_elsewhere, &global);

  EXPECT_EQ(outer.counter("outer.count"), 1u);
  EXPECT_EQ(outer.counter("inner.count"), 0u);
  EXPECT_EQ(outer.num_events(), 0u);
  EXPECT_EQ(inner.num_events(), 1u);
  EXPECT_EQ(inner.counter("inner.count"), 2u);
  const Summary s = inner.summary();
  ASSERT_EQ(s.hists.size(), 1u);
  EXPECT_EQ(s.hists[0].count, 1u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(global.counter("other.count"), 1u);
  EXPECT_EQ(global.counter("inner.count"), 0u);
  EXPECT_EQ(global.counter("outer.count"), 0u);
  EXPECT_EQ(global.num_events(), 0u);

  // The sink-explicit span records into its own registry whatever the
  // scope, and is inert on null.
  {
    const ScopedSink scope(&inner);
    const Span pinned(&outer, "pinned", "test");
    EXPECT_TRUE(pinned.active());
    const Span inert(static_cast<Registry*>(nullptr), "inert", "test");
    EXPECT_FALSE(inert.active());
  }
  EXPECT_EQ(outer.num_events(), 1u);
  EXPECT_EQ(inner.num_events(), 1u);
}

}  // namespace
}  // namespace mhs::obs
