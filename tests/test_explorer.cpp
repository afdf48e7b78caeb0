// Unit tests for mhs::core::Explorer — deterministic parallel design-space
// exploration, checked point by point against a serial recomputation —
// plus the partition::run dispatcher and the base concurrency primitives
// it builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/absint.h"
#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/concurrent_cache.h"
#include "base/rng.h"
#include "base/parallel_for.h"
#include "core/explorer.h"
#include "hw/hls.h"
#include "ir/serialize.h"
#include "ir/task_graph_gen.h"
#include "obs/obs.h"
#include "sim/run.h"

namespace mhs::core {
namespace {

ir::TaskGraph make_graph(std::size_t tasks = 12) {
  Rng rng(41);
  ir::TaskGraphGenConfig cfg;
  cfg.num_tasks = tasks;
  return ir::generate_task_graph(cfg, rng);
}

std::vector<partition::Objective> make_objectives(const ir::TaskGraph& g) {
  partition::Objective constrained;
  constrained.latency_target = 0.5 * g.total_sw_cycles();
  constrained.area_weight = 0.02;
  partition::Objective area_hungry = constrained;
  area_hungry.area_weight = 0.2;
  return {constrained, area_hungry};
}

std::vector<partition::Strategy> search_strategies() {
  return {partition::Strategy::kHotSpot, partition::Strategy::kUnload,
          partition::Strategy::kKl, partition::Strategy::kAnnealed,
          partition::Strategy::kGclp};
}

/// A 32-task generated graph with a kernel on every fourth task (four
/// distinct bodies, so one variant's annotation already repeats them).
apps::KernelBackedWorkload generated_workload() {
  apps::KernelBackedWorkload w;
  w.graph = make_graph(32);
  w.kernel_storage = {apps::fir_kernel(8), apps::xtea_kernel(4),
                      apps::checksum_kernel(8), apps::sad_kernel(4)};
  w.kernels.assign(w.graph.num_tasks(), nullptr);
  for (std::size_t t = 0; t < w.kernels.size(); t += 4) {
    w.kernels[t] = &w.kernel_storage[(t / 4) % w.kernel_storage.size()];
  }
  return w;
}

/// Bit-exact equality of every Metrics field.
void expect_metrics_identical(const partition::Metrics& a,
                              const partition::Metrics& b) {
  EXPECT_EQ(a.latency_cycles, b.latency_cycles);
  EXPECT_EQ(a.hw_area, b.hw_area);
  EXPECT_EQ(a.sw_code_bytes, b.sw_code_bytes);
  EXPECT_EQ(a.cross_comm_cycles, b.cross_comm_cycles);
  EXPECT_EQ(a.modifiability_penalty, b.modifiability_penalty);
  EXPECT_EQ(a.tasks_in_hw, b.tasks_in_hw);
  EXPECT_EQ(a.energy, b.energy);
}

/// Field-exact equality of the deterministic parts of two reports
/// (wall times are scheduling-dependent and deliberately excluded).
void expect_reports_identical(const ExploreReport& a,
                              const ExploreReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const PointResult& pa = a.points[i];
    const PointResult& pb = b.points[i];
    EXPECT_EQ(pa.index, pb.index);
    EXPECT_EQ(pa.strategy, pb.strategy);
    EXPECT_EQ(pa.config_index, pb.config_index);
    EXPECT_EQ(pa.error, pb.error);
    EXPECT_EQ(pa.partition.algorithm, pb.partition.algorithm);
    EXPECT_EQ(pa.partition.mapping, pb.partition.mapping);
    EXPECT_EQ(pa.partition.evaluations, pb.partition.evaluations);
    // Bit-identical metrics, not just approximately equal.
    expect_metrics_identical(pa.partition.metrics, pb.partition.metrics);
    EXPECT_EQ(pa.all_sw_latency, pb.all_sw_latency);
    EXPECT_EQ(pa.speedup, pb.speedup);
    EXPECT_EQ(pa.on_frontier, pb.on_frontier);
  }
  EXPECT_EQ(a.frontier, b.frontier);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> seen(257);
  parallel_for(4, seen.size(), [&](std::size_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const std::atomic<int>& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t sum = 0;
  std::size_t elsewhere = 0;
  parallel_for(1, 100, [&](std::size_t i) {
    sum += i;
    if (std::this_thread::get_id() != caller) ++elsewhere;
  });
  EXPECT_EQ(sum, 4950u);
  EXPECT_EQ(elsewhere, 0u);
}

TEST(ParallelFor, EveryIterationRunsAndTheExceptionIsRethrown) {
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<std::atomic<int>> ran(16);
    EXPECT_THROW(parallel_for(threads, ran.size(),
                              [&](std::size_t i) {
                                ran[i].fetch_add(1);
                                if (i == 7) throw Error("iteration failed");
                              }),
                 Error)
        << threads << " threads";
    for (const std::atomic<int>& r : ran) EXPECT_EQ(r.load(), 1) << threads;
  }
}

TEST(ConcurrentCache, MemoizesAndCounts) {
  ConcurrentCache<int, int> cache(4);
  int computed = 0;
  const auto compute = [&computed](int key) {
    return [&computed, key] {
      ++computed;
      return key * key;
    };
  };
  EXPECT_EQ(cache.get_or_compute(5, compute(5)), 25);
  EXPECT_EQ(cache.get_or_compute(5, compute(5)), 25);
  EXPECT_EQ(cache.get_or_compute(6, compute(6)), 36);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  int out = 0;
  EXPECT_TRUE(cache.lookup(6, &out));
  EXPECT_EQ(out, 36);
  EXPECT_FALSE(cache.lookup(7, &out));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ConcurrentCache, ConcurrentHammerStaysConsistent) {
  ConcurrentCache<int, int> cache(8);
  std::atomic<int> wrong{0};
  parallel_for(4, 512, [&](std::size_t i) {
    const int key = static_cast<int>(i % 13);
    const int value =
        cache.get_or_compute(key, [key] { return key * 1000; });
    if (value != key * 1000) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.size(), 13u);
  EXPECT_EQ(cache.hits() + cache.misses(), 512u);
}

TEST(PartitionRun, EveryStrategyReportsItsNameAndAFullMapping) {
  const ir::TaskGraph g = make_graph();
  const partition::CostModel model(g, hw::default_library());
  partition::Objective obj;
  obj.latency_target = 0.5 * g.total_sw_cycles();

  for (const partition::Strategy s : partition::kAllStrategies) {
    const partition::PartitionResult r = partition::run(s, model, obj);
    EXPECT_EQ(r.algorithm, partition::strategy_name(s));
    EXPECT_EQ(r.mapping.size(), g.num_tasks());
  }
}

TEST(Explorer, DeterministicAcrossThreadCounts) {
  const ir::TaskGraph g = make_graph();
  const std::vector<FlowConfig> configs = {FlowConfig::defaults()};
  const std::vector<DesignPoint> points = Explorer::cross_product(
      configs.size(), search_strategies(), make_objectives(g));
  ASSERT_EQ(points.size(), 10u);

  // 0 is every core; 32 is more threads than the batch has points.
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<ExploreReport> reports;
  for (const std::size_t threads : {1u, 2u, 8u, 0u, 32u}) {
    Explorer::Options options;
    options.num_threads = threads;
    Explorer explorer(g, options);
    reports.push_back(explorer.explore(configs, points));
    EXPECT_EQ(reports.back().threads, threads == 0 ? cores : threads);
  }
  for (std::size_t r = 1; r < reports.size(); ++r) {
    expect_reports_identical(reports[0], reports[r]);
  }
  EXPECT_FALSE(reports[0].frontier.empty());
}

/// Recomputes every point of `report` serially from outside the Explorer
/// — per variant optimize_kernel and annotate_costs with no cache, a fresh
/// CostModel, then partition::run per point — and requires each point to
/// match bit for bit.
void expect_matches_serial_recomputation(
    const apps::KernelBackedWorkload& w, const std::vector<FlowConfig>& configs,
    const std::vector<DesignPoint>& points, const ExploreReport& report) {
  ASSERT_EQ(report.points.size(), points.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const FlowConfig& config = configs[c];
    std::vector<ir::Cdfg> optimized(w.kernels.size());
    std::vector<const ir::Cdfg*> kernels = w.kernels;
    for (std::size_t t = 0; t < kernels.size(); ++t) {
      if (kernels[t] == nullptr || !config.optimize_kernels) continue;
      optimized[t] =
          optimize_kernel(*kernels[t], analysis::absint_cdfg(*kernels[t]));
      kernels[t] = &optimized[t];
    }
    const ir::TaskGraph annotated = annotate_costs(w.graph, kernels, config);
    const partition::CostModel model(annotated, config.library, config.comm);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const DesignPoint& point = points[i];
      if (point.config_index != c) continue;
      SCOPED_TRACE("point " + std::to_string(i));
      const PointResult& got = report.points[i];
      ASSERT_TRUE(got.error.empty()) << got.error;
      const partition::PartitionResult want = partition::run(
          point.strategy, model, point.objective, point.options);
      EXPECT_EQ(got.partition.mapping, want.mapping);
      expect_metrics_identical(got.partition.metrics, want.metrics);
      EXPECT_EQ(got.partition.evaluations, want.evaluations);
      EXPECT_EQ(got.all_sw_latency,
                model.schedule_latency(
                    partition::Mapping(annotated.num_tasks(), false),
                    point.objective.consider_concurrency,
                    point.objective.consider_communication));
    }
  }
}

TEST(Explorer, FourThreadSweepMatchesASerialRecomputation) {
  const apps::KernelBackedWorkload dsp = apps::dsp_chain_workload();
  const apps::KernelBackedWorkload generated = generated_workload();
  for (const apps::KernelBackedWorkload* w : {&dsp, &generated}) {
    SCOPED_TRACE(w->graph.name() + ", " +
                 std::to_string(w->graph.num_tasks()) + " tasks");
    const std::vector<FlowConfig> configs = {
        FlowConfig::defaults().without_cosim(),
        FlowConfig::defaults().without_cosim().without_kernel_optimization()};
    std::vector<partition::Objective> objectives =
        make_objectives(annotate_costs(w->graph, w->kernels, configs[0]));
    // The serial-HW, unpriced schedule is the other latency path.
    partition::Objective serial = objectives[0];
    serial.consider_concurrency = false;
    serial.consider_communication = false;
    objectives.push_back(serial);
    const std::vector<DesignPoint> points = Explorer::cross_product(
        configs.size(), search_strategies(), objectives);

    Explorer::Options options;
    options.num_threads = 4;
    Explorer explorer(w->graph, w->kernels, options);
    const ExploreReport report = explorer.explore(configs, points);
    EXPECT_EQ(report.threads, 4u);
    EXPECT_EQ(report.contexts_built, configs.size());
    expect_matches_serial_recomputation(*w, configs, points, report);
  }
}

TEST(Explorer, OptimizesKernelsUnderTheirRangeFactsLikeTheFlow) {
  // A ranged kernel the optimizer rewrites only under its absint facts:
  // the flow and a sweep of the same point must optimize it the same way
  // and so report the same design.
  const ir::TaskGraph graph = ir::task_graph_from_text(
      "taskgraph ranged\n"
      "task t0 sw=10 hw=5 area=3\n"
      "task t1 sw=400 hw=50 area=300\n"
      "edge 0 1 bytes=16\n"
      "end\n");
  const ir::Cdfg kernel = ir::cdfg_from_text(
      "cdfg ranged\n"
      "op input a\n"
      "op input b\n"
      "op const 1000\n"
      "op cmplt 0 2\n"
      "op mul 1 1\n"
      "op mul 4 1\n"
      "op mul 5 1\n"
      "op sub 1 1\n"
      "op select 3 1 6\n"
      "op const 8\n"
      "op div 0 9\n"
      "op add 8 10\n"
      "op output y 11\n"
      "range a 0 100\n"
      "end\n");
  const std::vector<const ir::Cdfg*> kernels = {&kernel, nullptr};
  const FlowConfig config =
      FlowConfig::defaults().without_cosim().with_strategy(
          partition::Strategy::kKl);
  const FlowReport flow = run_codesign_flow(graph, kernels, config);
  // The facts matter here: without them the select stays.
  ASSERT_EQ(flow.report.optimize_stats.range_rewrites, 2u);

  Explorer::Options options;
  options.num_threads = 1;
  Explorer explorer(graph, kernels, options);
  const ExploreReport report = explorer.sweep(
      {config}, {partition::Strategy::kKl}, {config.objective});
  ASSERT_EQ(report.points.size(), 1u);
  const PointResult& point = report.points[0];
  ASSERT_TRUE(point.error.empty()) << point.error;
  EXPECT_EQ(point.partition.mapping, flow.design.partition.mapping);
  expect_metrics_identical(point.partition.metrics,
                           flow.design.partition.metrics);
  EXPECT_EQ(point.partition.evaluations, flow.design.partition.evaluations);
  EXPECT_EQ(point.all_sw_latency, flow.design.all_sw_latency);
}

TEST(Explorer, EachBatchReportsItsOwnEstimateLookups) {
  // The estimate cache outlives a batch, so an identical second batch is
  // served from it. Its report, summary and obs counters must all count
  // that batch's lookups alone.
  const apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  Explorer::Options options;
  options.num_threads = 1;
  Explorer explorer(w.graph, w.kernels, options);
  std::vector<ExploreReport> reports;
  for (int batch = 0; batch < 2; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    obs::Registry registry;
    {
      const obs::ScopedSink scope(&registry);
      reports.push_back(
          explorer.sweep({FlowConfig::defaults().without_cosim()},
                         {partition::Strategy::kKl}, {partition::Objective{}}));
    }
    const ExploreReport& report = reports.back();
    EXPECT_EQ(report.estimate_cache_hits,
              registry.counter("explorer.estimate_cache.hits"));
    EXPECT_EQ(report.estimate_cache_misses,
              registry.counter("explorer.estimate_cache.misses"));
    EXPECT_NE(report.summary.find(
                  "estimate cache: " +
                  std::to_string(report.estimate_cache_hits) + " hits / " +
                  std::to_string(report.estimate_cache_misses) + " misses"),
              std::string::npos)
        << report.summary;
  }
  EXPECT_GT(reports[0].estimate_cache_misses, 0u);
  EXPECT_EQ(reports[1].estimate_cache_misses, 0u);
  EXPECT_EQ(reports[1].estimate_cache_hits,
            reports[0].estimate_cache_hits + reports[0].estimate_cache_misses);
  expect_reports_identical(reports[0], reports[1]);
}

TEST(Explorer, EmptyBatchAndSinglePoint) {
  const ir::TaskGraph g = make_graph();
  Explorer::Options options;
  options.num_threads = 2;
  Explorer explorer(g, options);

  const ExploreReport empty = explorer.explore({FlowConfig::defaults()}, {});
  EXPECT_TRUE(empty.points.empty());
  EXPECT_TRUE(empty.frontier.empty());
  EXPECT_EQ(empty.contexts_built, 0u);

  DesignPoint point;
  point.strategy = partition::Strategy::kKl;
  point.objective = make_objectives(g)[0];
  const ExploreReport one =
      explorer.explore({FlowConfig::defaults()}, {point});
  ASSERT_EQ(one.points.size(), 1u);
  EXPECT_TRUE(one.points[0].error.empty());
  EXPECT_TRUE(one.points[0].on_frontier);
  ASSERT_EQ(one.frontier, std::vector<std::size_t>{0});

  // A single point must agree exactly with a direct dispatcher call
  // (the graph has no kernels, so annotation leaves it unchanged).
  const FlowConfig cfg = FlowConfig::defaults();
  const partition::CostModel model(g, cfg.library, cfg.comm);
  const partition::PartitionResult direct =
      partition::run(point.strategy, model, point.objective);
  EXPECT_EQ(one.points[0].partition.mapping, direct.mapping);
  EXPECT_EQ(one.points[0].partition.metrics.energy, direct.metrics.energy);
}

TEST(Explorer, PointFailuresAreReportedInBand) {
  const ir::TaskGraph g = make_graph();
  Explorer::Options options;
  options.num_threads = 2;
  Explorer explorer(g, options);

  DesignPoint needs_target;
  needs_target.strategy = partition::Strategy::kHotSpot;
  // No latency target: the hot-spot mover must refuse.
  DesignPoint fine;
  fine.strategy = partition::Strategy::kGclp;
  fine.objective = make_objectives(g)[0];

  const ExploreReport report =
      explorer.explore({FlowConfig::defaults()}, {needs_target, fine});
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_FALSE(report.points[0].error.empty());
  EXPECT_FALSE(report.points[0].on_frontier);
  EXPECT_TRUE(report.points[1].error.empty());
  // Only the successful point is frontier-eligible.
  ASSERT_EQ(report.frontier, std::vector<std::size_t>{1});
}

TEST(Explorer, KernelEstimatesSharedAcrossConfigVariants) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  Explorer::Options options;
  // One worker builds the two contexts one after the other. With two,
  // both could look a kernel up before either stored it, and both miss.
  options.num_threads = 1;
  Explorer explorer(w.graph, w.kernels, options);

  // Two variants with identical estimation environments: the second
  // context's annotation must be served from the kernel-estimate cache.
  const std::vector<FlowConfig> configs = {
      FlowConfig::defaults().without_cosim(),
      FlowConfig::defaults().without_cosim().with_area_weight(0.2)};
  partition::Objective obj;
  obj.latency_target = 0.6 * w.graph.total_sw_cycles();
  const ExploreReport report =
      explorer.sweep(configs, {partition::Strategy::kKl}, {obj});

  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_TRUE(report.points[0].error.empty());
  EXPECT_TRUE(report.points[1].error.empty());
  EXPECT_EQ(report.contexts_built, 2u);
  EXPECT_GT(report.estimate_cache_hits, 0u);
  // Identical environments ⇒ identical annotations ⇒ identical results.
  EXPECT_EQ(report.points[0].partition.mapping,
            report.points[1].partition.mapping);
  EXPECT_EQ(report.points[0].partition.metrics.latency_cycles,
            report.points[1].partition.metrics.latency_cycles);
}

TEST(Explorer, RepeatedPointsKeepOnlyTheFirstOnTheFrontier) {
  const ir::TaskGraph g = make_graph();
  Explorer explorer(g, Explorer::Options{});
  DesignPoint point;
  point.strategy = partition::Strategy::kGclp;
  point.objective = make_objectives(g)[0];
  const ExploreReport report =
      explorer.explore({FlowConfig::defaults()}, {point, point});
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_EQ(report.points[0].partition.metrics.latency_cycles,
            report.points[1].partition.metrics.latency_cycles);
  EXPECT_EQ(report.frontier, std::vector<std::size_t>{0});
  EXPECT_TRUE(report.points[0].on_frontier);
  EXPECT_FALSE(report.points[1].on_frontier);
}

/// The names of the spans of category `cat` in a registry.
std::set<std::string> span_names(const obs::Registry& registry,
                                 const std::string& cat) {
  std::set<std::string> names;
  for (const obs::SpanEvent& event : registry.events()) {
    if (event.category == cat) names.insert(event.name);
  }
  return names;
}

TEST(Explorer, LibraryWorkRecordsIntoTheCallersScope) {
  // The library leg of the request leak canary: under a ScopedSink, a
  // flow, a 4-thread sweep (whose points run on its batch threads) and a
  // co-simulation record only into that sink.
  obs::Registry global;
  const obs::ScopedRegistry installed(global);
  const apps::KernelBackedWorkload w = apps::dsp_chain_workload();

  obs::Registry flow_sink;
  {
    const obs::ScopedSink scope(&flow_sink);
    FlowConfig config;
    config.cosim_samples = 2;
    core::run_codesign_flow(w.graph, w.kernels, config);
  }
  const std::set<std::string> partitions = span_names(flow_sink, "partition");
  EXPECT_EQ(partitions.count("kl"), 1u);
  EXPECT_EQ(partitions.count("all_sw"), 1u);
  EXPECT_GT(flow_sink.counter("hls.syntheses"), 0u);
  EXPECT_EQ(flow_sink.counter("cosim.runs"), 1u);

  obs::Registry sweep_sink;
  ExploreReport report;
  {
    const obs::ScopedSink scope(&sweep_sink);
    Explorer::Options options;
    options.num_threads = 4;
    Explorer explorer(w.graph, w.kernels, options);
    report = explorer.sweep({FlowConfig::defaults().without_cosim()},
                            search_strategies(), make_objectives(w.graph));
  }
  std::size_t point_spans = 0;
  for (const obs::SpanEvent& event : sweep_sink.events()) {
    if (event.category == "explorer" && event.name.rfind("point[", 0) == 0) {
      ++point_spans;
    }
  }
  EXPECT_EQ(point_spans, report.points.size());
  EXPECT_EQ(sweep_sink.counter("explorer.points"), report.points.size());
  EXPECT_GT(sweep_sink.counter("hls.syntheses"), 0u);
  EXPECT_FALSE(report.report.obs.empty());

  obs::Registry sim_sink;
  {
    const obs::ScopedSink scope(&sim_sink);
    const ir::Cdfg kernel = apps::fir_kernel(8);
    const hw::ComponentLibrary library = hw::default_library();
    const hw::HlsResult impl = hw::synthesize(kernel, library, {});
    const std::vector<std::vector<std::int64_t>> samples =
        core::cosim_samples(kernel, 3, 7);
    sim::SimRequest request;
    request.impl = &impl;
    request.samples = &samples;
    sim::run(request);
  }
  EXPECT_EQ(sim_sink.counter("cosim.runs"), 1u);
  EXPECT_EQ(sim_sink.counter("cosim.samples"), 3u);
  EXPECT_EQ(span_names(sim_sink, "cosim").count("register"), 1u);

  const obs::Summary leaked = global.summary();
  EXPECT_EQ(global.num_events(), 0u) << leaked.table();
  EXPECT_TRUE(leaked.counters.empty()) << leaked.table();
  EXPECT_TRUE(leaked.hists.empty()) << leaked.table();
  EXPECT_TRUE(leaked.gauges.empty()) << leaked.table();
}

}  // namespace
}  // namespace mhs::core
