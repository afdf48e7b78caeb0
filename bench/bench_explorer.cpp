// Explorer bench: parallel design-space sweep vs the naive
// one-flow-per-point baseline, and its scaling with threads.
//
// The sweep is the cross product {2 flow variants} × {8 objectives} ×
// {5 search strategies} = 80 design points over the DSP-chain workload.
// The baseline evaluates each point the way the repo did before the
// Explorer existed: a full run_codesign_flow per point, re-optimizing and
// re-estimating the kernels and re-evaluating every cost from scratch.
// The Explorer annotates each variant once and shares per-kernel
// estimates between variants; its points then share nothing mutable, so
// the sweep scales with threads.
//
// Each thread count is timed as the median of kSamples fresh Explorers,
// taken round-robin over the thread counts: a single sample of the
// 1-thread sweep varied by more than 1.5x between runs.
//
// Claims checked:
//   * ≥2× wall-clock speedup at 4 threads over the naive baseline on the
//     80-point sweep,
//   * the 4-thread median is ≥2.5× faster than the 1-thread median,
//   * the Pareto frontier (and every per-point metric) is bit-identical
//     at 1, 2, 4, and 8 threads, and matches the naive baseline.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/workloads.h"
#include "base/stats.h"
#include "bench_util.h"
#include "core/explorer.h"
#include "ir/optimize.h"
#include "obs/obs.h"

namespace mhs {
namespace {

/// Fresh Explorers timed per thread count.
constexpr std::size_t kSamples = 9;

std::vector<partition::Objective> make_objectives(double total_sw_cycles) {
  std::vector<partition::Objective> objectives;
  for (const double fraction : {0.3, 0.45, 0.6, 0.8}) {
    for (const double area_weight : {0.02, 0.2}) {
      partition::Objective objective;
      objective.latency_target = fraction * total_sw_cycles;
      objective.area_weight = area_weight;
      objectives.push_back(objective);
    }
  }
  return objectives;
}

/// Bit-exact serialization of a report's frontier and metrics, used to
/// compare runs across thread counts (hexfloat ⇒ no rounding slack).
std::string frontier_signature(const core::ExploreReport& report) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const std::size_t idx : report.frontier) {
    const core::PointResult& p = report.points[idx];
    os << idx << ":" << p.partition.metrics.latency_cycles << ","
       << p.partition.metrics.hw_area << "," << p.partition.evaluations
       << ";";
  }
  return os.str();
}

}  // namespace
}  // namespace mhs

int main() {
  using namespace mhs;
  // The Reporter's registry is installed only around the traced run at
  // the end — the untraced runs must stay untraced for the overhead and
  // bit-identity claims to mean anything.
  bench::Reporter rep("bench_explorer",
                      "parallel design-space exploration");

  apps::KernelBackedWorkload workload = apps::dsp_chain_workload();

  const std::vector<core::FlowConfig> configs = {
      core::FlowConfig::defaults().without_cosim().without_hls_validation(),
      core::FlowConfig::defaults()
          .without_cosim()
          .without_hls_validation()
          .without_kernel_optimization(),
  };
  const std::vector<partition::Strategy> strategies(
      std::begin(partition::kSearchStrategies),
      std::end(partition::kSearchStrategies));

  // Latency targets are fractions of the all-software serial latency of
  // the annotated graph (annotated once, out of band, for target setup).
  const ir::TaskGraph annotated =
      core::annotate_costs(workload.graph, workload.kernels, configs[0]);
  const std::vector<partition::Objective> objectives =
      make_objectives(annotated.total_sw_cycles());

  const std::vector<core::DesignPoint> points = core::Explorer::cross_product(
      configs.size(), strategies, objectives);
  std::cout << "sweep: " << configs.size() << " flow variants x "
            << objectives.size() << " objectives x " << strategies.size()
            << " strategies = " << points.size() << " design points\n\n";

  // Naive baseline: one full co-design flow per point, exactly what a
  // caller looping over run_codesign_flow would pay.
  obs::Stopwatch naive_watch;
  std::vector<partition::PartitionResult> naive_results;
  naive_results.reserve(points.size());
  for (const core::DesignPoint& point : points) {
    const core::FlowConfig config = configs[point.config_index]
                                        .with_strategy(point.strategy)
                                        .with_objective(point.objective);
    core::FlowReport flow =
        core::run_codesign_flow(workload.graph, workload.kernels, config);
    naive_results.push_back(flow.design.partition);
  }
  const double naive_ms = naive_watch.elapsed_us() / 1000.0;

  // Explorer at several thread counts; a fresh instance per sample so no
  // run inherits a warm estimate cache from the previous one.
  struct Run {
    std::size_t threads = 0;
    std::vector<double> samples_ms;
    double wall_ms = 0.0;  ///< median of samples_ms
    core::ExploreReport report;  ///< the first sample's
  };
  std::vector<Run> runs;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    runs.push_back({threads, {}, 0.0, {}});
  }
  // Determinism: bit-identical frontier at every thread count, in every
  // sample.
  std::string reference;
  bool frontiers_identical = true;
  for (std::size_t sample = 0; sample < kSamples; ++sample) {
    for (Run& run : runs) {
      core::Explorer::Options options;
      options.num_threads = run.threads;
      core::Explorer explorer(workload.graph, workload.kernels, options);
      obs::Stopwatch watch;
      core::ExploreReport report = explorer.explore(configs, points);
      run.samples_ms.push_back(watch.elapsed_us() / 1000.0);
      const std::string signature = frontier_signature(report);
      if (reference.empty()) reference = signature;
      frontiers_identical &= signature == reference;
      if (sample == 0) run.report = std::move(report);
    }
  }
  for (Run& run : runs) run.wall_ms = quantile(run.samples_ms, 0.5);
  const double one_thread_ms = runs.front().wall_ms;

  std::cout << "explorer times: median of " << kSamples
            << " fresh Explorers per thread count ("
            << std::thread::hardware_concurrency() << " cores)\n";
  TextTable table({"configuration", "wall ms", "min-max ms",
                   "speedup vs naive", "vs 1 thread", "frontier size"});
  table.add_row(
      {"naive flow-per-point", fmt(naive_ms, 1), "-", "1.00", "-", "-"});
  for (const Run& run : runs) {
    const auto [lo, hi] =
        std::minmax_element(run.samples_ms.begin(), run.samples_ms.end());
    table.add_row({"explorer, " + fmt(run.threads) + " thread(s)",
                   fmt(run.wall_ms, 1), fmt(*lo, 1) + "-" + fmt(*hi, 1),
                   fmt(naive_ms / run.wall_ms, 2),
                   fmt(one_thread_ms / run.wall_ms, 2),
                   fmt(run.report.frontier.size())});
  }
  std::cout << table.str() << "\n";

  // Correctness: the explorer's per-point results match the naive flow's.
  bool matches_naive = true;
  const core::ExploreReport& ref = runs.front().report;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const partition::PartitionResult& a = naive_results[i];
    const partition::PartitionResult& b = ref.points[i].partition;
    matches_naive &= a.mapping == b.mapping &&
                     a.metrics.latency_cycles == b.metrics.latency_cycles &&
                     a.metrics.hw_area == b.metrics.hw_area &&
                     a.evaluations == b.evaluations;
  }

  std::cout << "frontier (" << ref.frontier.size() << " of " << points.size()
            << " points):\n";
  for (const std::size_t idx : ref.frontier) {
    const core::PointResult& p = ref.points[idx];
    std::cout << "  #" << idx << "  "
              << partition::strategy_name(p.strategy)
              << "  cfg=" << p.config_index
              << "  latency=" << fmt(p.partition.metrics.latency_cycles, 1)
              << "  area=" << fmt(p.partition.metrics.hw_area, 1)
              << "  evals=" << p.partition.evaluations << "\n";
  }
  std::cout << "\n";

  const Run& four = runs[2];
  const double speedup_at_4 = naive_ms / four.wall_ms;
  const double scaling_at_4 = one_thread_ms / four.wall_ms;
  std::cout << "explorer at 4 threads: " << fmt(four.wall_ms, 1)
            << " ms vs naive " << fmt(naive_ms, 1) << " ms ("
            << fmt(speedup_at_4, 2) << "x) and vs 1 thread "
            << fmt(one_thread_ms, 1) << " ms (" << fmt(scaling_at_4, 2)
            << "x)\n";
  rep.metric("naive_ms", naive_ms, "ms", bench::Direction::kLowerIsBetter);
  for (const Run& run : runs) {
    rep.metric("explorer_ms_" + fmt(run.threads) + "t", run.wall_ms, "ms",
               bench::Direction::kLowerIsBetter);
  }
  rep.metric("speedup_at_4t", speedup_at_4, "x",
             bench::Direction::kHigherIsBetter);
  rep.metric("scaling_4t_vs_1t", scaling_at_4, "x",
             bench::Direction::kHigherIsBetter);
  rep.claim(
      ">=2x wall-clock vs the naive per-point flow at 4 threads, with a "
      "bit-identical Pareto frontier at 1/2/4/8 threads matching the naive "
      "results",
      speedup_at_4 >= 2.0 && frontiers_identical && matches_naive);
  rep.claim("the 4-thread median is >=2.5x faster than the 1-thread median",
            scaling_at_4 >= 2.5);

  // Estimate-cache soundness under content-hash keying: the two flow
  // variants look up each kernel once per context (2K lookups); the key
  // is (content hash, environment signature), and both variants share one
  // environment, so the expected miss count is exactly the number of
  // distinct kernel bodies across {optimized} ∪ {original}. Asserted on
  // the first 1-thread run, where hit/miss counts are race-free.
  std::size_t num_kernels = 0;
  std::set<std::uint64_t> unique_bodies;
  for (const ir::Cdfg* kernel : workload.kernels) {
    if (kernel == nullptr) continue;
    ++num_kernels;
    unique_bodies.insert(ir::content_hash(ir::optimize(*kernel)));
    unique_bodies.insert(ir::content_hash(*kernel));
  }
  const std::size_t expected_misses = unique_bodies.size();
  const std::size_t expected_hits = 2 * num_kernels - expected_misses;
  const core::ExploreReport& single = runs.front().report;
  std::cout << "\nestimate cache (1 thread): "
            << single.estimate_cache_hits << " hits / "
            << single.estimate_cache_misses << " misses; expected "
            << expected_hits << " / " << expected_misses
            << " from content hashing\n";
  rep.claim(
      "content-hash keying estimates each distinct kernel body exactly "
      "once (misses = unique bodies, hits = remaining lookups)",
      single.estimate_cache_misses == expected_misses &&
          single.estimate_cache_hits == expected_hits);

  // Observability overhead: a traced 4-thread sweep must reproduce the
  // untraced frontier bit-for-bit (tracing never perturbs results). The
  // traced run records into the Reporter's registry, so the spans,
  // counters, and the explorer.point_us histogram land in the JSON.
  obs::Registry& registry = rep.registry();
  core::ExploreReport traced_report;
  double traced_ms = 0.0;
  {
    core::Explorer::Options options;
    options.num_threads = 4;
    core::Explorer explorer(workload.graph, workload.kernels, options);
    obs::ScopedRegistry scope(registry);
    obs::Stopwatch watch;
    traced_report = explorer.explore(configs, points);
    traced_ms = watch.elapsed_us() / 1000.0;
  }
  std::cout << "\ntraced explorer at 4 threads: " << fmt(traced_ms, 1)
            << " ms (untraced: " << fmt(four.wall_ms, 1) << " ms); "
            << registry.num_events() << " spans, "
            << registry.counter("explorer.points") << " points counted\n";
  rep.metric("traced_ms", traced_ms, "ms", bench::Direction::kLowerIsBetter);
  rep.claim(
      "tracing-enabled sweep is bit-identical to the untraced frontier "
      "and counts every design point",
      frontier_signature(traced_report) == reference &&
          registry.counter("explorer.points") == points.size());
  return 0;
}
