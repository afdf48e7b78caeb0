#include "core/explorer.h"

#include <cmath>
#include <mutex>
#include <optional>
#include <sstream>

#include "base/parallel_for.h"
#include "base/table.h"
#include "obs/obs.h"
#include "opt/pareto.h"

namespace mhs::core {
namespace {

/// Shards per concurrent cache of an Explorer.
constexpr std::size_t kCacheShards = 32;

}  // namespace

/// One flow-configuration variant's shared state: the annotated graph and
/// the cost model over it. Built at most once per batch, on whichever
/// thread needs it first.
struct Explorer::Context {
  std::once_flag once;
  ir::TaskGraph annotated;
  /// Keeps shared optimized kernels alive for this context's lifetime.
  std::vector<std::shared_ptr<const ir::Cdfg>> keepalive;
  std::optional<partition::CostModel> model;
};

Explorer::Explorer(const ir::TaskGraph& graph,
                   std::vector<const ir::Cdfg*> kernels, Options options)
    : graph_(graph),
      kernels_(std::move(kernels)),
      options_(options),
      optimized_kernels_(kCacheShards) {
  MHS_CHECK(kernels_.size() == graph_.num_tasks(),
            "one kernel slot per task required (use nullptr to skip)");
}

Explorer::Explorer(const ir::TaskGraph& graph,
                   std::vector<const ir::Cdfg*> kernels)
    : Explorer(graph, std::move(kernels), Options{}) {}

Explorer::Explorer(const ir::TaskGraph& graph, Options options)
    : Explorer(graph,
               std::vector<const ir::Cdfg*>(graph.num_tasks(), nullptr),
               options) {}

Explorer::Explorer(const ir::TaskGraph& graph)
    : Explorer(graph, Options{}) {}

Explorer::~Explorer() = default;

Explorer::Context& Explorer::context(
    const FlowConfig& config, std::size_t config_index,
    std::vector<std::unique_ptr<Context>>& contexts) {
  Context& ctx = *contexts[config_index];
  std::call_once(ctx.once, [&] {
    obs::Span span;
    if (obs::enabled()) {
      span = obs::Span("annotate[" + std::to_string(config_index) + "]",
                       "explorer");
    }
    std::vector<const ir::Cdfg*> kernels = kernels_;
    if (config.optimize_kernels) {
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        if (kernels[i] == nullptr) continue;
        const ir::Cdfg* original = kernels[i];
        std::shared_ptr<const ir::Cdfg> optimized =
            optimized_kernels_.get_or_compute(original, [&] {
              return std::make_shared<const ir::Cdfg>(optimize_kernel(
                  *original, analysis::absint_cdfg(*original)));
            });
        kernels[i] = optimized.get();
        ctx.keepalive.push_back(std::move(optimized));
      }
    }
    ctx.annotated = annotate_costs(graph_, kernels, config, &estimate_cache_);
    ctx.model.emplace(ctx.annotated, config.library, config.comm);
  });
  return ctx;
}

PointResult Explorer::evaluate_point(
    const DesignPoint& point, std::size_t index,
    const std::vector<FlowConfig>& configs,
    std::vector<std::unique_ptr<Context>>& contexts) {
  PointResult result;
  result.index = index;
  result.strategy = point.strategy;
  result.config_index = point.config_index;
  // Per-point span, tagged with the batch index (the thread tag is
  // stamped by the registry). Name and args are only built when a sink
  // is current, so disabled runs pay one branch.
  obs::Span span;
  if (obs::enabled()) {
    span = obs::Span("point[" + std::to_string(index) + "]", "explorer");
    span.arg("batch_index", std::to_string(index));
    span.arg("strategy", partition::strategy_name(point.strategy));
    span.arg("config", std::to_string(point.config_index));
  }
  const obs::Stopwatch watch;
  try {
    MHS_CHECK(point.config_index < configs.size(),
              "design point references config " << point.config_index
                                                << " but only "
                                                << configs.size()
                                                << " configs were given");
    Context& ctx =
        context(configs[point.config_index], point.config_index, contexts);
    result.partition = partition::run(point.strategy, *ctx.model,
                                      point.objective, point.options);
    const partition::Mapping all_sw(ctx.annotated.num_tasks(), false);
    result.all_sw_latency = ctx.model->schedule_latency(
        all_sw, point.objective.consider_concurrency,
        point.objective.consider_communication);
    result.speedup = result.partition.metrics.latency_cycles > 0.0
                         ? result.all_sw_latency /
                               result.partition.metrics.latency_cycles
                         : 1.0;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  // One clock read feeds both the result's wall time and the per-point
  // eval-latency histogram.
  const double elapsed_us = watch.elapsed_us();
  result.wall_ms = elapsed_us / 1000.0;
  obs::observe("explorer.point_us",
               static_cast<std::uint64_t>(std::llround(elapsed_us)));
  return result;
}

ExploreReport Explorer::explore(const std::vector<FlowConfig>& configs,
                                const std::vector<DesignPoint>& points) {
  ExploreReport report;
  report.threads = resolve_threads(options_.num_threads);
  // The estimate cache persists across batches; the report and the
  // counters give this batch's delta.
  const std::size_t estimate_hits_before = estimate_cache_.hits();
  const std::size_t estimate_misses_before = estimate_cache_.misses();
  const obs::Stopwatch watch;
  // parallel_for's helper threads are not the calling thread: each
  // iteration re-opens the caller's scope so its spans and counters land
  // in the same registry as the batch's own.
  obs::Registry* const sink = obs::registry();

  std::vector<std::unique_ptr<Context>> contexts;
  contexts.reserve(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    contexts.push_back(std::make_unique<Context>());
  }

  std::vector<PointResult> results(points.size());
  parallel_for(options_.num_threads, points.size(), [&](std::size_t i) {
    const obs::ScopedSink scope(sink);
    results[i] = evaluate_point(points[i], i, configs, contexts);
  });

  report.points = std::move(results);
  // Failed points carry no metrics and stay off the frontier.
  std::vector<std::size_t> ok;
  std::vector<std::vector<double>> objectives;
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const PointResult& p = report.points[i];
    if (!p.error.empty()) continue;
    ok.push_back(i);
    objectives.push_back({p.partition.metrics.latency_cycles,
                          p.partition.metrics.hw_area,
                          static_cast<double>(p.partition.evaluations)});
  }
  for (const std::size_t k : opt::pareto(objectives)) {
    report.frontier.push_back(ok[k]);
    report.points[ok[k]].on_frontier = true;
  }
  // One measurement feeds both the report's wall time and the batch
  // span, so the two can never disagree.
  const double batch_us = watch.elapsed_us();
  report.wall_ms = batch_us / 1000.0;
  if (sink != nullptr) {
    obs::SpanEvent batch_span;
    batch_span.name = "explore";
    batch_span.category = "explorer";
    batch_span.start_us = watch.start_us() - sink->epoch_us();
    batch_span.dur_us = batch_us;
    sink->record(std::move(batch_span));
  }

  for (const std::unique_ptr<Context>& ctx : contexts) {
    if (ctx->model.has_value()) ++report.contexts_built;
  }
  report.estimate_cache_hits = estimate_cache_.hits() - estimate_hits_before;
  report.estimate_cache_misses =
      estimate_cache_.misses() - estimate_misses_before;

  // Surface the batch as obs counters (no-ops when disabled).
  obs::count("explorer.points", points.size());
  obs::count("explorer.estimate_cache.hits", report.estimate_cache_hits);
  obs::count("explorer.estimate_cache.misses", report.estimate_cache_misses);

  // Summary.
  std::ostringstream os;
  os << banner("design-space exploration (" + graph_.name() + ")");
  TextTable table({"#", "strategy", "cfg", "in HW", "latency", "area",
                   "evals", "speedup", "ms", "pareto"});
  for (const PointResult& p : report.points) {
    if (!p.error.empty()) {
      table.add_row({fmt(p.index), partition::strategy_name(p.strategy),
                     fmt(p.config_index), "-", "error", "-", "-", "-",
                     fmt(p.wall_ms, 2), "-"});
      continue;
    }
    const auto& m = p.partition.metrics;
    table.add_row({fmt(p.index), partition::strategy_name(p.strategy),
                   fmt(p.config_index), fmt(m.tasks_in_hw),
                   fmt(m.latency_cycles, 1), fmt(m.hw_area, 1),
                   fmt(p.partition.evaluations), fmt(p.speedup, 2),
                   fmt(p.wall_ms, 2), p.on_frontier ? "*" : ""});
  }
  os << table.str();
  os << "points: " << report.points.size() << "  frontier: "
     << report.frontier.size() << "  threads: " << report.threads
     << "  wall: " << fmt(report.wall_ms, 1) << " ms\n"
     << "estimate cache: " << report.estimate_cache_hits << " hits / "
     << report.estimate_cache_misses << " misses; variants annotated: "
     << report.contexts_built << "\n";
  report.summary = os.str();

  // The unified envelope: Pareto-optimal designs in the common shape.
  report.report.title = "design-space exploration (" + graph_.name() + ")";
  for (const std::size_t idx : report.frontier) {
    const PointResult& p = report.points[idx];
    DesignSummary d;
    d.target = "point#" + std::to_string(idx) + " (" +
               partition::strategy_name(p.strategy) + ", cfg " +
               std::to_string(p.config_index) + ")";
    d.latency = p.partition.metrics.latency_cycles;
    d.area = p.partition.metrics.hw_area;
    d.detail = p.partition.algorithm + ": " +
               fmt(p.partition.metrics.tasks_in_hw) + " tasks in HW, " +
               fmt(p.speedup, 2) + "x over all-SW";
    report.report.designs.push_back(std::move(d));
  }
  report.report.wall_ms = report.wall_ms;
  report.report.capture_obs();
  return report;
}

std::vector<DesignPoint> Explorer::cross_product(
    std::size_t num_configs,
    const std::vector<partition::Strategy>& strategies,
    const std::vector<partition::Objective>& objectives) {
  std::vector<DesignPoint> points;
  points.reserve(num_configs * strategies.size() * objectives.size());
  for (std::size_t c = 0; c < num_configs; ++c) {
    for (const partition::Objective& objective : objectives) {
      for (const partition::Strategy strategy : strategies) {
        DesignPoint point;
        point.strategy = strategy;
        point.objective = objective;
        point.config_index = c;
        points.push_back(point);
      }
    }
  }
  return points;
}

ExploreReport Explorer::sweep(
    const std::vector<FlowConfig>& configs,
    const std::vector<partition::Strategy>& strategies,
    const std::vector<partition::Objective>& objectives) {
  return explore(configs,
                 cross_product(configs.size(), strategies, objectives));
}

}  // namespace mhs::core
