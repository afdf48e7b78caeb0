// Parallel design-space exploration engine.
//
// The paper's §4.5 frames partitioning as a search through a large design
// space under many competing factors. The Explorer makes that search the
// first-class workload: a batch of design points — the cross product of
// partitioning strategies, objectives, and flow-configuration variants
// over one specification — is fanned across all cores by parallel_for
// (threads started for the batch and joined when it ends), every point
// runs estimate → partition → co-synthesize, and the results are merged
// deterministically (ordered by point index, independent of thread
// scheduling) into a Pareto frontier over (latency, area, evaluations).
//
// Each variant is annotated once, and a KernelEstimateCache shares the
// per-kernel compile/HLS estimates between variants, so the estimators
// run once per kernel per environment. Partition evaluations are not
// memoized: every point scores mappings on its variant's const,
// allocation-free CostModel, and a cache shared by the workers cost more
// in locking and key hashing than the evaluations it saved. The points
// share nothing mutable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/concurrent_cache.h"
#include "core/flow.h"

namespace mhs::core {

/// One point of the design space: which algorithm, scored how, over
/// which flow-configuration variant.
struct DesignPoint {
  partition::Strategy strategy = partition::Strategy::kKl;
  partition::Objective objective;
  /// Index into the `configs` batch passed to Explorer::explore.
  std::size_t config_index = 0;
  /// Per-strategy knobs (annealing schedule, KL start mapping).
  partition::PartitionOptions options;
};

/// Outcome of one design point.
struct PointResult {
  std::size_t index = 0;  ///< position in the input batch
  partition::Strategy strategy = partition::Strategy::kKl;
  std::size_t config_index = 0;
  partition::PartitionResult partition;
  /// All-software baseline latency under the same variant (for speedup).
  double all_sw_latency = 0.0;
  double speedup = 1.0;
  /// Wall-clock time this point took (scheduling-dependent; excluded
  /// from determinism guarantees).
  double wall_ms = 0.0;
  /// True iff the point is on the (latency, area, evaluations) frontier.
  bool on_frontier = false;
  /// Non-empty iff the point failed (e.g. a strategy that requires a
  /// latency target ran under an objective without one). Failed points
  /// carry no metrics and never reach the frontier.
  std::string error;
};

/// Everything one explore() produced. Deterministic apart from the wall
/// times: points are ordered by batch index and the frontier is computed
/// after the deterministic merge, so the mappings, metrics, and frontier
/// are identical for every thread count.
struct ExploreReport {
  std::vector<PointResult> points;  ///< one per input point, index order
  /// Indices (into `points`) of the Pareto-optimal points, ascending
  /// (opt::pareto over latency_cycles, hw_area and evaluations, all
  /// minimized). Of points with equal objectives only the first is kept.
  std::vector<std::size_t> frontier;

  /// Options::num_threads with 0 resolved to the core count. A batch
  /// with fewer points starts fewer threads.
  std::size_t threads = 1;
  double wall_ms = 0.0;  ///< whole-batch wall time
  /// Always 0: the Explorer attaches no partition::EvalCache. The fields
  /// remain because perfbench's replay still reads them; they go with
  /// EvalCache once the benchmark drops that use.
  std::size_t cost_cache_hits = 0;
  std::size_t cost_cache_misses = 0;
  /// This batch's kernel-estimate lookups (the cache itself persists
  /// across batches, so a repeated batch reports only hits).
  std::size_t estimate_cache_hits = 0;
  std::size_t estimate_cache_misses = 0;
  /// Configuration variants actually annotated (≤ configs.size()).
  std::size_t contexts_built = 0;
  /// Human-readable table of every point plus the estimate-cache counts.
  std::string summary;
  /// The unified report envelope: the frontier designs in the common
  /// shape plus the obs summary when a registry was installed.
  Report report;
};

/// The exploration engine. Construct once per specification (task graph
/// plus optional behavioural kernels), then explore() batches of points.
/// An Explorer instance may be reused across batches: its caches persist,
/// so later batches start warm.
class Explorer {
 public:
  struct Options {
    /// Total threads per batch (the calling thread included); 0 = all
    /// cores.
    std::size_t num_threads = 0;
  };

  /// `kernels[i]` is task i's behavioural kernel (nullptr = keep the
  /// task's existing cost annotations). Kernels must outlive the
  /// Explorer. The graph is copied.
  Explorer(const ir::TaskGraph& graph, std::vector<const ir::Cdfg*> kernels,
           Options options);
  Explorer(const ir::TaskGraph& graph, std::vector<const ir::Cdfg*> kernels);
  /// Annotation-only specification (no kernels).
  Explorer(const ir::TaskGraph& graph, Options options);
  explicit Explorer(const ir::TaskGraph& graph);
  ~Explorer();

  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Evaluates every point of the batch. `configs` is the pool of
  /// flow-configuration variants the points reference by index; each
  /// variant is annotated at most once, on whichever thread needs it
  /// first. Every point's failure is reported in-band (PointResult::
  /// error) rather than aborting the batch.
  ExploreReport explore(const std::vector<FlowConfig>& configs,
                        const std::vector<DesignPoint>& points);

  /// Convenience: explore the full cross product
  /// configs × objectives × strategies.
  ExploreReport sweep(const std::vector<FlowConfig>& configs,
                      const std::vector<partition::Strategy>& strategies,
                      const std::vector<partition::Objective>& objectives);

  /// The cross product in deterministic order (config-major, then
  /// objective, then strategy).
  static std::vector<DesignPoint> cross_product(
      std::size_t num_configs,
      const std::vector<partition::Strategy>& strategies,
      const std::vector<partition::Objective>& objectives);

 private:
  struct Context;

  /// Returns the lazily built context for one configuration variant
  /// (thread-safe; built exactly once).
  Context& context(const FlowConfig& config, std::size_t config_index,
                   std::vector<std::unique_ptr<Context>>& contexts);
  PointResult evaluate_point(const DesignPoint& point, std::size_t index,
                             const std::vector<FlowConfig>& configs,
                             std::vector<std::unique_ptr<Context>>& contexts);

  ir::TaskGraph graph_;
  std::vector<const ir::Cdfg*> kernels_;
  Options options_;
  /// ir::optimize results shared across variants (keyed by kernel
  /// identity; optimization is deterministic).
  ConcurrentCache<const ir::Cdfg*, std::shared_ptr<const ir::Cdfg>>
      optimized_kernels_;
  KernelEstimateCache estimate_cache_;
};

}  // namespace mhs::core
