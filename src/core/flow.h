// The end-to-end co-design flow (the paper's Figure 2, made executable).
//
// One driver that chains every activity the paper catalogs over a single
// specification:
//
//   specify    — a task graph whose tasks carry behavioural kernels,
//   estimate   — software costs from the compiler/estimator, hardware
//                costs from high-level synthesis (the §3.2 "unified
//                understanding of HW and SW functionality"),
//   partition  — any §4.5-style strategy from mhs::cosynth,
//   co-synthesize — HLS of every hardware-mapped kernel (area validation),
//   co-simulate   — ISS + bus + accelerator co-simulation of the largest
//                hardware kernel behind its synthesized register interface.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/diag.h"
#include "base/concurrent_cache.h"
#include "core/report.h"
#include "cosynth/coproc.h"
#include "sim/cosim.h"

namespace mhs::core {

struct FlowConfig;

/// Thread-safe memo of annotate_costs' per-kernel estimator work (the
/// compiled software estimate, the min-area HLS run, and the parallelism
/// annotation). Keyed by a content hash of the kernel's CDFG plus a
/// signature of the CPU/library characterization, so repeated flows — or
/// explorer configuration variants — over the same kernels skip
/// re-estimating. Content keying (rather than the kernel's address)
/// makes entries stable across runs, immune to a kernel being freed
/// mid-sweep, and shared between distinct kernel objects with equal
/// bodies.
class KernelEstimateCache {
 public:
  KernelEstimateCache() = default;

  std::size_t hits() const { return cache_.hits(); }
  std::size_t misses() const { return cache_.misses(); }
  std::size_t size() const { return cache_.size(); }

  /// One task's estimator-derived annotation.
  struct Entry {
    double sw_cycles = 0.0;
    double sw_size = 0.0;
    double hw_cycles = 0.0;
    double hw_area = 0.0;
    double parallelism = 0.0;
  };

  struct Key {
    std::uint64_t kernel = 0;  ///< ir::content_hash of the kernel CDFG
    std::uint64_t env = 0;     ///< CPU + library signature
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::size_t seed = std::hash<std::uint64_t>{}(key.kernel);
      hash_combine(seed, std::hash<std::uint64_t>{}(key.env));
      return seed;
    }
  };

  /// The underlying memo table (used by annotate_costs).
  ConcurrentCache<Key, Entry, KeyHash>& table() { return cache_; }

 private:
  ConcurrentCache<Key, Entry, KeyHash> cache_{16};
};

/// Flow-wide configuration.
///
/// Configure either by mutating fields or through the fluent builder:
///   auto cfg = FlowConfig::defaults()
///                  .with_strategy(cosynth::CoprocStrategy::kGclp)
///                  .with_latency_target(5000.0)
///                  .without_cosim();
/// Every with_/without_ method returns a modified copy, so a base config
/// can be forked into variants (the explorer's typical input).
struct FlowConfig {
  cosynth::CoprocStrategy strategy = cosynth::CoprocStrategy::kKl;
  partition::Objective objective;
  /// Run the ir::optimize pipeline on every kernel before estimation —
  /// one optimization that shrinks both implementations (§3.2).
  bool optimize_kernels = true;
  hw::ComponentLibrary library = hw::default_library();
  sw::CpuModel cpu = sw::reference_cpu();
  partition::CommModel comm;
  /// Push every HW kernel through HLS and cross-check the estimate.
  bool validate_with_hls = true;
  /// Narrow the co-simulated kernel's datapath to the proven-safe widths
  /// analysis::absint infers from the cosim sample range: the flow
  /// annotates the kernel's inputs with that range, synthesizes the
  /// narrowed datapath, asserts it is bit-identical to the word-wide one
  /// on every sample, then co-simulates the narrowed implementation.
  bool narrow_datapaths = false;
  /// Post-synthesis differential verification: run this many seeded
  /// input vectors through hw::check_equivalence (RtlSim vs. the
  /// compiled software reference) on the co-simulated kernel and throw
  /// PreconditionError on any mismatch. 0 disables the gate. Vectors
  /// draw from cosim_seed, so the gate is deterministic per config.
  std::size_t verify_hls = 4;
  /// Co-simulate the largest HW kernel at this level (disabled if the
  /// partition puts nothing in hardware).
  bool cosimulate = true;
  sim::InterfaceLevel cosim_level = sim::InterfaceLevel::kRegister;
  std::size_t cosim_samples = 8;
  std::uint64_t cosim_seed = 7;
  /// Fault-injection campaign for the co-simulation step. An empty (or
  /// zero-rate) plan leaves the co-simulator on its fault-free paths.
  fault::FaultPlan fault_plan;
  /// Fault-schedule seed (sim::CosimConfig::fault_seed).
  std::uint64_t fault_seed = 42;
  /// Driver timeout/retry/degradation policy for fault-injection runs.
  sim::ResiliencePolicy resilience;
  /// Analysis gates: the flow runs analysis::verify() on its IR hand-offs
  /// (after compile/ingest, after partition, after HLS) and records the
  /// findings in FlowReport::report.diagnostics.
  ///   kOff    — gates skipped entirely;
  ///   kWarn   — findings recorded; a kernel with structural errors is
  ///             dropped from estimation/synthesis (its task keeps its
  ///             existing annotations);
  ///   kStrict — any ERROR finding aborts the flow with a
  ///             VerifyFailure carrying the diagnostic list.
  /// A structurally broken *task graph* always aborts regardless of
  /// level: no downstream phase can consume a cyclic graph.
  analysis::LintLevel lint_level = analysis::LintLevel::kWarn;

  /// The default configuration, as a fluent-chain anchor.
  static FlowConfig defaults() { return {}; }

  FlowConfig with_strategy(cosynth::CoprocStrategy s) const {
    FlowConfig c = *this;
    c.strategy = s;
    return c;
  }
  FlowConfig with_objective(const partition::Objective& o) const {
    FlowConfig c = *this;
    c.objective = o;
    return c;
  }
  /// Sets objective.latency_target (0 = unconstrained).
  FlowConfig with_latency_target(double cycles) const {
    FlowConfig c = *this;
    c.objective.latency_target = cycles;
    return c;
  }
  /// Sets objective.area_weight.
  FlowConfig with_area_weight(double weight) const {
    FlowConfig c = *this;
    c.objective.area_weight = weight;
    return c;
  }
  FlowConfig with_library(const hw::ComponentLibrary& lib) const {
    FlowConfig c = *this;
    c.library = lib;
    return c;
  }
  FlowConfig with_cpu(const sw::CpuModel& model) const {
    FlowConfig c = *this;
    c.cpu = model;
    return c;
  }
  FlowConfig with_comm(const partition::CommModel& model) const {
    FlowConfig c = *this;
    c.comm = model;
    return c;
  }
  FlowConfig without_kernel_optimization() const {
    FlowConfig c = *this;
    c.optimize_kernels = false;
    return c;
  }
  FlowConfig without_hls_validation() const {
    FlowConfig c = *this;
    c.validate_with_hls = false;
    return c;
  }
  FlowConfig without_cosim() const {
    FlowConfig c = *this;
    c.cosimulate = false;
    return c;
  }
  FlowConfig with_narrowing() const {
    FlowConfig c = *this;
    c.narrow_datapaths = true;
    return c;
  }
  /// Sets the number of post-synthesis differential vectors (0 = off).
  FlowConfig with_hls_verification(std::size_t vectors) const {
    FlowConfig c = *this;
    c.verify_hls = vectors;
    return c;
  }
  FlowConfig with_cosim_level(sim::InterfaceLevel level) const {
    FlowConfig c = *this;
    c.cosimulate = true;
    c.cosim_level = level;
    return c;
  }
  FlowConfig with_lint_level(analysis::LintLevel level) const {
    FlowConfig c = *this;
    c.lint_level = level;
    return c;
  }
  FlowConfig with_fault_plan(const fault::FaultPlan& plan) const {
    FlowConfig c = *this;
    c.fault_plan = plan;
    return c;
  }
  FlowConfig with_fault_seed(std::uint64_t seed) const {
    FlowConfig c = *this;
    c.fault_seed = seed;
    return c;
  }
  FlowConfig with_resilience(const sim::ResiliencePolicy& policy) const {
    FlowConfig c = *this;
    c.resilience = policy;
    return c;
  }
};

/// Everything the flow produced.
struct FlowReport {
  /// The input graph re-annotated with estimator-derived costs.
  ir::TaskGraph annotated;
  /// Optimized kernels (parallel to tasks) when optimize_kernels is set;
  /// the flow's estimates, synthesis, and co-simulation all used these.
  std::vector<ir::Cdfg> optimized_kernels;
  /// The partitioned design with its metrics.
  cosynth::CoprocDesign design;
  /// Sum of post-HLS areas of the HW kernels (0 if validation disabled).
  double validated_hw_area = 0.0;
  /// Relative gap between the cost model's shared-area estimate and the
  /// per-kernel post-synthesis sum (sharing makes the estimate smaller).
  double area_estimate_ratio = 1.0;
  /// Co-simulation of the largest HW kernel (if any and enabled).
  std::optional<sim::CosimReport> cosim;
  /// Differential vectors the post-synthesis equivalence gate compared
  /// (RtlSim vs. compiled reference; 0 when the gate was off or nothing
  /// went to hardware). Trapping vectors are drawn but not counted.
  std::size_t hls_verified_vectors = 0;
  /// Human-readable multi-line summary.
  std::string summary;
  /// The unified report envelope: the synthesized design in the common
  /// shape plus the obs summary (per-phase timings and counters) when a
  /// registry was installed during the run.
  Report report;
};

/// Runs the whole flow. `kernels[i]` is task i's behavioural kernel; null
/// entries keep the task's existing cost annotations.
FlowReport run_codesign_flow(const ir::TaskGraph& graph,
                             const std::vector<const ir::Cdfg*>& kernels,
                             const FlowConfig& config);

/// The specify step for one kernel: ir::optimize under the interval facts
/// of `absint`, which must be analysis::absint_cdfg(kernel) (plain
/// optimization for an unannotated kernel, whose facts are all top). The
/// flow passes the result its compile gate computed for the range lints;
/// the Explorer computes one. Both call this, so one specification
/// optimizes to one kernel. Precondition: analysis::verify_cdfg reported
/// no errors.
ir::Cdfg optimize_kernel(const ir::Cdfg& kernel,
                         const analysis::AbsintResult& absint,
                         ir::OptimizeStats* stats = nullptr);

/// The estimate step alone: returns `graph` with sw/hw costs derived from
/// the kernels (software: compiled static estimate; hardware: min-area
/// HLS latency and area; parallelism: width of the kernel's dataflow).
/// With a non-null `cache`, per-kernel estimates are memoized across
/// calls — callers re-annotating the same kernels (repeated flows, the
/// explorer's configuration variants) pay the estimators once.
ir::TaskGraph annotate_costs(const ir::TaskGraph& graph,
                             const std::vector<const ir::Cdfg*>& kernels,
                             const FlowConfig& config,
                             KernelEstimateCache* cache = nullptr);

/// The co-simulation sample recipe shared by the flow's cosim phase and
/// the service's /v1/cosim: `count` input vectors in Cdfg::inputs()
/// order, every value drawn uniformly from [-128, 127] by one Rng(seed)
/// stream, sample after sample.
std::vector<std::vector<std::int64_t>> cosim_samples(const ir::Cdfg& kernel,
                                                     std::size_t count,
                                                     std::uint64_t seed);

}  // namespace mhs::core
