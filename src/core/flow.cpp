#include "core/flow.h"

#include <algorithm>
#include <map>
#include <utility>
#include <sstream>

#include "analysis/absint.h"
#include "hw/equivalence.h"
#include "hw/hls.h"
#include "analysis/lint.h"
#include "analysis/verify.h"
#include "base/rng.h"
#include "cosynth/run.h"
#include "base/table.h"
#include "ir/optimize.h"
#include "obs/obs.h"
#include "sim/run.h"
#include "sw/estimate.h"

namespace mhs::core {

namespace {

/// Signature of the estimation environment: two kernels estimated under
/// equal signatures yield equal results, so the signature is a sound
/// KernelEstimateCache key component. Hashes every CPU and library field
/// the estimators read.
std::uint64_t estimate_env_signature(const sw::CpuModel& cpu,
                                     const hw::ComponentLibrary& lib) {
  std::size_t seed = 0;
  const auto mix_double = [&seed](double v) {
    hash_combine(seed, std::hash<double>{}(v));
  };
  const auto mix_size = [&seed](std::size_t v) {
    hash_combine(seed, std::hash<std::size_t>{}(v));
  };
  mix_size(cpu.alu_cycles);
  mix_size(cpu.mul_cycles);
  mix_size(cpu.div_cycles);
  mix_size(cpu.mem_cycles);
  mix_size(cpu.branch_taken_cycles);
  mix_size(cpu.branch_not_taken_cycles);
  mix_double(cpu.clock_scale);
  for (std::size_t i = 0; i < hw::kNumFuTypes; ++i) {
    mix_double(lib.fu[i].area);
    mix_size(lib.fu[i].latency);
  }
  mix_double(lib.register_area);
  mix_double(lib.mux_leg_area);
  mix_double(lib.controller_base_area);
  mix_double(lib.controller_area_per_state);
  mix_double(lib.controller_area_per_ctrl_bit);
  return seed;
}

/// The per-kernel estimator work of annotate_costs (compiled SW estimate,
/// min-area HLS, dataflow-parallelism annotation).
KernelEstimateCache::Entry estimate_kernel(const ir::Cdfg& kernel,
                                           const FlowConfig& config) {
  KernelEstimateCache::Entry entry;

  const sw::SwEstimate sw_est = sw::estimate_compiled(kernel, config.cpu);
  entry.sw_cycles = sw_est.cycles_per_iteration;
  entry.sw_size = sw_est.code_bytes;

  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl =
      hw::synthesize(kernel, config.library, constraints);
  entry.hw_cycles = static_cast<double>(impl.latency);
  entry.hw_area = impl.area.total();

  // Nature of computation: available dataflow parallelism, i.e. how much
  // wider than its depth the kernel is.
  std::size_t compute_ops = 0;
  for (const ir::OpId id : kernel.op_ids()) {
    if (ir::op_is_compute(kernel.op(id).kind)) ++compute_ops;
  }
  const std::size_t depth = std::max<std::size_t>(kernel.depth(), 1);
  entry.parallelism = std::clamp(
      (static_cast<double>(compute_ops) / static_cast<double>(depth) - 1.0) /
          3.0,
      0.0, 1.0);
  return entry;
}

}  // namespace

ir::Cdfg optimize_kernel(const ir::Cdfg& kernel,
                         const analysis::AbsintResult& absint,
                         ir::OptimizeStats* stats) {
  return ir::optimize(kernel, absint.interval_facts(), stats);
}

ir::TaskGraph annotate_costs(const ir::TaskGraph& graph,
                             const std::vector<const ir::Cdfg*>& kernels,
                             const FlowConfig& config,
                             KernelEstimateCache* cache) {
  MHS_CHECK(kernels.size() == graph.num_tasks(),
            "one kernel slot per task required (use nullptr to skip)");
  const std::uint64_t env =
      cache == nullptr ? 0 : estimate_env_signature(config.cpu, config.library);
  ir::TaskGraph annotated = graph;
  for (const ir::TaskId t : annotated.task_ids()) {
    const ir::Cdfg* kernel = kernels[t.index()];
    if (kernel == nullptr) continue;

    const KernelEstimateCache::Entry entry =
        cache == nullptr
            ? estimate_kernel(*kernel, config)
            : cache->table().get_or_compute(
                  KernelEstimateCache::Key{ir::content_hash(*kernel), env},
                  [&] { return estimate_kernel(*kernel, config); });

    ir::TaskCosts& costs = annotated.task(t).costs;
    costs.sw_cycles = entry.sw_cycles;
    costs.sw_size = entry.sw_size;
    costs.hw_cycles = entry.hw_cycles;
    costs.hw_area = entry.hw_area;
    costs.parallelism = entry.parallelism;
  }
  return annotated;
}

FlowReport run_codesign_flow(const ir::TaskGraph& graph,
                             const std::vector<const ir::Cdfg*>& raw_kernels,
                             const FlowConfig& config) {
  FlowReport report;
  const obs::Stopwatch flow_watch;
  const bool gates_on = config.lint_level != analysis::LintLevel::kOff;
  analysis::Diagnostics& diagnostics = report.report.diagnostics;

  // Gate 1 — after compile/ingest: the specification hand-off. The task
  // graph must be a DAG for every downstream phase, so graph errors are
  // fatal at any gated level; a structurally broken kernel is fatal at
  // strict and dropped (its task keeps its existing annotations) at warn,
  // before the optimizer or the estimators can trip over it.
  std::vector<const ir::Cdfg*> kernels = raw_kernels;
  // One absint result per kernel that passes verification: the gate's
  // range lints read it, and specify optimizes under it.
  std::vector<std::optional<analysis::AbsintResult>> absint(kernels.size());
  if (gates_on) {
    obs::Span gate("verify.compile", "analysis");
    const analysis::Diagnostics graph_diags = analysis::verify(graph);
    diagnostics.merge(graph_diags);
    if (graph_diags.has_errors()) {
      throw analysis::VerifyFailure("compile", diagnostics);
    }
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      if (kernels[i] == nullptr) continue;
      // Ranged analysis: the structural checks plus the dataflow lints
      // (which only warn), then on a sound kernel the CDFG2xx value-range
      // family (a proven divide-by-zero or shift-out-of-range is an error
      // at this gate like any other).
      analysis::Diagnostics kernel_diags = analysis::analyze_cdfg(*kernels[i]);
      if (!kernel_diags.has_errors()) {
        absint[i] = analysis::absint_cdfg(*kernels[i]);
        kernel_diags.merge(analysis::lint_ranges(*kernels[i], *absint[i]));
      }
      diagnostics.merge(kernel_diags);
      if (analysis::apply_gate("compile", config.lint_level, kernel_diags)) {
        kernels[i] = nullptr;  // warn level: unusable kernel, skip it
      }
    }
  }

  // Phase 1 — specify: optionally optimize every kernel once; all
  // downstream steps (estimation, partitioning inputs, HLS validation,
  // co-simulation) then see the optimized form.
  {
    obs::Span phase("specify", "flow");
    if (config.optimize_kernels) {
      // Iterates the post-gate kernel list: a kernel the compile gate
      // dropped must not reach the optimizer either. The per-kernel stats
      // sum into the report.
      report.optimized_kernels.reserve(kernels.size());
      ir::OptimizeStats& total = report.report.optimize_stats;
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        const ir::Cdfg* kernel = kernels[i];
        if (kernel == nullptr) {
          report.optimized_kernels.emplace_back();
          continue;
        }
        // With the gates off, nothing has run absint on this kernel yet.
        if (!absint[i]) absint[i] = analysis::absint_cdfg(*kernel);
        ir::OptimizeStats stats;
        report.optimized_kernels.push_back(
            optimize_kernel(*kernel, *absint[i], &stats));
        total.constants_folded += stats.constants_folded;
        total.identities_applied += stats.identities_applied;
        total.subexpressions_merged += stats.subexpressions_merged;
        total.dead_ops_removed += stats.dead_ops_removed;
        total.range_rewrites += stats.range_rewrites;
        total.ops_before += stats.ops_before;
        total.ops_after += stats.ops_after;
      }
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        if (kernels[i] != nullptr) {
          kernels[i] = &report.optimized_kernels[i];
        }
      }
    }
  }

  // Phase 2 — estimate.
  {
    obs::Span phase("estimate", "flow");
    report.annotated = annotate_costs(graph, kernels, config);
  }

  // Phase 3 — partition.
  const partition::CostModel model(report.annotated, config.library,
                                   config.comm);
  {
    obs::Span phase("partition", "flow");
    cosynth::Request request;
    request.model = &model;
    request.objective = config.objective;
    request.strategy = config.strategy;
    // The flow runs its own gates (gate 1 above, gate 2 below) with
    // skip-and-continue semantics; cosynth::run's all-or-nothing gate
    // would fire twice on the same graph, so it stays off here.
    request.lint_level = analysis::LintLevel::kOff;
    report.design =
        *cosynth::run(cosynth::Target::kCoprocessor, request).coprocessor;
  }

  // Gate 2 — after partition: the annotated graph the partitioner worked
  // on is the next hand-off (to HLS validation and co-simulation). Its
  // structure was verified at gate 1; this re-lints the estimator-derived
  // annotations (an estimator emitting NaN costs surfaces here).
  if (gates_on) {
    obs::Span gate("verify.partition", "analysis");
    const analysis::Diagnostics partition_diags =
        analysis::verify(report.annotated);
    diagnostics.merge(partition_diags);
    analysis::apply_gate("partition", config.lint_level, partition_diags);
  }

  // Phase 4 — co-synthesize: HLS of every HW-mapped kernel.
  {
    obs::Span phase("cosynth", "flow");
    if (config.validate_with_hls) {
      report.validated_hw_area = cosynth::validate_hw_area(
          model, report.design.partition.mapping, kernels);
      const double estimated = report.design.partition.metrics.hw_area;
      if (report.validated_hw_area > 0.0) {
        report.area_estimate_ratio = estimated / report.validated_hw_area;
      }
    }
  }

  // Phase 5 — co-simulate the largest hardware kernel behind its
  // register interface.
  {
    obs::Span phase("cosim", "flow");
    if (config.cosimulate) {
      const ir::Cdfg* largest = nullptr;
      double largest_cycles = -1.0;
      for (const ir::TaskId t : report.annotated.task_ids()) {
        if (!report.design.partition.mapping[t.index()]) continue;
        if (kernels[t.index()] == nullptr) continue;
        const double c = report.annotated.task(t).costs.sw_cycles;
        if (c > largest_cycles) {
          largest_cycles = c;
          largest = kernels[t.index()];
        }
      }
      if (largest != nullptr) {
        hw::HlsConstraints constraints;
        constraints.goal = hw::HlsGoal::kMinArea;
        // Narrowing: annotate the kernel's inputs with the range the
        // cosim sampler below actually draws from, let absint prove the
        // per-op widths that range implies, and synthesize the narrowed
        // datapath. The annotated copy must outlive `impl` and the
        // sim::run call — the schedule holds a pointer to its CDFG.
        std::optional<ir::Cdfg> narrowed_kernel;
        if (config.narrow_datapaths) {
          narrowed_kernel = ir::with_input_ranges(*largest, {-128, 127});
          constraints.op_width = analysis::absint_cdfg(*narrowed_kernel).width;
        }
        const ir::Cdfg& cosim_kernel =
            narrowed_kernel ? *narrowed_kernel : *largest;
        const hw::HlsResult impl =
            hw::synthesize(cosim_kernel, config.library, constraints);
        // Gate 3 — after HLS: the synthesized schedule/binding is about
        // to drive the cycle-accurate co-simulation; a value read before
        // its producing cycle or an over-committed FU would corrupt it.
        if (gates_on) {
          obs::Span gate("verify.hls", "analysis");
          const analysis::Diagnostics hls_diags = analysis::verify(impl);
          diagnostics.merge(hls_diags);
          analysis::apply_gate("hls", config.lint_level, hls_diags);
        }
        // Differential equivalence gate — the synthesized FSM + datapath
        // + binding, executed cycle-by-cycle by hw::RtlSim, must match
        // the compiled software reference bit-for-bit on seeded vectors
        // before the implementation is trusted with the co-simulation.
        if (config.verify_hls > 0) {
          obs::Span gate("verify.equiv", "analysis");
          const hw::EquivCampaign campaign = hw::verify_synthesis(
              impl, config.verify_hls, config.cosim_seed ^ 0xe901f0ull);
          MHS_CHECK(campaign.all_equivalent,
                    "post-synthesis equivalence gate failed: "
                        << campaign.first_failure);
          report.hls_verified_vectors = campaign.vectors;
        }
        const std::vector<std::vector<std::int64_t>> samples =
            cosim_samples(*largest, config.cosim_samples, config.cosim_seed);
        if (config.narrow_datapaths) {
          // Soundness check before the narrowed datapath is trusted with
          // the co-simulation: on every sample, RtlSim (which wraps each
          // value to its proven width) must reproduce the full-width
          // software reference bit for bit. Any disagreement means
          // absint proved an unsound width.
          const ir::CompiledEval reference(cosim_kernel);
          hw::EquivOptions options;
          options.reference = &reference;
          const std::vector<ir::OpId> inputs = cosim_kernel.inputs();
          for (const std::vector<std::int64_t>& in : samples) {
            std::map<std::string, std::int64_t> named;
            for (std::size_t k = 0; k < inputs.size(); ++k) {
              named[cosim_kernel.op(inputs[k]).name] = in[k];
            }
            const hw::EquivResult check =
                hw::check_equivalence(impl, named, options);
            MHS_CHECK(check.equivalent,
                      "narrowed datapath diverged from the full-width "
                      "reference on a cosim sample: "
                          << check.detail);
          }
        }
        sim::CosimConfig cosim_cfg;
        cosim_cfg.level = config.cosim_level;
        cosim_cfg.cpu = config.cpu;
        cosim_cfg.fault_plan = config.fault_plan;
        cosim_cfg.fault_seed = config.fault_seed;
        cosim_cfg.resilience = config.resilience;
        sim::SimRequest sreq;
        sreq.impl = &impl;
        sreq.samples = &samples;
        sreq.cosim = cosim_cfg;
        report.cosim = std::move(sim::run(sreq).cosim).value();
      }
    }
  }

  // Summary.
  std::ostringstream os;
  const auto& m = report.design.partition.metrics;
  os << banner("co-design flow: " + graph.name());
  TextTable table({"metric", "value"});
  table.add_row({"strategy", report.design.partition.algorithm});
  table.add_row({"tasks", fmt(report.annotated.num_tasks())});
  table.add_row({"tasks in HW", fmt(m.tasks_in_hw)});
  table.add_row({"all-SW latency (cyc)", fmt(report.design.all_sw_latency, 1)});
  table.add_row({"partitioned latency (cyc)", fmt(m.latency_cycles, 1)});
  table.add_row({"speedup", fmt(report.design.speedup(), 2)});
  table.add_row({"HW area (est)", fmt(m.hw_area, 1)});
  if (config.validate_with_hls) {
    table.add_row({"HW area (post-HLS sum)", fmt(report.validated_hw_area, 1)});
    table.add_row({"estimate/HLS ratio", fmt(report.area_estimate_ratio, 2)});
  }
  table.add_row({"cross comm (cyc)", fmt(m.cross_comm_cycles, 1)});
  table.add_row({"SW code (bytes)", fmt(m.sw_code_bytes, 0)});
  if (report.hls_verified_vectors > 0) {
    table.add_row({"HLS equiv vectors", fmt(report.hls_verified_vectors)});
  }
  if (report.cosim) {
    table.add_row({"cosim level",
                   sim::interface_level_name(report.cosim->level)});
    table.add_row({"cosim events", fmt(report.cosim->sim_events)});
    table.add_row({"cosim cycles", fmt(report.cosim->total_cycles, 0)});
  }
  os << table.str();
  report.summary = os.str();

  // The unified envelope.
  report.report.title = "co-design flow: " + graph.name();
  report.report.add_design("coprocessor", report.design);
  if (report.cosim) {
    report.report.profiles.push_back(report.cosim->profile);
    if (!report.cosim->resilience.empty()) {
      report.report.resilience.push_back(report.cosim->resilience);
    }
  }
  // One clock read closes the flow: the report's wall time and the root
  // "flow" span are both derived from it, so they can never disagree.
  const double flow_us = flow_watch.elapsed_us();
  report.report.wall_ms = flow_us / 1000.0;
  if (obs::Registry* const sink = obs::registry()) {
    obs::SpanEvent root;
    root.name = "flow";
    root.category = "flow";
    root.start_us = flow_watch.start_us() - sink->epoch_us();
    root.dur_us = flow_us;
    sink->record(std::move(root));
  }
  report.report.capture_obs();
  return report;
}

std::vector<std::vector<std::int64_t>> cosim_samples(const ir::Cdfg& kernel,
                                                     std::size_t count,
                                                     std::uint64_t seed) {
  const std::size_t num_inputs = kernel.inputs().size();
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples(
      count, std::vector<std::int64_t>(num_inputs));
  for (std::vector<std::int64_t>& in : samples) {
    for (std::int64_t& v : in) v = rng.uniform_int(-128, 127);
  }
  return samples;
}

}  // namespace mhs::core
