// Cross-module integration tests: one specification flowing through the
// compiler, the synthesizer, the partitioners, and the co-simulators —
// the end-to-end stories behind the paper's figures.
#include <gtest/gtest.h>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "base/stats.h"
#include "core/flow.h"
#include "cosynth/mtcoproc.h"
#include "cosynth/multiproc.h"
#include "cosynth/run.h"
#include "hw/rtl_sim.h"
#include "ir/task_graph_gen.h"
#include "opt/pareto.h"
#include "partition/algorithms.h"
#include "sim/cosim.h"
#include "sim/run.h"
#include "sw/iss.h"

namespace mhs {
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


// ---------------------------------------------------------------------
// The §3.2 story: one specification, three executable implementations
// (interpreter, compiled software on the ISS, synthesized datapath), all
// in exact agreement.
TEST(Integration, OneSpecThreeImplementationsAgree) {
  const ir::Cdfg kernels[] = {apps::fir_kernel(10), apps::dct8_kernel(),
                              apps::xtea_kernel(8),
                              apps::checksum_kernel(5)};
  Rng rng(2024);
  const hw::ComponentLibrary lib = hw::default_library();
  for (const ir::Cdfg& kernel : kernels) {
    std::map<std::string, std::int64_t> in;
    for (const ir::OpId id : kernel.inputs()) {
      in[kernel.op(id).name] = rng.uniform_int(0, 1 << 20);
    }
    const auto reference = kernel.evaluate(in);

    // Software: compile and execute on the ISS.
    sw::Iss iss;
    const sw::Program program = sw::compile(kernel);
    EXPECT_EQ(sw::run_program(iss, program, in), reference)
        << kernel.name() << " (sw)";

    // Hardware: synthesize and simulate the datapath.
    hw::HlsConstraints constraints;
    constraints.goal = hw::HlsGoal::kMinArea;
    const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
    EXPECT_EQ(hw::RtlSim(impl).run(in).outputs, reference)
        << kernel.name() << " (hw)";
  }
}

// ---------------------------------------------------------------------
// Figure 4 story: the full embedded-microprocessor stack — interface
// synthesis chooses a driver, and the chosen driver actually runs on the
// ISS against the synthesized peripheral, at pin level.
TEST(Integration, EmbeddedStackRunsSynthesizedDriverAtPinLevel) {
  const ir::Cdfg kernel = apps::fir_kernel(8);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);

  Rng rng(7);
  std::vector<std::vector<std::int64_t>> samples;
  for (int s = 0; s < 6; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-500, 500));
    }
    samples.push_back(in);
  }

  cosynth::AddressMapAllocator alloc;
  cosynth::Request ireq;
  ireq.impl = &impl;
  ireq.samples = &samples;
  ireq.allocator = &alloc;
  const cosynth::InterfaceDesign iface =
      *cosynth::run(cosynth::Target::kInterface, ireq).iface;
  EXPECT_EQ(iface.candidates.size(), 2u);

  // Cross-check the selected configuration at the pin level too.
  sim::CosimConfig pin_cfg;
  pin_cfg.level = sim::InterfaceLevel::kPin;
  pin_cfg.use_irq = iface.candidates[iface.selected].use_irq;
  const sim::CosimReport pin = accel_cosim(impl, pin_cfg, samples);
  EXPECT_EQ(pin.checksum, iface.candidates[iface.selected].report.checksum);
  EXPECT_GT(pin.signal_transitions, 0u);
}

// ---------------------------------------------------------------------
// Figure 8 story: annotation from real kernels -> partitioning -> HLS
// validation -> co-simulation, via the core flow, for all strategies.
TEST(Integration, FlowStrategiesAllProduceValidDesigns) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  for (const cosynth::CoprocStrategy strategy :
       {cosynth::CoprocStrategy::kKl, cosynth::CoprocStrategy::kGclp,
        cosynth::CoprocStrategy::kAnnealed}) {
    core::FlowConfig cfg;
    cfg.strategy = strategy;
    cfg.objective.area_weight = 0.02;
    const core::FlowReport report =
        core::run_codesign_flow(w.graph, w.kernels, cfg);
    EXPECT_GE(report.design.speedup(), 1.0)
        << cosynth::coproc_strategy_name(strategy);
    // HLS validation ran if anything went to HW.
    if (report.design.partition.metrics.tasks_in_hw > 0 &&
        report.validated_hw_area > 0.0) {
      EXPECT_GT(report.area_estimate_ratio, 0.05);
      EXPECT_LT(report.area_estimate_ratio, 20.0);
    }
  }
}

// ---------------------------------------------------------------------
// Figure 5 story: the three multiprocessor synthesizers agree on
// feasibility and order correctly on cost for a deadline sweep.
TEST(Integration, MultiprocEnginesConsistentAcrossDeadlines) {
  Rng rng(31);
  ir::TaskGraphGenConfig gen;
  gen.num_tasks = 8;
  const ir::TaskGraph g = ir::generate_task_graph(gen, rng);
  const auto catalog = cosynth::default_pe_catalog();
  const double serial = g.total_sw_cycles();

  double prev_exact_cost = 0.0;
  for (const double factor : {2.0, 1.0, 0.6}) {
    const double deadline = serial * factor;
    const cosynth::MpDesign exact =
        cosynth::synthesize_exact(g, catalog, deadline);
    const cosynth::MpDesign packed =
        cosynth::synthesize_binpack(g, catalog, deadline);
    const cosynth::MpDesign sens =
        cosynth::synthesize_sensitivity(g, catalog, deadline);
    ASSERT_TRUE(exact.feasible) << "deadline factor " << factor;
    // Tightening the deadline can only raise the optimal cost.
    EXPECT_GE(exact.cost, prev_exact_cost - 1e-9);
    prev_exact_cost = exact.cost;
    // Exact is the optimum: the heuristics never beat it.
    if (packed.feasible) {
      EXPECT_GE(packed.cost, exact.cost - 1e-9);
    }
    if (sens.feasible) {
      EXPECT_GE(sens.cost, exact.cost - 1e-9);
    }
  }
}

// ---------------------------------------------------------------------
// Figure 9 story: process-network partitioning evaluated by message-level
// co-simulation; the co-simulator's makespans drive the optimizer.
TEST(Integration, MtCoprocPartitionImprovesOverAllSoftware) {
  const ir::ProcessNetwork net = apps::worker_farm_network(3, 5000, 64);
  sim::OsCosimConfig eval;
  eval.iterations = 32;
  const std::vector<bool> all_sw(net.num_processes(), false);
  const sim::OsCosimResult sw_run =
      [&] {
        sim::SimRequest sreq;
        sreq.level = sim::Level::kProcess;
        sreq.network = &net;
        sreq.in_hw = &all_sw;
        sreq.os = eval;
        return sim::run(sreq).os.value();
      }();

  opt::AnnealConfig anneal_cfg;
  anneal_cfg.rounds = 20;
  anneal_cfg.moves_per_round = 12;
  const cosynth::MtCoprocDesign aware =
      cosynth::mt_partition_concurrency_aware(net, 5000.0, eval,
                                              anneal_cfg, 8);
  EXPECT_LT(aware.evaluation.makespan, sw_run.makespan);
}

// ---------------------------------------------------------------------
// Estimation coherence: the cost annotations the flow derives from
// kernels are consistent with what the ISS actually measures.
TEST(Integration, AnnotatedSwCostsMatchIssMeasurement) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  core::FlowConfig cfg;
  const ir::TaskGraph annotated =
      core::annotate_costs(w.graph, w.kernels, cfg);
  Rng rng(3);
  for (const ir::TaskId t : annotated.task_ids()) {
    const ir::Cdfg* kernel = w.kernels[t.index()];
    if (kernel == nullptr) continue;
    std::map<std::string, std::int64_t> in;
    for (const ir::OpId id : kernel->inputs()) {
      in[kernel->op(id).name] = rng.uniform_int(0, 100);
    }
    sw::Iss iss(cfg.cpu);
    double measured = 0.0;
    sw::run_program(iss, sw::compile(*kernel), in, 10'000'000, &measured);
    // Annotation excludes the trailing halt; allow 2 cycles of slack.
    EXPECT_NEAR(annotated.task(t).costs.sw_cycles, measured, 2.0)
        << annotated.task(t).name;
  }
}

// ---------------------------------------------------------------------
// The E1 claim: a movable boundary (Type II) yields a richer trade-off
// space than a fixed one (Type I) on the same application.
TEST(Integration, TypeIiTradeoffSpaceRicherThanTypeI) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const partition::CostModel model(g, hw::default_library());
  partition::Objective obj;

  // Type I points: all-software on each catalog processor (the boundary
  // is fixed; only the component choice varies).
  std::vector<std::vector<double>> type1;
  for (const sw::CpuModel& cpu : sw::processor_catalog()) {
    const double latency = g.total_sw_cycles() * cpu.clock_scale;
    type1.push_back({cpu.cost, latency});
  }

  // Type II points: partitions at varying area budgets on the reference
  // CPU (the boundary moves).
  std::vector<std::vector<double>> type2;
  const double all_sw_latency = g.total_sw_cycles();
  const double ref_cost = 1000.0;
  for (const double budget : {0.0, 1500.0, 3000.0, 6000.0, 12000.0}) {
    partition::Objective budgeted = obj;
    budgeted.area_budget = budget;
    budgeted.area_weight = 0.01;
    budgeted.latency_target = all_sw_latency * 0.3;
    const partition::PartitionResult r = partition::run(
        budget == 0.0 ? partition::Strategy::kAllSw
                      : partition::Strategy::kKl,
        model, budgeted);
    type2.push_back({ref_cost + r.metrics.hw_area, r.metrics.latency_cycles});
  }

  const double ref1 = 40000.0, ref2 = 4.0 * all_sw_latency;
  const double hv1 = opt::hypervolume(type1, ref1, ref2);
  const double hv2 = opt::hypervolume(type2, ref1, ref2);
  EXPECT_GT(hv2, hv1 * 0.5);  // comparable at worst...
  EXPECT_GE(opt::pareto(type2).size(), 3u);  // ...and richer in points
}

}  // namespace
}  // namespace mhs
