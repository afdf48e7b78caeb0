// Unit tests for mhs::cosynth — multiprocessor synthesis (exact, bin
// packing, sensitivity), interface synthesis, ASIP/SFU synthesis, the
// co-processor flow, and multi-threaded co-processor partitioning.
#include <gtest/gtest.h>

#include <set>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "cosynth/asip.h"
#include "cosynth/coproc.h"
#include "cosynth/interface_synth.h"
#include "cosynth/mtcoproc.h"
#include "cosynth/multiproc.h"
#include "cosynth/run.h"
#include "ir/task_graph_gen.h"

namespace mhs::cosynth {
namespace {

ir::TaskGraph small_graph(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  ir::TaskGraphGenConfig cfg;
  cfg.num_tasks = n;
  cfg.mean_sw_cycles = 1000.0;
  cfg.cost_spread = 2.0;
  return ir::generate_task_graph(cfg, rng);
}

InterfaceDesign interface_for(
    const hw::HlsResult& impl, const InterfaceRequirements& reqs,
    const std::vector<std::vector<std::int64_t>>& samples,
    AddressMapAllocator alloc = AddressMapAllocator()) {
  Request req;
  req.impl = &impl;
  req.interface_reqs = reqs;
  req.samples = &samples;
  req.allocator = &alloc;
  return *run(Target::kInterface, req).iface;
}

AsipDesign asip_for(const std::vector<WeightedKernel>& apps,
                    const sw::CpuModel& cpu, double area_budget) {
  Request req;
  req.apps = apps;
  req.cpu = cpu;
  req.area_budget = area_budget;
  return *run(Target::kAsip, req).asip;
}

TEST(Multiproc, MakespanSinglePeIsSerialSum) {
  const ir::TaskGraph g = small_graph(1, 6);
  const auto catalog = default_pe_catalog();
  const std::vector<std::size_t> one_pe_types = {2};  // "fast", slowdown 1
  const std::vector<std::size_t> assignment(g.num_tasks(), 0);
  const double makespan =
      mp_makespan(g, catalog, one_pe_types, assignment, MpCommModel{});
  EXPECT_NEAR(makespan, g.total_sw_cycles(), 1e-9);
}

TEST(Multiproc, MakespanTwoPesOverlapsIndependentWork) {
  // Two independent tasks on two PEs finish in max, not sum.
  ir::TaskGraph g("par");
  g.add_task("a", {1000, 0, 0, 0, 0, 0});
  g.add_task("b", {800, 0, 0, 0, 0, 0});
  const auto catalog = default_pe_catalog();
  const std::vector<std::size_t> types = {2, 2};
  const std::vector<std::size_t> assignment = {0, 1};
  EXPECT_NEAR(mp_makespan(g, catalog, types, assignment, MpCommModel{}),
              1000.0, 1e-9);
}

TEST(Multiproc, MakespanChargesCrossPeCommunication) {
  ir::TaskGraph g("chain");
  const ir::TaskId a = g.add_task("a", {1000, 0, 0, 0, 0, 0});
  const ir::TaskId b = g.add_task("b", {1000, 0, 0, 0, 0, 0});
  g.add_edge(a, b, 800);
  const auto catalog = default_pe_catalog();
  MpCommModel comm;  // 16 + 800/8 = 116
  const double same = mp_makespan(g, catalog, {2}, {0, 0}, comm);
  const double split = mp_makespan(g, catalog, {2, 2}, {0, 1}, comm);
  EXPECT_NEAR(same, 2000.0, 1e-9);
  EXPECT_NEAR(split, 2116.0, 1e-9);
}

TEST(Multiproc, ExactFindsFeasibleMinCost) {
  const ir::TaskGraph g = small_graph(2, 6);
  const auto catalog = default_pe_catalog();
  const double serial_fast = g.total_sw_cycles();  // on slowdown-1 PE
  const double deadline = serial_fast * 1.2;       // one fast PE suffices
  const MpDesign d = synthesize_exact(g, catalog, deadline);
  ASSERT_TRUE(d.feasible);
  EXPECT_LE(d.makespan, deadline);
  // A single "fast" PE (cost 1500) meets this deadline; anything cheaper
  // that is feasible is also acceptable, but never more expensive.
  EXPECT_LE(d.cost, 1500.0 + 1e-9);
}

TEST(Multiproc, ExactTightDeadlineBuysParallelismOrSpeed) {
  const ir::TaskGraph g = small_graph(3, 6);
  const auto catalog = default_pe_catalog();
  const double loose = g.total_sw_cycles() * 4.0;
  const double tight = g.total_sw_cycles() * 0.6;
  const MpDesign cheap = synthesize_exact(g, catalog, loose);
  const MpDesign fast = synthesize_exact(g, catalog, tight);
  ASSERT_TRUE(cheap.feasible);
  ASSERT_TRUE(fast.feasible);
  EXPECT_LE(cheap.cost, fast.cost);  // deadline down => cost up (or equal)
}

TEST(Multiproc, ExactReportsInfeasible) {
  const ir::TaskGraph g = small_graph(4, 5);
  const auto catalog = default_pe_catalog();
  const MpDesign d = synthesize_exact(g, catalog, 1.0);  // impossible
  EXPECT_FALSE(d.feasible);
}

TEST(Multiproc, BinpackFeasibleAndNeverCheaperThanExact) {
  const auto catalog = default_pe_catalog();
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    const ir::TaskGraph g = small_graph(seed, 7);
    const double deadline = g.total_sw_cycles() * 0.8;
    const MpDesign exact = synthesize_exact(g, catalog, deadline);
    const MpDesign packed = synthesize_binpack(g, catalog, deadline);
    if (!exact.feasible) continue;
    ASSERT_TRUE(packed.feasible) << "seed " << seed;
    EXPECT_LE(packed.makespan, deadline);
    EXPECT_GE(packed.cost, exact.cost - 1e-9) << "seed " << seed;
  }
}

TEST(Multiproc, BinpackMuchLessEffortThanExact) {
  const ir::TaskGraph g = small_graph(8, 8);
  const auto catalog = default_pe_catalog();
  const double deadline = g.total_sw_cycles() * 0.7;
  const MpDesign exact = synthesize_exact(g, catalog, deadline);
  const MpDesign packed = synthesize_binpack(g, catalog, deadline);
  EXPECT_LT(packed.effort * 100, exact.effort);
}

TEST(Multiproc, SensitivityReducesSeedCostAndStaysFeasible) {
  const ir::TaskGraph g = small_graph(9, 8);
  const auto catalog = default_pe_catalog();
  const double deadline = g.total_sw_cycles() * 0.9;
  const MpDesign d = synthesize_sensitivity(g, catalog, deadline);
  ASSERT_TRUE(d.feasible);
  EXPECT_LE(d.makespan, deadline);
  // Seed was one fastest PE per task.
  const double seed_cost = static_cast<double>(g.num_tasks()) * 3600.0;
  EXPECT_LT(d.cost, seed_cost);
}

TEST(Multiproc, AssignmentsAlwaysCompleteAndValid) {
  const ir::TaskGraph g = small_graph(10, 7);
  const auto catalog = default_pe_catalog();
  const double deadline = g.total_sw_cycles();
  for (const MpDesign& d :
       {synthesize_exact(g, catalog, deadline),
        synthesize_binpack(g, catalog, deadline),
        synthesize_sensitivity(g, catalog, deadline)}) {
    ASSERT_EQ(d.assignment.size(), g.num_tasks());
    for (const std::size_t inst : d.assignment) {
      EXPECT_LT(inst, d.instance_type.size());
    }
  }
}

TEST(InterfaceSynth, AllocatorAlignsAndExhausts) {
  AddressMapAllocator alloc(0x10000, 0x1000);
  const std::uint64_t a = alloc.allocate(0x400, 0x400);
  const std::uint64_t b = alloc.allocate(0x400, 0x400);
  EXPECT_EQ(a % 0x400, 0u);
  EXPECT_EQ(b, a + 0x400);
  alloc.allocate(0x400, 0x400);  // window now has 0x400 left
  EXPECT_THROW(alloc.allocate(0x2000, 0x400), InfeasibleError);
  EXPECT_EQ(alloc.bytes_allocated(), 0xC00u);
}

TEST(InterfaceSynth, LatencyCriticalPicksPolling) {
  const ir::Cdfg kernel = apps::fir_kernel(6);
  hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);

  Rng rng(3);
  std::vector<std::vector<std::int64_t>> samples;
  for (int s = 0; s < 8; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-100, 100));
    }
    samples.push_back(in);
  }

  InterfaceRequirements latency_first;
  latency_first.latency_weight = 1.0;
  const InterfaceDesign d1 = interface_for(impl, latency_first, samples);
  EXPECT_FALSE(d1.candidates[d1.selected].use_irq);

  InterfaceRequirements throughput_first;
  throughput_first.latency_weight = 0.0;
  throughput_first.background_unroll = 8;
  const InterfaceDesign d2 = interface_for(impl, throughput_first, samples);
  EXPECT_TRUE(d2.candidates[d2.selected].use_irq);
  // Both evaluated candidates agree functionally.
  EXPECT_EQ(d2.candidates[0].report.checksum,
            d2.candidates[1].report.checksum);
}

TEST(InterfaceSynth, EmittedDriverBuffersHoldEverySample) {
  // dct8 has 8 inputs: 65 samples are 520 input words, more than the 512
  // that fit below a fixed output buffer 0x1000 bytes up.
  const ir::Cdfg kernel = apps::dct8_kernel();
  ASSERT_EQ(kernel.inputs().size(), 8u);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
  Rng rng(5);
  std::vector<std::vector<std::int64_t>> samples(65);
  for (std::vector<std::int64_t>& in : samples) {
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-100, 100));
    }
  }
  // The default MMIO window, and one that allocates the peripheral at
  // kSampleBufferBase (as the default window does its 193rd peripheral):
  // the buffers must keep clear of its registers there too.
  for (const std::uint64_t window :
       {std::uint64_t{0x10000}, sim::kSampleBufferBase}) {
    const InterfaceDesign d =
        interface_for(impl, {}, samples, AddressMapAllocator(window));
    ASSERT_EQ(d.base_address, window);
    const sim::Driver& driver = d.driver;
    EXPECT_GE(driver.in_buffer, sim::kSampleBufferBase);
    EXPECT_GE(driver.out_buffer, driver.in_buffer + 8 * 65 * 8);
    const std::uint64_t buffers_end =
        driver.out_buffer + 8 * 65 * kernel.outputs().size();
    EXPECT_TRUE(buffers_end <= d.base_address ||
                driver.in_buffer >=
                    d.base_address + sim::PeripheralLayout::kSize)
        << std::hex << "buffers [0x" << driver.in_buffer << ", 0x"
        << buffers_end << ") vs peripheral 0x" << d.base_address;
    // The emitted program streams through exactly those buffers.
    bool loads_in = false;
    bool loads_out = false;
    for (const sw::Instr& instr : driver.code) {
      if (instr.op != sw::Opcode::kLi) continue;
      loads_in |= instr.imm == static_cast<std::int64_t>(driver.in_buffer);
      loads_out |= instr.imm == static_cast<std::int64_t>(driver.out_buffer);
    }
    EXPECT_TRUE(loads_in);
    EXPECT_TRUE(loads_out);
  }
}

TEST(Asip, MacPatternCounter) {
  // fir has taps-1 mul-feeding-add patterns (plus shifts between).
  const ir::Cdfg mac = apps::sad_kernel(4);
  EXPECT_EQ(count_mac_patterns(mac), 0u);  // abs chain, no mul
  ir::Cdfg c("macs");
  const ir::OpId a = c.input("a");
  const ir::OpId b = c.input("b");
  const ir::OpId m = c.mul(a, b);
  c.output("y", c.add(m, a));
  EXPECT_EQ(count_mac_patterns(c), 1u);
}

TEST(Asip, BiggerBudgetMonotoneSpeedup) {
  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());
  storage.push_back(apps::xtea_kernel(8));
  std::vector<WeightedKernel> apps_set = {
      {&storage[0], 1.0, "dct8"},
      {&storage[1], 1.0, "xtea8"},
  };
  const sw::CpuModel base = sw::reference_cpu();
  double prev_speedup = 0.99;
  for (const double budget : {0.0, 300.0, 1000.0, 2500.0, 5000.0}) {
    const AsipDesign d = asip_for(apps_set, base, budget);
    EXPECT_LE(d.area_used, budget + 1e-9);
    EXPECT_GE(d.speedup(), prev_speedup - 1e-9)
        << "budget " << budget;
    prev_speedup = d.speedup();
  }
  EXPECT_GT(prev_speedup, 1.15);  // large budget visibly helps
}

TEST(Asip, PicksFeaturesMatchingHotSpots) {
  // A multiply-dominated app should buy the fast multiplier first.
  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());
  std::vector<WeightedKernel> apps_set = {{&storage[0], 1.0, "dct8"}};
  const AsipDesign d = asip_for(apps_set, sw::reference_cpu(), 950.0);
  ASSERT_FALSE(d.features.empty());
  EXPECT_EQ(d.features[0], IsaFeature::kFastMul);
}

TEST(Asip, ReconfigurableSlotAdaptsPerApp) {
  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());     // wants fast mul
  storage.push_back(apps::median5_kernel());  // wants native select
  std::vector<WeightedKernel> apps_set = {
      {&storage[0], 1.0, "dct"},
      {&storage[1], 40.0, "median"},
  };
  const sw::CpuModel base = sw::reference_cpu();
  const ReconfigSfuDesign r =
      synthesize_sfu_reconfigurable(apps_set, base, 1500.0);
  ASSERT_EQ(r.per_app_feature.size(), 2u);
  EXPECT_NE(r.per_app_feature[0], r.per_app_feature[1]);
  EXPECT_GT(r.speedup(), 1.0);
}

TEST(Asip, ReconfigurableBeatsStaticUnderTightBudget) {
  // Two apps wanting the two priciest features (fast multiplier at 900,
  // fast divider at 1500); a budget of 2000 cannot hold both statically,
  // but a PRISM-style reprogrammable slot swaps between them per app.
  ir::Cdfg divs("div_chain");
  ir::OpId v = divs.input("a");
  for (int i = 0; i < 10; ++i) {
    v = divs.binary(ir::OpKind::kDiv, v, divs.input("d" + std::to_string(i)));
  }
  divs.output("y", v);

  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());
  storage.push_back(std::move(divs));
  std::vector<WeightedKernel> apps_set = {
      {&storage[0], 1.0, "dct"},
      {&storage[1], 3.0, "div_chain"},
  };
  const sw::CpuModel base = sw::reference_cpu();
  const double budget = 2000.0;
  const AsipDesign fixed = asip_for(apps_set, base, budget);
  const ReconfigSfuDesign flexible =
      synthesize_sfu_reconfigurable(apps_set, base, budget);
  EXPECT_GT(flexible.speedup(), fixed.speedup());
}

TEST(Coproc, StrategiesProduceConsistentDesigns) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const partition::CostModel model(g, hw::default_library());
  partition::Objective obj;
  obj.latency_target = g.total_sw_cycles() * 0.5;
  for (const CoprocStrategy s :
       {CoprocStrategy::kHotSpot, CoprocStrategy::kUnload,
        CoprocStrategy::kKl, CoprocStrategy::kGclp}) {
    Request req;
    req.model = &model;
    req.objective = obj;
    req.strategy = s;
    const CoprocDesign d = *run(Target::kCoprocessor, req).coprocessor;
    EXPECT_EQ(d.partition.mapping.size(), g.num_tasks())
        << coproc_strategy_name(s);
    EXPECT_GT(d.all_sw_latency, 0.0);
    EXPECT_GE(d.speedup(), 0.99) << coproc_strategy_name(s);
  }
}

TEST(Coproc, ValidateHwAreaSynthesizesOnlyMappedKernels) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  const partition::CostModel model(w.graph, hw::default_library());
  partition::Mapping none(w.graph.num_tasks(), false);
  EXPECT_DOUBLE_EQ(validate_hw_area(model, none, w.kernels), 0.0);
  partition::Mapping all(w.graph.num_tasks(), true);
  EXPECT_GT(validate_hw_area(model, all, w.kernels), 0.0);
}

TEST(MtCoproc, GreedyRespectsBudget) {
  const ir::ProcessNetwork net = apps::ekg_monitor_network();
  sim::OsCosimConfig eval;
  eval.iterations = 16;
  const MtCoprocDesign d = mt_partition_latency_greedy(net, 3000.0, eval);
  EXPECT_LE(d.hw_area, 3000.0);
  EXPECT_FALSE(d.evaluation.deadlocked);
}

TEST(MtCoproc, ConcurrencyAwareNoWorseThanGreedy) {
  const ir::ProcessNetwork net = apps::worker_farm_network(4, 3000, 256);
  sim::OsCosimConfig eval;
  eval.iterations = 24;
  const double budget = 4000.0;  // fits ~3 workers
  const MtCoprocDesign greedy =
      mt_partition_latency_greedy(net, budget, eval);
  opt::AnnealConfig anneal_cfg;
  anneal_cfg.rounds = 24;
  anneal_cfg.moves_per_round = 16;
  const MtCoprocDesign aware = mt_partition_concurrency_aware(
      net, budget, eval, anneal_cfg, /*opt_iterations=*/8);
  EXPECT_FALSE(aware.evaluation.deadlocked);
  EXPECT_LE(aware.hw_area, budget + 1e-9);
  EXPECT_LE(aware.evaluation.makespan,
            greedy.evaluation.makespan * 1.02);
  EXPECT_GT(aware.effort, greedy.effort);
}


// -- The cosynth::run(Target, ...) dispatcher.

TEST(RunDispatcher, TargetNamesAreStableAndDistinct) {
  std::set<std::string> names;
  for (const Target t : kAllTargets) names.insert(target_name(t));
  EXPECT_EQ(names.size(), std::size(kAllTargets));
  EXPECT_STREQ(target_name(Target::kCoprocessor), "coprocessor");
  EXPECT_STREQ(target_name(Target::kMultiprocPeriodic),
               "multiproc_periodic");
}

TEST(RunDispatcher, ResultForwardsToTheEngagedDesign) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const partition::CostModel model(g, hw::default_library());
  Request coproc;
  coproc.model = &model;
  coproc.objective.latency_target = g.total_sw_cycles() * 0.5;
  const Result r = run(Target::kCoprocessor, coproc);
  ASSERT_TRUE(r.coprocessor.has_value());
  EXPECT_FALSE(r.impl_select.has_value());
  EXPECT_EQ(r.latency(), r.coprocessor->latency());
  EXPECT_EQ(r.area(), r.coprocessor->area());
  EXPECT_EQ(r.summary(), r.coprocessor->summary());

  Request select;
  select.menus = {
      {"fir", 2.0, {{"min_area", 100.0, 900.0}, {"fast", 400.0, 300.0}}},
      {"dct", 1.0, {{"min_area", 250.0, 1200.0}, {"fast", 700.0, 500.0}}},
  };
  select.area_budget = 900.0;
  const Result s = run(Target::kImplSelect, select);
  ASSERT_TRUE(s.impl_select.has_value());
  EXPECT_FALSE(s.coprocessor.has_value());
  EXPECT_EQ(s.latency(), s.impl_select->latency());
  EXPECT_EQ(s.area(), s.impl_select->area());
  EXPECT_EQ(s.summary(), s.impl_select->summary());
}

TEST(RunDispatcher, MissingRequiredInputsAreChecked) {
  Request empty;
  EXPECT_THROW(run(Target::kCoprocessor, empty), PreconditionError);
  EXPECT_THROW(run(Target::kMixed, empty), PreconditionError);
  EXPECT_THROW(run(Target::kInterface, empty), PreconditionError);
  EXPECT_THROW(run(Target::kMultiprocPeriodic, empty), PreconditionError);
}

}  // namespace
}  // namespace mhs::cosynth
