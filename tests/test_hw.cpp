// Unit tests for mhs::hw — component library, scheduling, binding, FSM
// controller, HLS driver, datapath simulation, incremental estimation.
#include <gtest/gtest.h>

#include "apps/kernels.h"
#include "base/rng.h"
#include "hw/binding.h"
#include "hw/estimate.h"
#include "hw/fsm.h"
#include "hw/hls.h"
#include "hw/rtl_sim.h"
#include "hw/schedule.h"

namespace mhs::hw {
namespace {

/// y = (a+b) * (c+d); two adds are parallel, then one multiply.
ir::Cdfg two_add_mul() {
  ir::Cdfg c("two_add_mul");
  const ir::OpId a = c.input("a");
  const ir::OpId b = c.input("b");
  const ir::OpId d = c.input("c");
  const ir::OpId e = c.input("d");
  c.output("y", c.mul(c.add(a, b), c.add(d, e)));
  return c;
}

TEST(ComponentLibrary, OpToFuMapping) {
  EXPECT_EQ(fu_for_op(ir::OpKind::kAdd), FuType::kAlu);
  EXPECT_EQ(fu_for_op(ir::OpKind::kMin), FuType::kAlu);
  EXPECT_EQ(fu_for_op(ir::OpKind::kMul), FuType::kMul);
  EXPECT_EQ(fu_for_op(ir::OpKind::kDiv), FuType::kDiv);
  EXPECT_EQ(fu_for_op(ir::OpKind::kShl), FuType::kShift);
  EXPECT_THROW(fu_for_op(ir::OpKind::kConst), PreconditionError);
}

TEST(ComponentLibrary, DefaultLatencies) {
  const ComponentLibrary lib = default_library();
  EXPECT_EQ(lib.op_latency(ir::OpKind::kAdd), 1u);
  EXPECT_EQ(lib.op_latency(ir::OpKind::kMul), 2u);
  EXPECT_EQ(lib.op_latency(ir::OpKind::kDiv), 8u);
  EXPECT_EQ(lib.op_latency(ir::OpKind::kInput), 0u);
}

TEST(Schedule, AsapIsMinimumLatency) {
  const ir::Cdfg c = two_add_mul();
  const ComponentLibrary lib = default_library();
  const Schedule s = asap_schedule(c, lib);
  // adds at step 0 (1 cycle), mul at step 1 (2 cycles) -> 3 steps.
  EXPECT_EQ(s.num_steps(), 3u);
  const FuCounts peak = s.peak_usage();
  EXPECT_EQ(peak[FuType::kAlu], 2u);  // both adds in parallel
  EXPECT_EQ(peak[FuType::kMul], 1u);
}

TEST(Schedule, AlapMeetsBoundAndDefersWork) {
  const ir::Cdfg c = two_add_mul();
  const ComponentLibrary lib = default_library();
  const Schedule s = alap_schedule(c, lib, 5);
  EXPECT_LE(s.num_steps(), 5u);
  const FuCounts peak = s.peak_usage();
  EXPECT_EQ(peak[FuType::kMul], 1u);
  EXPECT_THROW(alap_schedule(c, lib, 1), PreconditionError);
}

TEST(Schedule, ListScheduleHonorsResources) {
  const ir::Cdfg c = two_add_mul();
  const ComponentLibrary lib = default_library();
  FuCounts res;
  res[FuType::kAlu] = 1;
  res[FuType::kMul] = 1;
  const Schedule s = list_schedule(c, lib, res);
  // adds serialized: steps 0 and 1, mul starts at 2 -> 4 steps.
  EXPECT_EQ(s.num_steps(), 4u);
  EXPECT_LE(s.peak_usage()[FuType::kAlu], 1u);
  EXPECT_LE(s.peak_usage()[FuType::kMul], 1u);
}

TEST(Schedule, ListScheduleRunsLongSerialSchedules) {
  // 100 independent divides on one 80-cycle divider serialize into an
  // 8001-step schedule, about 20 steps per op: the scheduler must keep
  // going for as long as the serial schedule needs.
  ir::Cdfg c("div100");
  const ir::OpId a = c.input("a");
  const ir::OpId b = c.input("b");
  for (int i = 0; i < 100; ++i) {
    const ir::OpId k = c.constant(i + 1);
    const ir::OpId q = c.binary(ir::OpKind::kDiv, c.add(a, k), b);
    c.output("q" + std::to_string(i), q);
  }
  ComponentLibrary lib = default_library();
  lib.spec(FuType::kDiv).latency = 80;
  FuCounts res;
  res[FuType::kAlu] = 1;
  res[FuType::kDiv] = 1;
  const Schedule s = list_schedule(c, lib, res);
  EXPECT_EQ(s.num_steps(), 1u + 100u * 80u);  // first add, then the divides
  EXPECT_EQ(s.peak_usage()[FuType::kDiv], 1u);
  HlsConstraints constraints;
  constraints.goal = HlsGoal::kMinArea;
  EXPECT_EQ(synthesize(c, lib, constraints).latency, 1u + 100u * 80u);
}

TEST(Schedule, ListScheduleRejectsZeroNeededResource) {
  const ir::Cdfg c = two_add_mul();
  const ComponentLibrary lib = default_library();
  FuCounts res;
  res[FuType::kAlu] = 1;  // no multiplier
  EXPECT_THROW(list_schedule(c, lib, res), PreconditionError);
}

TEST(Schedule, ForceDirectedReducesPeakVsAsap) {
  // A wide kernel: 6 independent multiplies feeding an add chain.
  ir::Cdfg c("wide");
  std::vector<ir::OpId> products;
  for (int i = 0; i < 6; ++i) {
    products.push_back(c.mul(c.input("a" + std::to_string(i)),
                             c.input("b" + std::to_string(i))));
  }
  ir::OpId acc = products[0];
  for (int i = 1; i < 6; ++i) acc = c.add(acc, products[i]);
  c.output("y", acc);

  const ComponentLibrary lib = default_library();
  const Schedule asap = asap_schedule(c, lib);
  const std::size_t bound = asap.num_steps() + 6;
  const Schedule fds = force_directed_schedule(c, lib, bound);
  EXPECT_LE(fds.num_steps(), bound);
  EXPECT_LT(fds.peak_usage()[FuType::kMul],
            asap.peak_usage()[FuType::kMul]);
}

TEST(Schedule, VerifyCatchesPrecedenceViolation) {
  ir::Cdfg c("v");
  const ir::OpId a = c.input("a");
  const ir::OpId m = c.mul(a, a);
  c.output("y", m);
  const ComponentLibrary lib = default_library();
  // mul (index 1) starts at 0, output (index 2) at 1 — but mul takes 2.
  EXPECT_THROW(Schedule(c, lib, {0, 0, 1}), InternalError);
}

TEST(Binding, SharesFusAcrossSteps) {
  const ir::Cdfg c = two_add_mul();
  const ComponentLibrary lib = default_library();
  FuCounts res;
  res[FuType::kAlu] = 1;
  res[FuType::kMul] = 1;
  const Schedule s = list_schedule(c, lib, res);
  const Binding b = bind(s);
  EXPECT_EQ(b.fu_counts[FuType::kAlu], 1u);  // both adds share one ALU
  EXPECT_EQ(b.fu_counts[FuType::kMul], 1u);
  // The shared ALU's input ports see two different sources -> muxes.
  EXPECT_GT(b.mux_inputs, 0u);
}

TEST(Binding, ParallelOpsGetDistinctInstances) {
  const ir::Cdfg c = two_add_mul();
  const ComponentLibrary lib = default_library();
  const Schedule s = asap_schedule(c, lib);
  const Binding b = bind(s);
  EXPECT_EQ(b.fu_counts[FuType::kAlu], 2u);
  // Values crossing the step boundary (add results feeding the mul at
  // step 1) need registers.
  EXPECT_GE(b.num_registers, 1u);
}

TEST(Binding, NeverExceedsSchedulePeak) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    ir::Cdfg c("rand");
    std::vector<ir::OpId> values;
    for (int i = 0; i < 4; ++i) {
      values.push_back(c.input("x" + std::to_string(i)));
    }
    for (int i = 0; i < 12; ++i) {
      const ir::OpId a = values[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
      const ir::OpId b = values[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
      const ir::OpKind kinds[] = {ir::OpKind::kAdd, ir::OpKind::kMul,
                                  ir::OpKind::kSub, ir::OpKind::kXor};
      values.push_back(c.binary(kinds[rng.uniform_int(0, 3)], a, b));
    }
    c.output("y", values.back());
    const ComponentLibrary lib = default_library();
    const Schedule s = asap_schedule(c, lib);
    const Binding b = bind(s);  // bind() verifies internally
    const FuCounts peak = s.peak_usage();
    for (std::size_t t = 0; t < kNumFuTypes; ++t) {
      EXPECT_LE(b.fu_counts.count[t],
                std::max<std::size_t>(peak.count[t], 1));
    }
  }
}

TEST(Binding, VerifyRejectsOverlappingSharedResources) {
  // Two multiplies run in parallel and both results wait in registers
  // for the output ports: folding either pair onto one resource must be
  // caught.
  ir::Cdfg c("two_mul");
  const ir::OpId m1 = c.mul(c.input("a"), c.input("b"));
  const ir::OpId m2 = c.mul(c.input("c"), c.input("d"));
  c.output("x", m1);
  c.output("y", m2);
  const ComponentLibrary lib = default_library();
  const Schedule s = asap_schedule(c, lib);
  const Binding good = bind(s);
  ASSERT_EQ(good.fu_counts[FuType::kMul], 2u);
  ASSERT_EQ(good.num_registers, 2u);

  Binding fu = good;
  fu.fu_instance[m2.index()] = fu.fu_instance[m1.index()];
  EXPECT_THROW(verify_binding(s, fu), InternalError);
  Binding reg = good;
  reg.register_of[m2.index()] = reg.register_of[m1.index()];
  EXPECT_THROW(verify_binding(s, reg), InternalError);
}

TEST(Controller, StatesMatchScheduleAndBitsAssert) {
  const ir::Cdfg c = two_add_mul();
  const ComponentLibrary lib = default_library();
  const Schedule s = asap_schedule(c, lib);
  const Binding b = bind(s);
  const Controller ctrl(s, b);
  EXPECT_EQ(ctrl.num_states(), s.num_steps());
  EXPECT_GT(ctrl.num_control_bits(), 0u);
  // The multiply occupies steps 1 and 2: its enable must assert there.
  const std::size_t mul_enable = ctrl.fu_enable_bit(FuType::kMul, 0);
  EXPECT_FALSE(ctrl.asserted(0, mul_enable));
  EXPECT_TRUE(ctrl.asserted(1, mul_enable));
  EXPECT_TRUE(ctrl.asserted(2, mul_enable));
  EXPECT_FALSE(ctrl.dump().empty());
}

TEST(Hls, GoalsTradeLatencyForArea) {
  const ir::Cdfg c = apps::dct8_kernel();
  const ComponentLibrary lib = default_library();
  HlsConstraints fast;
  fast.goal = HlsGoal::kMinLatency;
  HlsConstraints small;
  small.goal = HlsGoal::kMinArea;
  const HlsResult rf = synthesize(c, lib, fast);
  const HlsResult rs = synthesize(c, lib, small);
  EXPECT_LT(rf.latency, rs.latency);
  EXPECT_GT(rf.area.fu, rs.area.fu);
  EXPECT_GT(rf.area.total(), 0.0);
  EXPECT_GT(rs.area.controller, 0.0);
}

TEST(Hls, LatencyConstrainedRespectsBound) {
  const ir::Cdfg c = apps::fir_kernel(8);
  const ComponentLibrary lib = default_library();
  HlsConstraints fastest;
  fastest.goal = HlsGoal::kMinLatency;
  const std::size_t min_latency = synthesize(c, lib, fastest).latency;
  HlsConstraints mid;
  mid.goal = HlsGoal::kLatencyConstrained;
  mid.latency_bound = min_latency + 8;
  const HlsResult r = synthesize(c, lib, mid);
  EXPECT_LE(r.latency, min_latency + 8);
}

TEST(Hls, DatapathSimulationMatchesEvaluator) {
  const ir::Cdfg kernels[] = {apps::fir_kernel(6), apps::median5_kernel(),
                              apps::dct8_kernel()};
  for (const ir::Cdfg& c : kernels) {
    const ComponentLibrary lib = default_library();
    for (const HlsGoal goal : {HlsGoal::kMinLatency, HlsGoal::kMinArea}) {
      HlsConstraints constraints;
      constraints.goal = goal;
      const HlsResult impl = synthesize(c, lib, constraints);
      Rng rng(99);
      std::map<std::string, std::int64_t> in;
      for (const ir::OpId id : c.inputs()) {
        in[c.op(id).name] = rng.uniform_int(-1000, 1000);
      }
      const RtlTrace trace = RtlSim(impl).run(in);
      EXPECT_EQ(trace.outputs, c.evaluate(in)) << c.name();
      EXPECT_EQ(trace.cycles, impl.latency);
    }
  }
}

TEST(Estimate, ProfileFromHlsReflectsBinding) {
  const ir::Cdfg c = two_add_mul();
  const ComponentLibrary lib = default_library();
  HlsConstraints constraints;
  const HlsResult impl = synthesize(c, lib, constraints);
  const HwProfile p = profile_from_hls(impl);
  EXPECT_EQ(p.fu[FuType::kAlu], impl.binding.fu_counts[FuType::kAlu]);
  EXPECT_EQ(p.states, impl.latency);
}

TEST(Estimate, IncrementalMatchesFromScratch) {
  const ComponentLibrary lib = default_library();
  Rng rng(17);
  std::vector<HwProfile> profiles;
  for (std::size_t i = 0; i < 20; ++i) {
    ir::TaskCosts costs;
    costs.sw_cycles = rng.uniform(500, 5000);
    costs.hw_cycles = costs.sw_cycles / rng.uniform(4, 16);
    costs.hw_area = rng.uniform(200, 3000);
    costs.parallelism = rng.uniform();
    profiles.push_back(profile_from_costs(costs, lib));
  }

  IncrementalAreaEstimator inc(lib);
  std::vector<std::size_t> resident;
  for (int step = 0; step < 200; ++step) {
    const std::size_t key =
        static_cast<std::size_t>(rng.uniform_int(0, 19));
    if (inc.contains(key)) {
      inc.remove(key);
      resident.erase(std::find(resident.begin(), resident.end(), key));
    } else {
      inc.add(key, profiles[key]);
      resident.push_back(key);
    }
    std::vector<HwProfile> current;
    for (const std::size_t k : resident) current.push_back(profiles[k]);
    EXPECT_NEAR(inc.area(), shared_area_from_scratch(lib, current), 1e-9)
        << "step " << step;
  }
}

TEST(Estimate, SharingBeatsSumOfParts) {
  const ComponentLibrary lib = default_library();
  ir::TaskCosts costs;
  costs.sw_cycles = 2000;
  costs.hw_cycles = 200;
  costs.hw_area = 1500;
  const HwProfile p = profile_from_costs(costs, lib);
  const std::vector<HwProfile> five(5, p);
  const double shared = shared_area_from_scratch(lib, five);
  const std::vector<HwProfile> one(1, p);
  const double unshared = 5.0 * shared_area_from_scratch(lib, one);
  EXPECT_LT(shared, unshared);
}

TEST(Estimate, AddRemoveGuards) {
  const ComponentLibrary lib = default_library();
  IncrementalAreaEstimator inc(lib);
  EXPECT_THROW(inc.remove(0), PreconditionError);
  inc.add(0, HwProfile{});
  EXPECT_THROW(inc.add(0, HwProfile{}), PreconditionError);
  EXPECT_EQ(inc.num_resident(), 1u);
  inc.remove(0);
  EXPECT_DOUBLE_EQ(inc.area(), 0.0);
}

class HlsKernelParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, HlsGoal>> {};

TEST_P(HlsKernelParam, FirFamilyFunctionalAcrossSizesAndGoals) {
  const auto [taps, goal] = GetParam();
  const ir::Cdfg c = apps::fir_kernel(taps);
  const ComponentLibrary lib = default_library();
  HlsConstraints constraints;
  constraints.goal = goal;
  const HlsResult impl = synthesize(c, lib, constraints);
  std::map<std::string, std::int64_t> in;
  for (const ir::OpId id : c.inputs()) {
    in[c.op(id).name] = static_cast<std::int64_t>(id.value()) << 16;
  }
  EXPECT_EQ(RtlSim(impl).run(in).outputs, c.evaluate(in));
  EXPECT_GE(impl.latency, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HlsKernelParam,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32),
                       ::testing::Values(HlsGoal::kMinLatency,
                                         HlsGoal::kMinArea)));

}  // namespace
}  // namespace mhs::hw
