// Property-based tests: randomized sweeps over the library's key
// invariants, parameterized by seed (TEST_P) so each seed is a distinct,
// reproducible test case.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "base/stats.h"
#include "hw/binding.h"
#include "hw/estimate.h"
#include "hw/rtl_sim.h"
#include "ir/task_graph_algos.h"
#include "ir/task_graph_gen.h"
#include "opt/knapsack.h"
#include "opt/pareto.h"
#include "partition/algorithms.h"
#include "sim/os_cosim.h"
#include "sim/run.h"
#include "sw/iss.h"

namespace mhs {
namespace {

/// Random dataflow kernel over div-free ops.
ir::Cdfg random_kernel(Rng& rng, std::size_t inputs, std::size_t ops) {
  ir::Cdfg c("prop");
  std::vector<ir::OpId> vals;
  for (std::size_t i = 0; i < inputs; ++i) {
    vals.push_back(c.input("x" + std::to_string(i)));
  }
  vals.push_back(c.constant(rng.uniform_int(-64, 64)));
  const ir::OpKind kinds[] = {
      ir::OpKind::kAdd, ir::OpKind::kSub,   ir::OpKind::kMul,
      ir::OpKind::kAnd, ir::OpKind::kOr,    ir::OpKind::kXor,
      ir::OpKind::kMin, ir::OpKind::kMax,   ir::OpKind::kCmpLt,
      ir::OpKind::kCmpEq};
  for (std::size_t i = 0; i < ops; ++i) {
    if (rng.bernoulli(0.1)) {
      vals.push_back(c.select(rng.pick(vals), rng.pick(vals),
                              rng.pick(vals)));
    } else if (rng.bernoulli(0.1)) {
      vals.push_back(c.unary(rng.bernoulli(0.5) ? ir::OpKind::kNeg
                                                : ir::OpKind::kAbs,
                             rng.pick(vals)));
    } else {
      vals.push_back(c.binary(kinds[rng.uniform_int(0, 9)],
                              rng.pick(vals), rng.pick(vals)));
    }
  }
  c.output("y0", vals.back());
  c.output("y1", rng.pick(vals));
  return c;
}

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

// Property: SW (compiled, ISS-executed) == HW (synthesized datapath) ==
// interpreter, for random kernels and random data.
TEST_P(Seeded, ImplementationEquivalence) {
  Rng rng(GetParam());
  const ir::Cdfg kernel = random_kernel(rng, 4, 24);
  const hw::ComponentLibrary lib = hw::default_library();

  const sw::Program program = sw::compile(kernel);
  hw::HlsConstraints constraints;
  constraints.goal =
      rng.bernoulli(0.5) ? hw::HlsGoal::kMinArea : hw::HlsGoal::kMinLatency;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
  const hw::RtlSim rtl(impl);

  for (int trial = 0; trial < 4; ++trial) {
    std::map<std::string, std::int64_t> in;
    for (const ir::OpId id : kernel.inputs()) {
      in[kernel.op(id).name] = rng.uniform_int(-10'000, 10'000);
    }
    const auto reference = kernel.evaluate(in);
    sw::Iss iss;
    EXPECT_EQ(sw::run_program(iss, program, in), reference);
    EXPECT_EQ(rtl.run(in).outputs, reference);
  }
}

// Property: every schedule produced by every scheduler verifies, and
// binding never violates exclusivity (bind() self-verifies).
TEST_P(Seeded, SchedulersAlwaysProduceLegalSchedules) {
  Rng rng(GetParam() + 1000);
  const ir::Cdfg kernel = random_kernel(rng, 3, 18);
  const hw::ComponentLibrary lib = hw::default_library();

  const hw::Schedule asap = hw::asap_schedule(kernel, lib);
  const hw::Schedule alap =
      hw::alap_schedule(kernel, lib, asap.num_steps() + 4);
  hw::FuCounts one;
  for (std::size_t t = 0; t < hw::kNumFuTypes; ++t) one.count[t] = 1;
  const hw::Schedule list = hw::list_schedule(kernel, lib, one);
  const hw::Schedule fds =
      hw::force_directed_schedule(kernel, lib, asap.num_steps() + 4);

  // ASAP is the latency lower bound.
  EXPECT_LE(asap.num_steps(), alap.num_steps());
  EXPECT_LE(asap.num_steps(), list.num_steps());
  EXPECT_LE(asap.num_steps(), fds.num_steps());
  // FDS honors its bound.
  EXPECT_LE(fds.num_steps(), asap.num_steps() + 4);
  // Single-FU list schedule never exceeds one unit of each type.
  const hw::FuCounts peak = list.peak_usage();
  for (std::size_t t = 0; t < hw::kNumFuTypes; ++t) {
    EXPECT_LE(peak.count[t], 1u);
  }
  // Bindings verify for all schedules.
  (void)hw::bind(asap);
  (void)hw::bind(alap);
  (void)hw::bind(list);
  (void)hw::bind(fds);
}

// Property: the incremental estimator equals the from-scratch estimate
// after any interleaving of adds and removes.
TEST_P(Seeded, IncrementalEstimatorConsistency) {
  Rng rng(GetParam() + 2000);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::IncrementalAreaEstimator inc(lib);
  std::map<std::size_t, hw::HwProfile> resident;
  for (int step = 0; step < 60; ++step) {
    const std::size_t key = static_cast<std::size_t>(rng.uniform_int(0, 11));
    if (resident.count(key)) {
      inc.remove(key);
      resident.erase(key);
    } else {
      ir::TaskCosts costs;
      costs.sw_cycles = rng.uniform(100, 4000);
      costs.hw_cycles = costs.sw_cycles / rng.uniform(2, 20);
      costs.hw_area = rng.uniform(100, 4000);
      costs.parallelism = rng.uniform();
      const hw::HwProfile p = hw::profile_from_costs(costs, lib);
      inc.add(key, p);
      resident.emplace(key, p);
    }
    std::vector<hw::HwProfile> profiles;
    for (const auto& [k, p] : resident) profiles.push_back(p);
    ASSERT_NEAR(inc.area(), hw::shared_area_from_scratch(lib, profiles),
                1e-9);
  }
}

// Property: partition latency is monotone — moving any single task of an
// all-SW mapping to HW never increases the schedule latency when
// communication is free, and the scheduler never reports less than the
// critical path.
TEST_P(Seeded, ScheduleLatencyBounds) {
  Rng rng(GetParam() + 3000);
  ir::TaskGraphGenConfig cfg;
  cfg.num_tasks = 10 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  const ir::TaskGraph g = ir::generate_task_graph(cfg, rng);
  const partition::CostModel model(g, hw::default_library());

  const partition::Mapping all_sw(g.num_tasks(), false);
  const double sw_latency = model.schedule_latency(all_sw, true, false);
  for (std::size_t t = 0; t < g.num_tasks(); ++t) {
    partition::Mapping m = all_sw;
    m[t] = true;
    EXPECT_LE(model.schedule_latency(m, true, false), sw_latency + 1e-9);
  }

  // Any mapping's latency >= critical path under the mapped delays.
  for (int trial = 0; trial < 5; ++trial) {
    partition::Mapping m(g.num_tasks());
    for (std::size_t t = 0; t < g.num_tasks(); ++t) {
      m[t] = rng.bernoulli(0.5);
    }
    const double latency = model.schedule_latency(m, true, false);
    const double cp = ir::critical_path_length(
        g,
        [&](ir::TaskId t) {
          return m[t.index()] ? g.task(t).costs.hw_cycles
                              : g.task(t).costs.sw_cycles;
        },
        ir::zero_edge_delay());
    EXPECT_GE(latency, cp - 1e-9);
  }
}

// Property: knapsack result obeys capacity and is at least as good as
// greedy-by-density (it is exact).
TEST_P(Seeded, KnapsackDominatesGreedy) {
  Rng rng(GetParam() + 4000);
  std::vector<opt::KnapsackItem> items;
  for (std::size_t i = 0; i < 16; ++i) {
    items.push_back(
        opt::KnapsackItem{rng.uniform(0.5, 8.0), rng.uniform(1.0, 20.0), i});
  }
  const double capacity = rng.uniform(5.0, 25.0);
  const opt::KnapsackResult exact = opt::solve_knapsack(items, capacity);
  EXPECT_LE(exact.total_weight, capacity + 1e-9);

  // Greedy by density.
  std::vector<opt::KnapsackItem> by_density = items;
  std::sort(by_density.begin(), by_density.end(),
            [](const auto& a, const auto& b) {
              return a.value / a.weight > b.value / b.weight;
            });
  double w = 0.0, v = 0.0;
  for (const auto& item : by_density) {
    if (w + item.weight <= capacity) {
      w += item.weight;
      v += item.value;
    }
  }
  EXPECT_GE(exact.total_value, v - 1e-9);
}

// Property: message-level co-simulation conserves tokens (messages per
// channel equals iterations) and never deadlocks on acyclic farm
// topologies, for any mapping.
TEST_P(Seeded, OsCosimTokenConservation) {
  Rng rng(GetParam() + 5000);
  const std::size_t workers =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  const ir::ProcessNetwork net = apps::worker_farm_network(
      workers, rng.uniform(500, 4000), rng.uniform(16, 256));
  std::vector<bool> mapping(net.num_processes());
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    mapping[i] = rng.bernoulli(0.5);
  }
  sim::OsCosimConfig cfg;
  cfg.iterations = 7;
  const sim::OsCosimResult r = [&] {
    sim::SimRequest sreq;
    sreq.level = sim::Level::kProcess;
    sreq.network = &net;
    sreq.in_hw = &mapping;
    sreq.os = cfg;
    return sim::run(sreq).os.value();
  }();
  EXPECT_FALSE(r.deadlocked);
  for (const std::uint64_t m : r.channel_messages) {
    EXPECT_EQ(m, 7u);
  }
  EXPECT_GE(r.comm_cycles, r.cross_comm_cycles);
}

// Property: the Pareto front of any point set is mutually non-dominating,
// and every input point is dominated by or equal to a front point.
TEST_P(Seeded, ParetoFrontCorrectness) {
  Rng rng(GetParam() + 6000);
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 40; ++i) {
    // Coarse values, so exact ties and duplicates actually occur.
    points.push_back({std::round(rng.uniform(0.0, 20.0)),
                      std::round(rng.uniform(0.0, 20.0)),
                      std::round(rng.uniform(0.0, 3.0))});
  }
  const auto no_worse = [](const std::vector<double>& a,
                           const std::vector<double>& b) {
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k] > b[k]) return false;
    }
    return true;
  };
  const std::vector<std::size_t> front = opt::pareto(points);
  ASSERT_FALSE(front.empty());
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_LT(front[i - 1], front[i]);
  }
  for (const std::size_t f : front) {
    for (const std::size_t g : front) {
      if (f != g) {
        EXPECT_FALSE(no_worse(points[f], points[g]));
      }
    }
  }
  for (const std::vector<double>& p : points) {
    bool covered = false;
    for (const std::size_t f : front) {
      covered = covered || no_worse(points[f], p);
    }
    EXPECT_TRUE(covered);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Seeded,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace mhs
