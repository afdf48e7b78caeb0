// The sim::run seam: thread-count determinism of the accelerator level,
// level names, and the required-input checks.
#include <gtest/gtest.h>

#include <vector>

#include "apps/kernels.h"
#include "base/rng.h"
#include "base/parallel_for.h"
#include "sim/run.h"

namespace mhs::sim {
namespace {

hw::HlsResult make_impl(const ir::Cdfg& kernel) {
  static hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  return hw::synthesize(kernel, lib, constraints);
}

std::vector<std::vector<std::int64_t>> random_samples(
    const ir::Cdfg& kernel, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples;
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-1000, 1000));
    }
    samples.push_back(std::move(in));
  }
  return samples;
}

/// Every field of two CosimReports, bit for bit — including the Profile
/// bucket per category and the fault scoreboard.
void expect_identical(const CosimReport& a, const CosimReport& b) {
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.sw_instructions, b.sw_instructions);
  EXPECT_EQ(a.bus_accesses, b.bus_accesses);
  EXPECT_EQ(a.bus_busy_cycles, b.bus_busy_cycles);
  EXPECT_EQ(a.signal_transitions, b.signal_transitions);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.background_units, b.background_units);
  EXPECT_EQ(a.hw_activations, b.hw_activations);
  EXPECT_EQ(a.profile.total(), b.profile.total());
  for (std::size_t c = 0; c < obs::Profile::kNumCategories; ++c) {
    const auto cat = static_cast<obs::Profile::Category>(c);
    EXPECT_EQ(a.profile.cycles(cat), b.profile.cycles(cat))
        << "profile category " << obs::Profile::category_name(cat);
  }
  EXPECT_EQ(a.resilience, b.resilience);
}

TEST(SimRunApi, ThreadCountDoesNotChangeResults) {
  // The seam must be as thread-agnostic as the engines under it: a batch
  // of runs spread over 1/2/4/8 worker threads produces bit-identical
  // reports in every slot, fault plan included.
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 6, 33);
  constexpr std::size_t kRuns = 8;
  const auto run_batch = [&](std::size_t threads) {
    std::vector<CosimReport> out(kRuns);
    parallel_for(threads, kRuns, [&](std::size_t i) {
      CosimConfig cfg;
      cfg.level = kAllInterfaceLevels[i % 4];
      if (i >= 4) {
        cfg.fault_plan.add(fault::FaultSpec::peripheral_stall(0.4, 60));
        cfg.fault_seed = 100 + i;
      }
      SimRequest req;
      req.impl = &impl;
      req.samples = &samples;
      req.cosim = cfg;
      out[i] = run(req).cosim.value();
    });
    return out;
  };
  const std::vector<CosimReport> baseline = run_batch(1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const std::vector<CosimReport> got = run_batch(threads);
    for (std::size_t i = 0; i < kRuns; ++i) {
      expect_identical(got[i], baseline[i]);
    }
  }
}

TEST(SimRunApi, LevelNamesRoundTripAndRejectUnknown) {
  for (const Level level : kAllLevels) {
    const auto parsed = parse_level(level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(parse_level("pin").has_value());
  EXPECT_FALSE(parse_level("").has_value());
  EXPECT_FALSE(parse_level("cosim").has_value());
}

TEST(SimRunApi, MissingRequiredPointersThrow) {
  SimRequest req;  // kAccelerator with no impl/samples
  EXPECT_THROW(run(req), Error);
  SimRequest proc;
  proc.level = Level::kProcess;
  EXPECT_THROW(run(proc), Error);
  SimRequest system;
  system.level = Level::kSystem;
  EXPECT_THROW(run(system), Error);
}

}  // namespace
}  // namespace mhs::sim
