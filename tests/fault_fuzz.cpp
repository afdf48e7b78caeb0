// Tier-2 fuzz harness for the fault-injection subsystem (built with the
// tree's sanitizer presets in the sanitize gate; see
// cmake/run_sanitized.cmake).
//
// Two surfaces take adversarial input here:
//
//   1. sim::run under randomly generated FaultPlans — every fault kind
//      at random rates/params, all four interface levels, polling and
//      IRQ drivers. Whatever the plan does, a run must terminate, keep
//      the resilience invariants (injected >= detected >= recovered,
//      per-kind counts summing to injected), keep the cycle-attribution
//      profile consistent (buckets sum to total), and reproduce
//      bit-exactly from the same (seed, plan).
//
//   2. mhs_lint over mutated IR text — random corruptions of valid
//      artifacts must map to a clean exit code (0 valid, 1 findings,
//      2 usage/IO), never a crash or hang.
//
// Iteration counts honor MHS_FUZZ_ITERS so the sanitize gate can dial
// the budget; the default is 500 plans. The plan-seed base is
// overridable via MHS_FAULT_SEED (see tests/fuzz_env.h).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/kernels.h"
#include "apps/mhs_lint/lint_lib.h"
#include "fault/fault.h"
#include "fuzz_env.h"
#include "hw/hls.h"
#include "sim/cosim.h"
#include "sim/run.h"

namespace mhs {
namespace {

constexpr std::uint64_t kPlanSeedBase = 0x5eed0000ull;
constexpr std::uint64_t kMutateSeedBase = 0xc0de0000ull;

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


hw::HlsResult make_impl(const ir::Cdfg& kernel) {
  static hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  return hw::synthesize(kernel, lib, constraints);
}

/// One random fault plan: a random subset of every kind the injector
/// knows, with rates spanning "almost never" to "every opportunity".
fault::FaultPlan random_plan(fault::SplitMix64& rng) {
  fault::FaultPlan plan;
  const auto rate = [&] {
    const double u = rng.uniform();
    return u < 0.25 ? 0.0 : u;  // zero-rate specs must also be harmless
  };
  if (rng.next() & 1) {
    plan.add(fault::FaultSpec::bus_bit_flip(
        rate(), rng.next() % 2 == 0 ? fault::FaultSpec::kRandomBit
                                    : rng.next() % 64));
  }
  if (rng.next() & 1) {
    plan.add(fault::FaultSpec::bus_grant_starvation(rate(), 1 + rng.next() % 32));
  }
  if (rng.next() & 1) {
    plan.add(fault::FaultSpec::dma_drop(rate()));
  }
  if (rng.next() & 1) {
    plan.add(fault::FaultSpec::dma_duplicate(rate()));
  }
  if (rng.next() & 1) {
    // Finite stalls mostly; occasional outright hangs exercise the
    // watchdog + reset + fallback path.
    if (rng.next() % 4 == 0) {
      plan.add(fault::FaultSpec::peripheral_hang(rate() * 0.5));
    } else {
      plan.add(fault::FaultSpec::peripheral_stall(rate(), 1 + rng.next() % 200));
    }
  }
  if (rng.next() & 1) {
    plan.add(fault::FaultSpec::stuck_at(rate() * 0.1, rng.next() % 64,
                                        rng.next() % 2 == 0));
  }
  if (rng.next() & 1) {
    plan.add(fault::FaultSpec::kernel_result_corruption(rate()));
  }
  return plan;
}

sim::CosimConfig random_config(fault::SplitMix64& rng, std::uint64_t seed) {
  sim::CosimConfig cfg;
  cfg.level = sim::kAllInterfaceLevels[rng.next() % 4];
  cfg.use_irq = (rng.next() & 1) != 0;
  cfg.background_unroll = cfg.use_irq ? rng.next() % 4 : 0;
  cfg.fault_plan = random_plan(rng);
  cfg.fault_seed = seed;
  // A plan of nothing but hangs degrades every sample; the budget only
  // needs to cover the watchdog windows, so a tight cap doubles as the
  // harness's own hang detector.
  cfg.max_sw_cycles = 5'000'000;
  cfg.resilience.max_retries = rng.next() % 4;
  cfg.resilience.degrade_after = rng.next() % 5;
  cfg.resilience.backoff_cap = 1 + rng.next() % 8;
  cfg.resilience.verify_writes = (rng.next() & 1) != 0;
  return cfg;
}

void check_report(const sim::CosimReport& report, std::uint64_t iter) {
  EXPECT_TRUE(report.resilience.invariants_hold())
      << "iter " << iter << ": injected=" << report.resilience.injected
      << " detected=" << report.resilience.detected
      << " recovered=" << report.resilience.recovered;
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < obs::Profile::kNumCategories; ++c) {
    sum += report.profile.cycles(static_cast<obs::Profile::Category>(c));
  }
  EXPECT_EQ(sum, report.profile.total()) << "iter " << iter;
  EXPECT_EQ(static_cast<double>(report.profile.total()), report.total_cycles)
      << "iter " << iter;
}

TEST(FaultFuzz, RandomPlansNeverCrashAndKeepInvariants) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const std::size_t iters = fuzz::fuzz_iters(500);
  std::size_t faulty_runs = 0;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    fault::SplitMix64 rng(fuzz::fuzz_seed_base("MHS_FAULT_SEED",
                                              kPlanSeedBase) +
                           iter);
    const sim::CosimConfig cfg = random_config(rng, 1000 + iter);
    std::vector<std::vector<std::int64_t>> samples;
    const std::size_t n = 1 + rng.next() % 3;
    for (std::size_t s = 0; s < n; ++s) {
      std::vector<std::int64_t> in;
      for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
        in.push_back(static_cast<std::int64_t>(rng.next() % 2001) - 1000);
      }
      samples.push_back(std::move(in));
    }
    const sim::CosimReport report = accel_cosim(impl, cfg, samples);
    check_report(report, iter);
    faulty_runs += report.resilience.injected > 0 ? 1 : 0;
    if (iter % 10 == 0) {
      // Determinism probe: the same (seed, plan, workload) must
      // reproduce the run bit-exactly.
      const sim::CosimReport again = accel_cosim(impl, cfg, samples);
      EXPECT_EQ(again.resilience, report.resilience) << "iter " << iter;
      EXPECT_EQ(again.checksum, report.checksum) << "iter " << iter;
      EXPECT_EQ(again.total_cycles, report.total_cycles) << "iter " << iter;
      EXPECT_EQ(again.sim_events, report.sim_events) << "iter " << iter;
    }
  }
  // The campaign must actually exercise injection, not fuzz the
  // fault-free fast path 500 times.
  EXPECT_GT(faulty_runs, iters / 10);
}

// --------------------------------------------------------------- mhs_lint

/// Valid artifacts the mutator starts from (one per artifact kind).
const char* const kSeedArtifacts[] = {
    "cdfg small\n"
    "op input a\n"
    "op input b\n"
    "op const 1\n"
    "op add 0 1\n"
    "op shl 3 2\n"
    "op output y 4\n"
    "end\n",
    "taskgraph g\n"
    "task t0 100\n"
    "task t1 200\n"
    "edge t0 t1 8\n"
    "end\n",
    "network n\n"
    "process p0\n"
    "process p1\n"
    "channel p0 p1 4\n"
    "end\n",
};

std::string mutate(const std::string& seed_text, fault::SplitMix64& rng) {
  std::string text = seed_text;
  const std::size_t edits = 1 + rng.next() % 8;
  for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos = rng.next() % text.size();
    switch (rng.next() % 5) {
      case 0:  // flip a byte (printable range keeps the tokenizer busy)
        text[pos] = static_cast<char>(' ' + rng.next() % 95);
        break;
      case 1:  // truncate
        text.resize(pos);
        break;
      case 2:  // duplicate a span
        text.insert(pos, text.substr(pos, rng.next() % 16));
        break;
      case 3:  // delete a span
        text.erase(pos, rng.next() % 8);
        break;
      case 4:  // splice a hostile token
        text.insert(pos, rng.next() % 2 == 0 ? " 99999999999999999999 "
                                             : "\nop add 7 7\n");
        break;
    }
  }
  return text;
}

TEST(FaultFuzz, LintSurvivesMutatedArtifacts) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mhs_fault_fuzz";
  fs::create_directories(dir);
  const fs::path file = dir / "mutant.txt";
  const std::size_t iters = fuzz::fuzz_iters(500);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    fault::SplitMix64 rng(fuzz::fuzz_seed_base("MHS_FAULT_SEED",
                                              kMutateSeedBase) +
                           iter);
    const std::string text =
        mutate(kSeedArtifacts[iter % 3], rng);
    {
      std::ofstream out(file);
      ASSERT_TRUE(out) << file;
      out << text;
    }
    std::ostringstream out_stream;
    std::ostringstream err_stream;
    const int rc =
        apps::run_lint({file.string()}, out_stream, err_stream);
    EXPECT_TRUE(rc == 0 || rc == 1 || rc == 2)
        << "iter " << iter << " rc=" << rc << "\ninput:\n"
        << text;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);  // best-effort cleanup
}

}  // namespace
}  // namespace mhs
