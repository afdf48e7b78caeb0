// Fault injection & resilience: a fault campaign against one accelerator.
//
// Synthesizes a FIR kernel into hardware, then co-simulates it three
// ways:
//
//   1. fault-free — the golden reference run;
//   2. under injected faults with the default resilient driver — the
//      watchdog detects stalls/hangs, retries with exponential backoff,
//      and falls back to a software implementation of the same kernel
//      when hardware retries are exhausted, so the checksum survives;
//   3. the same campaign at a harsher fault rate, showing the
//      ResilienceReport counters and the recovery-cycle cost growing.
//
// Everything is deterministic: the same (seed, plan) reproduces every
// injection bit-exactly. The campaigns' seed is CosimConfig::fault_seed;
// this example reads MHS_FAULT_SEED=<n> to re-roll it without
// recompiling.
//
// Build & run:  cmake -B build && cmake --build build
//               ./build/examples/fault_resilience
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "apps/kernels.h"
#include "base/rng.h"
#include "base/table.h"
#include "hw/hls.h"
#include "sim/cosim.h"
#include "sim/run.h"


namespace {

/// Drives the accelerator co-simulation through the sim::run seam.
mhs::sim::CosimReport accel_cosim(
    const mhs::hw::HlsResult& impl, const mhs::sim::CosimConfig& config,
    const std::vector<std::vector<std::int64_t>>& samples) {
  mhs::sim::SimRequest sreq;
  sreq.impl = &impl;
  sreq.samples = &samples;
  sreq.cosim = config;
  return mhs::sim::run(sreq).cosim.value();
}

/// The campaigns' fault seed: MHS_FAULT_SEED when it holds a decimal
/// number, else 2026.
std::uint64_t campaign_seed() {
  if (const char* env = std::getenv("MHS_FAULT_SEED")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return parsed;
  }
  return 2026;
}

}  // namespace

int main() {
  using namespace mhs;

  // One behavioural spec, one synthesized accelerator.
  const ir::Cdfg kernel = apps::fir_kernel(6);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);

  Rng rng(42);
  std::vector<std::vector<std::int64_t>> samples;
  for (int s = 0; s < 24; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-1000, 1000));
    }
    samples.push_back(std::move(in));
  }

  // The campaign: occasional long stalls, rare outright hangs.
  fault::FaultPlan mild;
  mild.add(fault::FaultSpec::peripheral_stall(0.2, 80))
      .add(fault::FaultSpec::peripheral_hang(0.05));
  fault::FaultPlan harsh;
  harsh.add(fault::FaultSpec::peripheral_stall(0.5, 200))
      .add(fault::FaultSpec::peripheral_hang(0.2))
      .add(fault::FaultSpec::bus_bit_flip(0.01));

  TextTable table({"campaign", "cycles", "checksum", "injected", "detected",
                   "recovered", "degraded", "recovery cyc"});
  std::int64_t golden = 0;
  const std::uint64_t seed = campaign_seed();
  for (const auto& [name, plan] :
       {std::pair<const char*, const fault::FaultPlan*>{"fault-free", nullptr},
        {"mild", &mild},
        {"harsh", &harsh}}) {
    sim::CosimConfig cfg;
    cfg.level = sim::InterfaceLevel::kRegister;
    if (plan != nullptr) cfg.fault_plan = *plan;
    cfg.fault_seed = seed;
    const sim::CosimReport report = accel_cosim(impl, cfg, samples);
    if (plan == nullptr) golden = report.checksum;
    const fault::ResilienceReport& r = report.resilience;
    table.add_row({name, fmt(report.total_cycles, 0),
                   fmt(static_cast<long long>(report.checksum)),
                   fmt(r.injected), fmt(r.detected), fmt(r.recovered),
                   fmt(r.degradations), fmt(r.recovery_cycles)});
    // Stalls and hangs only delay completions — the resilient driver
    // must deliver the golden checksum regardless. (The harsh campaign
    // also flips bus bits, which silent-corrupt data by design; only
    // compare when the plan cannot corrupt payloads.)
    if (plan == &mild && report.checksum != golden) {
      std::cerr << "resilience failed: checksum diverged under stalls\n";
      return 1;
    }
  }
  std::cout << table << "\n";

  std::cout << "Campaigns are deterministic from (seed, plan); set\n"
               "MHS_FAULT_SEED=<n> to re-roll the schedule, e.g.\n"
               "  MHS_FAULT_SEED=7 ./build/examples/fault_resilience\n";
  return 0;
}
