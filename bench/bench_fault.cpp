// Fault-injection bench: what the resilience machinery costs and what a
// fault campaign yields.
//
// Three questions, answered per interface level:
//
//   1. Disabled-injection overhead. An empty fault plan (and equally a
//      plan whose every rate is 0) must leave the co-simulator on its
//      original fast path: bit-identical reports and <5% wall-clock
//      overhead — the injection hooks reduce to a null-pointer test.
//
//   2. Enabled-but-quiet cost. A plan with a vanishing rate keeps the
//      injector engaged (a PRNG draw per opportunity) without firing.
//      That price is reported as an info metric — it is what a fault
//      campaign pays for determinism, not a regression gate.
//
//   3. Campaign yield. An active plan (stalls, hangs, bit flips) runs
//      with the resilient driver; the ResilienceReport counters land in
//      the JSON via the obs registry, and the run must keep the
//      injected >= detected >= recovered invariant with every detected
//      failure resolved by retry or software fallback.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "apps/kernels.h"
#include "base/table.h"
#include "bench_util.h"
#include "sim/cosim.h"
#include "sim/run.h"

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


/// Best-of-reps mean wall seconds for one sim::run call.
double time_runs(const hw::HlsResult& impl, const sim::CosimConfig& cfg,
                 const std::vector<std::vector<std::int64_t>>& samples,
                 int reps = 12, int runs_per_rep = 30) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < runs_per_rep; ++i) {
      (void)accel_cosim(impl, cfg, samples);
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double>(t1 - t0).count() / runs_per_rep);
  }
  return best;
}

void run() {
  bench::Reporter rep("bench_fault",
                      "Fault injection: overhead & resilience yield");

  const ir::Cdfg kernel = apps::fir_kernel(8);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
  const auto samples = bench::make_samples(kernel, 64, 101);

  // ---- 1 + 2: overhead of the hooks, disabled and quiet-enabled.
  bool identical = true;
  double worst_disabled_overhead = 0.0;
  TextTable table({"level", "off us", "zero-rate us", "disabled ovh %",
                   "quiet-enabled us", "enabled ovh %"});
  for (const sim::InterfaceLevel level : sim::kAllInterfaceLevels) {
    sim::CosimConfig off;
    off.level = level;

    // All-zero rates: the plan scan concludes injection is off; this is
    // the most hook-heavy configuration that still takes the fast path.
    sim::CosimConfig zero = off;
    zero.fault_plan.add(fault::FaultSpec::peripheral_stall(0.0, 50))
        .add(fault::FaultSpec::bus_bit_flip(0.0));

    // Vanishing-but-nonzero rate: injector engaged, fires ~never.
    sim::CosimConfig quiet = off;
    quiet.fault_plan.add(fault::FaultSpec::bus_bit_flip(1e-12));

    const sim::CosimReport r_off = accel_cosim(impl, off, samples);
    const sim::CosimReport r_zero = accel_cosim(impl, zero, samples);
    identical = identical && r_off.checksum == r_zero.checksum &&
                r_off.total_cycles == r_zero.total_cycles &&
                r_off.sim_events == r_zero.sim_events &&
                r_zero.resilience.empty();

    const double t_off = time_runs(impl, off, samples);
    const double t_zero = time_runs(impl, zero, samples);
    const double t_quiet = time_runs(impl, quiet, samples);
    const double disabled_ovh = 100.0 * (t_zero / t_off - 1.0);
    const double enabled_ovh = 100.0 * (t_quiet / t_off - 1.0);
    worst_disabled_overhead = std::max(worst_disabled_overhead, disabled_ovh);

    const std::string name = sim::interface_level_name(level);
    table.add_row({name, fmt(t_off * 1e6, 2), fmt(t_zero * 1e6, 2),
                   fmt(disabled_ovh, 2), fmt(t_quiet * 1e6, 2),
                   fmt(enabled_ovh, 2)});
    rep.metric("wall_us_off_" + name, t_off * 1e6, "us",
               bench::Direction::kLowerIsBetter);
    rep.metric("disabled_overhead_pct_" + name, disabled_ovh, "%",
               bench::Direction::kLowerIsBetter);
    rep.metric("enabled_quiet_overhead_pct_" + name, enabled_ovh, "%",
               bench::Direction::kInfo);
  }
  std::cout << table;
  rep.claim(
      "with injection disabled the fault hooks cost <5% wall time and "
      "reports stay bit-identical",
      identical && worst_disabled_overhead < 5.0);

  // ---- 3: an active campaign and its resilience yield.
  obs::ScopedRegistry scope(rep.registry());
  fault::ResilienceReport total;
  bool invariants = true;
  bool resolved = true;
  double campaign_us = 0.0;
  for (const sim::InterfaceLevel level : sim::kAllInterfaceLevels) {
    sim::CosimConfig cfg;
    cfg.level = level;
    cfg.fault_plan.add(fault::FaultSpec::peripheral_stall(0.3, 40))
        .add(fault::FaultSpec::peripheral_hang(0.02))
        .add(fault::FaultSpec::bus_bit_flip(0.01));
    cfg.fault_seed = 7;
    const obs::Stopwatch sw;
    const sim::CosimReport report = accel_cosim(impl, cfg, samples);
    campaign_us += sw.elapsed_us();
    invariants = invariants && report.resilience.invariants_hold();
    // A failing sample must end somewhere: a successful retry or a
    // software-fallback degradation (detections count per watchdog
    // firing, resolutions once per sample, so >= is the relation).
    resolved = resolved &&
               (report.resilience.detected == 0 ||
                report.resilience.recovered + report.resilience.degradations >
                    0);
    total.merge(report.resilience);
  }
  std::cout << total.summary();
  rep.metric("campaign_wall_us", campaign_us, "us",
             bench::Direction::kLowerIsBetter);
  rep.metric("campaign_injected", static_cast<double>(total.injected),
             "faults", bench::Direction::kInfo);
  rep.metric("campaign_detected", static_cast<double>(total.detected),
             "faults", bench::Direction::kInfo);
  rep.metric("campaign_recovered", static_cast<double>(total.recovered),
             "faults", bench::Direction::kInfo);
  rep.metric("campaign_degradations",
             static_cast<double>(total.degradations), "samples",
             bench::Direction::kInfo);
  rep.claim(
      "the campaign injects faults, keeps injected >= detected >= "
      "recovered, and resolves every detected failure",
      total.injected > 0 && total.detected > 0 && invariants && resolved);
}

}  // namespace
}  // namespace mhs

int main() {
  mhs::run();
  return 0;
}
