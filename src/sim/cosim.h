// The HW/SW co-simulation backplane.
//
// Couples the instruction-set simulator (software world) with the bus and
// accelerator models (hardware world) on one shared timeline, at any of
// the four interface abstraction levels of the paper's Figure 3:
//
//   kPin       — the ISS runs the real driver; every MMIO access expands
//                into bus-cycle handshakes; the accelerator FSM steps are
//                individually simulated. Most accurate, most events.
//   kRegister  — the ISS runs the real driver; MMIO accesses are single
//                transaction-level events.
//   kDriver    — no ISS; driver calls are analytic block transfers.
//   kMessage   — no ISS, no bus; transfers are fixed-cost OS messages and
//                functionality comes from direct kernel evaluation.
//
// All levels compute the same functional results (checksum equality is a
// library invariant); they differ in predicted time and simulation cost,
// which is precisely the trade-off §3.1 of the paper describes.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "hw/hls.h"
#include "obs/obs.h"
#include "sim/bus.h"
#include "sim/driver.h"
#include "sw/iss.h"

namespace mhs::sim {

/// Co-simulation parameters.
struct CosimConfig {
  InterfaceLevel level = InterfaceLevel::kRegister;
  BusConfig bus;
  /// false: polling driver. true: interrupt-driven driver (ISS levels).
  bool use_irq = false;
  /// Background work units attempted per wait iteration (interrupt mode).
  std::size_t background_unroll = 0;
  /// CPU running the driver (ISS levels).
  sw::CpuModel cpu = sw::reference_cpu();
  /// Analytic per-driver-call CPU overhead (kDriver level), cycles.
  Time driver_call_sw_cycles = 15;
  /// Safety limit on ISS execution.
  std::uint64_t max_sw_cycles = 200'000'000;
  /// Fault injection: the scheduled fault plan. An empty (or zero-rate)
  /// plan disables injection entirely — every code path is then
  /// bit-identical to the fault-free co-simulator.
  fault::FaultPlan fault_plan;
  /// PRNG seed making the fault schedule reproducible: the same
  /// (seed, plan, workload) always yields the same injections, results,
  /// and ResilienceReport.
  std::uint64_t fault_seed = 42;
  /// Driver timeout/retry/degradation policy, engaged only when the
  /// fault plan is enabled.
  ResiliencePolicy resilience;
};

/// What one co-simulation run produced and what it cost to simulate.
struct CosimReport {
  InterfaceLevel level = InterfaceLevel::kRegister;
  /// Predicted completion time of the whole run (reference cycles).
  double total_cycles = 0.0;
  /// Discrete events the simulator executed — the simulation-cost metric.
  std::uint64_t sim_events = 0;
  /// Instructions the ISS retired (0 at kDriver/kMessage).
  std::uint64_t sw_instructions = 0;
  std::uint64_t bus_accesses = 0;
  Time bus_busy_cycles = 0;
  /// Pin transitions observed (meaningful at kPin).
  std::uint64_t signal_transitions = 0;
  /// Sum over all samples of all kernel outputs — functional witness.
  std::int64_t checksum = 0;
  /// Background work units completed while waiting (interrupt mode).
  std::int64_t background_units = 0;
  /// HW activations observed.
  std::uint64_t hw_activations = 0;
  /// Where the simulated cycles went: every cycle of total_cycles
  /// attributed to exactly one activity class (SW execution, bus, DMA,
  /// peripheral wait, idle). Always filled, registry or not; embedded in
  /// core::Report when the flow co-simulates.
  obs::Profile profile;
  /// Fault-injection scoreboard (all-zero when injection was disabled).
  fault::ResilienceReport resilience;
};

}  // namespace mhs::sim
