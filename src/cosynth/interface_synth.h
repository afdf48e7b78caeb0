// Interface co-synthesis (the paper's §4.1, Chinook [11]).
//
// Chinook does no HW/SW partitioning; it synthesizes the glue between a
// fixed processor and fixed peripherals: I/O driver routines and interface
// logic. Our equivalent decides, per peripheral, between the polling and
// the interrupt-driven driver the generator in mhs::sim can emit, by
// co-simulating both and scoring them against the designer's intent
// (latency-critical vs. throughput of concurrent background work), and
// allocates the peripheral's registers into the processor's address map.
#pragma once

#include <string>
#include <vector>

#include "sim/cosim.h"

namespace mhs::cosynth {

/// What the designer cares about when the driver style is chosen.
struct InterfaceRequirements {
  /// Relative importance of per-sample latency (0..1); the remainder
  /// weights background-work throughput.
  double latency_weight = 0.5;
  /// Samples used for the evaluation co-simulation.
  std::size_t eval_samples = 16;
  /// Background work units attempted per wait iteration in IRQ mode.
  std::size_t background_unroll = 4;
  /// Co-simulation abstraction level used for evaluation.
  sim::InterfaceLevel eval_level = sim::InterfaceLevel::kRegister;
  /// Fault campaign applied to both evaluation co-simulations (empty =
  /// fault-free): drivers are then scored under the same misbehaviour
  /// they would face in the field.
  fault::FaultPlan fault_plan;
  std::uint64_t fault_seed = 42;
  sim::ResiliencePolicy resilience;
};

/// One scored driver alternative.
struct DriverCandidate {
  bool use_irq = false;
  sim::CosimReport report;
  /// Mean cycles per sample.
  double cycles_per_sample = 0.0;
  /// Background units completed per sample.
  double background_per_sample = 0.0;
  /// Scalar score (lower is better).
  double score = 0.0;
};

/// Result of interface synthesis for one peripheral.
struct InterfaceDesign {
  /// Base address allocated to the peripheral.
  std::uint64_t base_address = 0;
  /// Both candidates, for reporting.
  std::vector<DriverCandidate> candidates;
  /// Index into `candidates` of the selected driver.
  std::size_t selected = 0;
  /// The generated driver routine.
  sim::Driver driver;

  // Common *Design shape (see core/report.h). Interface glue spends no
  // datapath silicon, so area() is 0.
  double latency() const {
    return selected < candidates.size()
               ? candidates[selected].cycles_per_sample
               : 0.0;
  }
  double area() const { return 0.0; }
  std::string summary() const;
};

/// Address-map allocator: packs peripherals into a flat MMIO window.
class AddressMapAllocator {
 public:
  explicit AddressMapAllocator(std::uint64_t window_base = 0x10000,
                               std::uint64_t window_size = 0x100000);

  /// Allocates `size` bytes aligned to `alignment`; throws
  /// InfeasibleError when the window is exhausted.
  std::uint64_t allocate(std::uint64_t size, std::uint64_t alignment);

  std::uint64_t bytes_allocated() const { return next_ - base_; }

 private:
  std::uint64_t base_;
  std::uint64_t end_;
  std::uint64_t next_;
};

}  // namespace mhs::cosynth
