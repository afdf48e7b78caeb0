// Application-specific co-processor synthesis (the paper's §4.5, Fig. 8).
//
// Drives the HW/SW partitioners of mhs::partition as a complete flow:
// pick a strategy, partition the task graph between the instruction-set
// processor and the custom co-processor, and report the resulting design
// with its speedup over all-software and its silicon cost. When the tasks
// carry behavioural kernels, the hardware side can additionally be pushed
// through high-level synthesis to validate the area/latency annotations.
#pragma once

#include <optional>
#include <string>

#include "hw/hls.h"
#include "partition/algorithms.h"

namespace mhs::cosynth {

/// Which published partitioning style to run (§4.5's comparison axes).
/// An alias of the partition-layer strategy enum: co-processor synthesis
/// selects its algorithm through the same partition::run dispatcher as
/// every other consumer.
using CoprocStrategy = partition::Strategy;

inline const char* coproc_strategy_name(CoprocStrategy strategy) {
  return partition::strategy_name(strategy);
}

/// A synthesized co-processor system.
struct CoprocDesign {
  partition::PartitionResult partition;
  /// Latency of the all-software mapping (the baseline of §4.5).
  double all_sw_latency = 0.0;
  double speedup() const {
    return partition.metrics.latency_cycles > 0.0
               ? all_sw_latency / partition.metrics.latency_cycles
               : 1.0;
  }

  // Common *Design shape (see core/report.h).
  double latency() const { return partition.metrics.latency_cycles; }
  double area() const { return partition.metrics.hw_area; }
  std::string summary() const;
};

/// Synthesizes actual datapaths for every HW-mapped kernel and returns the
/// summed post-synthesis area — a cross-check of the cost model's shared
/// estimate. `kernels[i]` describes task i (may be null for tasks without
/// a behavioural description, which are skipped).
double validate_hw_area(const partition::CostModel& model,
                        const partition::Mapping& mapping,
                        const std::vector<const ir::Cdfg*>& kernels,
                        hw::HlsGoal goal = hw::HlsGoal::kMinArea);

}  // namespace mhs::cosynth
