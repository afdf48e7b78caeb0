// Full-system co-simulation of a partitioned task graph.
//
// The analytic cost model (partition::CostModel) predicts latency with a
// static list schedule and closed-form transfer costs. This engine checks
// those predictions the way §3.1 says performance should be evaluated: by
// simulation. Every task executes on the shared event timeline —
// software tasks serialize on the CPU (busy intervals of their cycle
// counts), hardware tasks run concurrently as accelerator activations,
// and every cross-boundary transfer contends for the single system bus.
//
// Per-transfer costs deliberately use the same pricing as the cost model
// (partition::CommModel), so any deviation between prediction and
// co-simulation isolates *dynamic* effects: dispatch order and bus
// contention — exactly the effects a designer runs a co-simulation to
// find.
#pragma once

#include <vector>

#include "partition/cost_model.h"
#include "sim/kernel.h"

namespace mhs::sim {

/// Configuration of the system co-simulation.
struct SystemCosimConfig {
  partition::CommModel comm;
};

/// Result of one run.
struct SystemCosimResult {
  double makespan = 0.0;
  /// Per-task start/finish times (indexed by TaskId::index()).
  std::vector<double> start;
  std::vector<double> finish;
  /// Cycles the CPU spent executing software tasks.
  double cpu_busy = 0.0;
  /// Cycles the bus carried cross-boundary transfers.
  double bus_busy = 0.0;
  /// Cycles transfers waited for the bus (the contention the static
  /// model does not see).
  double bus_wait = 0.0;
  std::uint64_t sim_events = 0;
};

}  // namespace mhs::sim
