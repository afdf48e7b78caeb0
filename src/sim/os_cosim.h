// Message-level (send/receive/wait) co-simulation of process networks.
//
// Implements the highest abstraction level of the paper's Figure 3: the
// hardware and software components are concurrent processes that interact
// only through OS-style send/receive/wait operations, as in Coumeri &
// Thomas [3]. Given a ProcessNetwork and a HW/SW mapping, the simulator
// executes every process for a number of iterations and reports makespan,
// resource utilization, and communication cost.
//
// Timing model:
//   * software processes share one CPU (one runs at a time, FIFO-granted,
//     with a context-switch penalty); hardware processes run concurrently;
//   * a transfer costs overhead + bytes/bandwidth, with different
//     (overhead, bandwidth) for SW<->SW, HW<->HW, and cross-boundary
//     channels — crossing the boundary is the expensive case, which is
//     what makes partition-dependent communication visible (§3.3);
//   * channels are bounded FIFOs: senders block on a full FIFO, receivers
//     block on an empty one.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/process_network.h"
#include "sim/kernel.h"

namespace mhs::sim {

/// Timing parameters of the message-level co-simulation.
struct OsCosimConfig {
  /// Iterations each process executes.
  std::size_t iterations = 64;
  /// Cross-boundary (HW<->SW) channel: per-message overhead and bandwidth.
  double cross_overhead_cycles = 24.0;
  double cross_bytes_per_cycle = 4.0;
  /// SW<->SW channel (shared memory copy).
  double swsw_overhead_cycles = 6.0;
  double swsw_bytes_per_cycle = 8.0;
  /// HW<->HW channel (dedicated wires).
  double hwhw_overhead_cycles = 1.0;
  double hwhw_bytes_per_cycle = 16.0;
  /// CPU scheduler cost charged when the CPU switches software processes.
  double context_switch_cycles = 12.0;
};

/// Result of one message-level co-simulation run.
struct OsCosimResult {
  /// Completion time of the whole network (reference cycles).
  double makespan = 0.0;
  /// Discrete events executed (simulation cost metric).
  std::uint64_t sim_events = 0;
  /// Cycles the shared CPU spent computing / communicating.
  double cpu_busy_cycles = 0.0;
  /// Total cycles hardware engines spent computing.
  double hw_busy_cycles = 0.0;
  /// Total cycles spent on channel transfers.
  double comm_cycles = 0.0;
  /// Cycles spent on cross-boundary transfers only.
  double cross_comm_cycles = 0.0;
  /// Messages carried per channel.
  std::vector<std::uint64_t> channel_messages;
  /// True if the network stalled before finishing (undersized FIFOs or a
  /// structurally blocked cycle).
  bool deadlocked = false;
};

}  // namespace mhs::sim
