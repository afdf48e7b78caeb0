// High-level synthesis driver: schedule + bind + controller + area/latency.
//
// This is the "behavioural synthesis" substrate the paper's co-processor
// examples (Figures 7–9) assume: it turns a Cdfg into a datapath/controller
// implementation with a defensible area and latency. hw::RtlSim
// (hw/rtl_sim.h) executes the result cycle by cycle.
#pragma once

#include <cstddef>
#include <vector>

#include "hw/binding.h"
#include "hw/fsm.h"
#include "hw/schedule.h"

namespace mhs::hw {

/// How the synthesizer should trade latency against area.
enum class HlsGoal {
  kMinLatency,          ///< ASAP schedule, as many FUs as needed
  kMinArea,             ///< single FU of each used type, list-scheduled
  kLatencyConstrained,  ///< force-directed under a latency bound
  kResourceConstrained, ///< list scheduling under given FU counts
};

/// Synthesis constraints.
struct HlsConstraints {
  HlsGoal goal = HlsGoal::kMinLatency;
  /// For kLatencyConstrained: maximum control steps.
  std::size_t latency_bound = 0;
  /// For kResourceConstrained: available FU instances.
  FuCounts resources;
  /// Proven-safe per-op signed bitwidths (one entry per op of the kernel,
  /// typically analysis::AbsintResult::width). When non-empty, binding
  /// and area estimation narrow FU datapaths and registers under the
  /// per-bit cost model; empty keeps the legacy word-wide (64-bit)
  /// model. Functional behaviour never changes: the widths are proven
  /// sufficient, so the narrowed datapath is bit-identical on every
  /// in-range input.
  std::vector<std::size_t> op_width;
};

/// Area breakdown of a synthesized implementation.
struct AreaReport {
  double fu = 0.0;
  double registers = 0.0;
  double muxes = 0.0;
  double controller = 0.0;
  double total() const { return fu + registers + muxes + controller; }
};

/// A complete synthesized implementation of one Cdfg.
struct HlsResult {
  Schedule schedule;
  Binding binding;
  Controller controller;
  AreaReport area;
  /// Latency of one kernel invocation in cycles.
  std::size_t latency = 0;
};

/// Synthesizes `cdfg` under `constraints` using `lib`.
HlsResult synthesize(const ir::Cdfg& cdfg, const ComponentLibrary& lib,
                     const HlsConstraints& constraints);

/// Computes the area breakdown of a scheduled+bound implementation.
AreaReport compute_area(const Schedule& schedule, const Binding& binding,
                        const Controller& controller);

}  // namespace mhs::hw
