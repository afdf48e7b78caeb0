// Mixed Type I / Type II co-design — the paper's open problem.
//
// Section 2 of the paper closes with: "it is conceivable that a HW/SW
// system could represent a mixture of Type I and Type II HW/SW
// boundaries, but to our knowledge, no published work has addressed this
// situation." This module addresses it.
//
// One silicon budget is spent jointly on two different kinds of hardware:
//   Type I move  — extending the processor's instruction set (the ASIP
//                  features of cosynth/asip.h), which accelerates *every*
//                  task that stays in software;
//   Type II move — offloading tasks to a shared co-processor (the
//                  partitioners of mhs::partition), which removes tasks
//                  from the CPU entirely.
//
// The two interact: buying a fast multiplier makes the software side of
// every multiply-heavy task faster, which changes which tasks are still
// worth offloading. The synthesizer therefore searches the joint space —
// exhaustively over the 2^6 feature subsets, with a KL partition of the
// re-estimated task graph inside each.
#pragma once

#include <vector>

#include "cosynth/asip.h"
#include "partition/algorithms.h"

namespace mhs::cosynth {

/// A jointly synthesized mixed-boundary design.
struct MixedDesign {
  /// Type I side: ISA features bought for the CPU.
  std::vector<IsaFeature> features;
  /// Type II side: task mapping (true = on the co-processor).
  partition::Mapping mapping;
  /// End-to-end latency under the full cost model.
  double latency_cycles = 0.0;
  /// Silicon spent on ISA extensions / on the co-processor.
  double isa_area = 0.0;
  double coproc_area = 0.0;
  double total_area() const { return isa_area + coproc_area; }
  /// Joint-search effort: (feature subsets tried, cost-model evals).
  std::size_t feature_subsets_tried = 0;
  std::size_t partition_evaluations = 0;

  // Common *Design shape (see core/report.h).
  double latency() const { return latency_cycles; }
  double area() const { return total_area(); }
  std::string summary() const;
};

/// The two pure strategies at the same budget, for comparison:
/// Type I only (all tasks in software on the best extended CPU).
MixedDesign synthesize_pure_type1(const ir::TaskGraph& graph,
                                  const std::vector<const ir::Cdfg*>& kernels,
                                  const sw::CpuModel& base_cpu,
                                  const hw::ComponentLibrary& lib,
                                  double silicon_budget,
                                  const partition::CommModel& comm = {});

/// Type II only (base CPU, the whole budget on the co-processor).
MixedDesign synthesize_pure_type2(const ir::TaskGraph& graph,
                                  const std::vector<const ir::Cdfg*>& kernels,
                                  const sw::CpuModel& base_cpu,
                                  const hw::ComponentLibrary& lib,
                                  double silicon_budget,
                                  const partition::CommModel& comm = {});

}  // namespace mhs::cosynth
