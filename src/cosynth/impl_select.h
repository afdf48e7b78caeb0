// Hardware implementation selection ("module selection").
//
// Partitioning decides *which* tasks become hardware; this pass decides
// *what kind* of hardware each one becomes. Every hardware-mapped kernel
// has a menu of synthesized alternatives — minimum-area sequential,
// minimum-latency sequential, and modulo-pipelined variants at several
// initiation intervals — each with its own area and per-stream time. The
// selector picks one variant per task to minimize total weighted
// execution time under a shared silicon budget (exact branch-and-bound
// over the variant menus; the instances co-synthesis produces are small).
#pragma once

#include <string>
#include <vector>

#include "hw/hls.h"
#include "hw/pipeline.h"

namespace mhs::cosynth {

/// One synthesized alternative for a kernel.
struct ImplVariant {
  std::string name;      ///< "min_area", "min_latency", "pipelined_ii4"...
  double area = 0.0;
  /// Cycles to process one batch of `samples` invocations.
  double batch_cycles = 0.0;
};

/// The variant menu of one hardware task.
struct ImplMenu {
  std::string task_name;
  /// Relative invocation weight (e.g. samples per activation window).
  double weight = 1.0;
  std::vector<ImplVariant> variants;
};

/// Builds the standard menu for a kernel: min-area, min-latency, and
/// pipelined variants at IIs {1,2,4,8,...} up to the kernel's serial
/// latency, costed for a batch of `samples` back-to-back invocations.
ImplMenu build_impl_menu(const ir::Cdfg& kernel,
                         const hw::ComponentLibrary& lib,
                         std::size_t samples, double weight = 1.0);

/// A selection: one variant index per menu.
struct ImplSelection {
  std::vector<std::size_t> chosen;  ///< variant index per menu
  double total_area = 0.0;
  /// Sum over menus of weight * batch_cycles of the chosen variant.
  double total_weighted_cycles = 0.0;
  std::size_t explored = 0;
  bool feasible = false;

  // Common *Design shape (see core/report.h).
  double latency() const { return total_weighted_cycles; }
  double area() const { return total_area; }
  std::string summary() const;
};

/// The common *Design spelling of the selection result.
using ImplSelectDesign = ImplSelection;

}  // namespace mhs::cosynth
