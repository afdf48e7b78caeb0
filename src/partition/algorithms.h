// HW/SW partitioning algorithms.
//
// Implements the partitioning styles the paper surveys in §4.5:
//
//   kHotSpot  — Henkel/Ernst COSYMA style [17]: start all-SW and move
//               performance-critical regions into hardware until the
//               latency target is met.
//   kUnload   — Gupta & De Micheli style [6]: start all-HW and move
//               non-critical functions to software to cut cost while
//               performance permits.
//   kKl       — Kernighan–Lin/FM-style pass-based improvement with
//               single-task moves and best-prefix rollback.
//   kAnnealed — simulated annealing over random task flips.
//   kGclp     — Kalavade & Lee GCLP style: map tasks in topological
//               order, steering each decision by a global criticality
//               vs. local cost trade-off.
//
// All algorithms optimize the scalar energy of a CostModel Objective and
// report the metrics of their final mapping plus how many cost-model
// evaluations they spent (the comparison axes of the E8 benchmark).
//
// `run(Strategy, ...)` is the one entry point: every consumer
// (core::Explorer, core::flow, cosynth::coproc, the benches) selects an
// algorithm through this enum-driven dispatcher.
#pragma once

#include <string>

#include "opt/anneal.h"
#include "partition/cost_model.h"

namespace mhs::partition {

/// Every partitioning algorithm selectable through run().
enum class Strategy {
  kAllSw,     ///< baseline: everything on the processor
  kAllHw,     ///< baseline: everything in custom hardware
  kHotSpot,   ///< Henkel/Ernst [17]: all-SW start, move hot spots to HW
  kUnload,    ///< Gupta & De Micheli [6]: all-HW start, evict to SW
  kKl,        ///< pass-based move improvement
  kAnnealed,  ///< simulated annealing
  kGclp,      ///< Kalavade & Lee constructive mapping
};

/// All strategies, for iteration (the baselines first).
inline constexpr Strategy kAllStrategies[] = {
    Strategy::kAllSw, Strategy::kAllHw,  Strategy::kHotSpot, Strategy::kUnload,
    Strategy::kKl,    Strategy::kAnnealed, Strategy::kGclp};

/// The §4.5 search strategies (no trivial baselines) — what a
/// design-space sweep typically crosses with its objectives.
inline constexpr Strategy kSearchStrategies[] = {
    Strategy::kHotSpot, Strategy::kUnload, Strategy::kKl, Strategy::kAnnealed,
    Strategy::kGclp};

/// Stable lower_snake name of a strategy (matches
/// PartitionResult::algorithm).
const char* strategy_name(Strategy strategy);

/// Per-strategy knobs for run(). Strategies ignore options that do not
/// concern them.
struct PartitionOptions {
  /// Starting mapping for kKl (empty = all-SW).
  Mapping start;
  /// Schedule/seed for kAnnealed.
  opt::AnnealConfig anneal;
};

/// Outcome of one partitioning run.
struct PartitionResult {
  std::string algorithm;
  Mapping mapping;
  Metrics metrics;
  /// Cost-model evaluations consumed (optimization effort proxy): one per
  /// scored mapping, whether scored by evaluate(), schedule_latency() or
  /// a CostModel::Walk. The annealer's undo counts one too: it restores
  /// the energy of a mapping the search already held instead of scoring
  /// it again, which is what an EvalCache hit on it was, and those hits
  /// always counted.
  std::size_t evaluations = 0;
};

/// The one enum-driven entry point: runs `strategy` over
/// `model`/`objective`. kHotSpot and kUnload require
/// objective.latency_target > 0.
PartitionResult run(Strategy strategy, const CostModel& model,
                    const Objective& objective,
                    const PartitionOptions& options = {});

}  // namespace mhs::partition
