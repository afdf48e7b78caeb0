// Periodic-task schedulability analysis.
//
// The heterogeneous-multiprocessor systems of §4.2 run periodic task sets
// (Prakash & Parker's and Beck's formulations are periodic), so a design
// is only valid if every processing element can actually schedule its
// tasks. This module provides the classic single-PE tests:
//
//   * utilization (and the EDF bound U <= 1),
//   * the Liu–Layland rate-monotonic bound U <= n(2^{1/n} - 1),
//   * exact fixed-priority response-time analysis (RM priorities),
//
// plus a periodic variant of the bin-packing synthesizer that packs task
// utilizations and validates the result with response-time analysis.
#pragma once

#include <vector>

#include "cosynth/multiproc.h"

namespace mhs::cosynth {

/// One periodic task on one processing element.
struct PeriodicTask {
  double period = 0.0;  ///< also the implicit deadline
  double wcet = 0.0;    ///< worst-case execution time on that PE
};

/// Sum of wcet/period. Precondition: all periods positive.
double utilization(const std::vector<PeriodicTask>& tasks);

/// EDF feasibility on one PE: U <= 1 (exact for implicit deadlines).
bool edf_feasible(const std::vector<PeriodicTask>& tasks);

/// Liu–Layland sufficient bound for rate-monotonic priorities.
double liu_layland_bound(std::size_t n);

/// Exact rate-monotonic feasibility by response-time analysis: for each
/// task (RM priority order), iterate R = C + sum_hp ceil(R/T_j) C_j until
/// fixpoint; feasible iff R <= T for all tasks.
bool rm_feasible(std::vector<PeriodicTask> tasks);

/// Worst-case response time of `index` (0 = highest RM priority) within
/// `tasks` sorted by period ascending; returns infinity if divergent.
double rm_response_time(const std::vector<PeriodicTask>& tasks,
                        std::size_t index);

/// Periodic interpretation of a multiprocessor design: every task of
/// `graph` must carry a positive period; task wcet on its PE is
/// sw_cycles * slowdown. Returns per-instance utilizations and whether
/// every instance passes response-time analysis under RM.
struct PeriodicAnalysis {
  std::vector<double> pe_utilization;
  bool rm_schedulable = false;
  bool edf_schedulable = false;
};
PeriodicAnalysis analyze_periodic(const ir::TaskGraph& graph,
                                  const std::vector<PeType>& catalog,
                                  const MpDesign& design);

}  // namespace mhs::cosynth
