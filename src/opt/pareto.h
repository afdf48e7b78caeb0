// The Pareto filter of design-space exploration reports, and the
// hypervolume indicator built on it.
#pragma once

#include <cstddef>
#include <vector>

namespace mhs::opt {

/// Indices of the Pareto-optimal rows of `points`, ascending. Each row
/// is one point's objective vector; every objective is minimized and
/// every row must have the same length. A row is dropped when another
/// row is no worse in every objective and better in at least one. Of
/// rows with exactly equal objective vectors, only the lowest index is
/// kept. Comparisons are exact.
std::vector<std::size_t> pareto(const std::vector<std::vector<double>>& points);

/// Hypervolume indicator of 2-objective `points` w.r.t. the reference
/// point (ref1, ref2): the area their Pareto front dominates inside the
/// reference box. Both objectives are minimized and the reference must
/// bound every front point. Larger = richer trade-off space. This
/// quantifies the paper's claim that Type II systems expose "a greater
/// set of HW/SW trade-offs" (Experiment E1).
double hypervolume(const std::vector<std::vector<double>>& points,
                   double ref1, double ref2);

}  // namespace mhs::opt
