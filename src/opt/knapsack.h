// Exact 0/1 knapsack (depth-first branch and bound).
//
// Used by the ASIP synthesis of §4.3/§4.4: candidate custom instructions
// / functional units are items (weight = silicon area, value = cycles
// saved) packed under the processor's area budget.
#pragma once

#include <cstddef>
#include <vector>

#include "base/error.h"

namespace mhs::opt {

/// A knapsack item.
struct KnapsackItem {
  double weight = 0.0;
  double value = 0.0;
  std::size_t key = 0;  ///< caller identity
};

/// Result of a knapsack solve.
struct KnapsackResult {
  std::vector<std::size_t> chosen_keys;
  double total_weight = 0.0;
  double total_value = 0.0;
};

/// Maximizes total value under `capacity`. Exact branch-and-bound with a
/// fractional-relaxation bound: exact in real arithmetic, fast for the
/// tens-of-items instances co-synthesis produces.
KnapsackResult solve_knapsack(const std::vector<KnapsackItem>& items,
                              double capacity);

}  // namespace mhs::opt
