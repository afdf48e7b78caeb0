#include "opt/knapsack.h"

#include <algorithm>
#include <cmath>

namespace mhs::opt {

namespace {

/// Depth-first branch and bound with the greedy fractional relaxation as
/// the upper bound. Exact in real arithmetic.
struct KnapsackBnb {
  const std::vector<KnapsackItem>& items;  // sorted by value density
  double capacity;
  std::vector<bool> taken;
  std::vector<bool> best_taken;
  double best_value = 0.0;
  std::size_t explored = 0;

  /// Optimistic bound: take remaining items greedily, last one fractional.
  double fractional_bound(std::size_t depth, double weight,
                          double value) const {
    double bound = value;
    double room = capacity - weight;
    for (std::size_t i = depth; i < items.size(); ++i) {
      if (items[i].weight <= room) {
        room -= items[i].weight;
        bound += items[i].value;
      } else {
        if (items[i].weight > 0.0) {
          bound += items[i].value * room / items[i].weight;
        }
        break;
      }
    }
    return bound;
  }

  void search(std::size_t depth, double weight, double value) {
    ++explored;
    MHS_CHECK(explored < 50'000'000,
              "knapsack search exploded; too many items");
    if (value > best_value + 1e-12) {
      best_value = value;
      best_taken = taken;
    }
    if (depth == items.size()) return;
    if (fractional_bound(depth, weight, value) <= best_value + 1e-12) {
      return;
    }
    // Take branch first (greedy order makes it the promising one).
    if (weight + items[depth].weight <= capacity + 1e-12) {
      taken[depth] = true;
      search(depth + 1, weight + items[depth].weight,
             value + items[depth].value);
      taken[depth] = false;
    }
    search(depth + 1, weight, value);
  }
};

}  // namespace

KnapsackResult solve_knapsack(const std::vector<KnapsackItem>& items,
                              double capacity) {
  MHS_CHECK(capacity >= 0.0, "knapsack capacity must be non-negative");
  KnapsackResult result;
  if (items.empty() || capacity <= 0.0) return result;

  for (const KnapsackItem& item : items) {
    MHS_CHECK(item.weight >= 0.0 && item.value >= 0.0,
              "knapsack item with negative weight/value");
  }

  // Sort by value density (descending) for strong fractional bounds.
  std::vector<KnapsackItem> sorted = items;
  std::sort(sorted.begin(), sorted.end(),
            [](const KnapsackItem& a, const KnapsackItem& b) {
              const double da = a.value / std::max(a.weight, 1e-12);
              const double db = b.value / std::max(b.weight, 1e-12);
              if (da != db) return da > db;
              return a.key < b.key;
            });

  KnapsackBnb bnb{sorted, capacity, std::vector<bool>(sorted.size(), false),
                  std::vector<bool>(sorted.size(), false)};
  bnb.search(0, 0.0, 0.0);

  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (bnb.best_taken[i]) {
      result.chosen_keys.push_back(sorted[i].key);
      result.total_weight += sorted[i].weight;
      result.total_value += sorted[i].value;
    }
  }
  std::sort(result.chosen_keys.begin(), result.chosen_keys.end());
  return result;
}

}  // namespace mhs::opt
