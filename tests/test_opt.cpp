// Unit tests for mhs::opt — annealing, bin packing, knapsack, Pareto.
#include <gtest/gtest.h>

#include <cmath>

#include "opt/anneal.h"
#include "opt/binpack.h"
#include "opt/knapsack.h"
#include "opt/pareto.h"

namespace mhs::opt {
namespace {

TEST(Anneal, MinimizesAConvexToy) {
  // State: integer x in [-50, 50]; energy = (x-17)^2. Moves: x +/- 1.
  int x = -40;
  int best_x = x;
  int last_delta = 0;
  auto energy = [](int v) { return (v - 17.0) * (v - 17.0); };

  AnnealConfig cfg;
  cfg.initial_temperature = 100.0;
  cfg.rounds = 80;
  cfg.moves_per_round = 40;
  const AnnealStats stats = anneal(
      cfg, energy(x),
      [&](Rng& rng) {
        last_delta = rng.bernoulli(0.5) ? 1 : -1;
        const double before = energy(x);
        x += last_delta;
        return energy(x) - before;
      },
      [&] { x -= last_delta; },
      [&] { best_x = x; });
  EXPECT_EQ(best_x, 17);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_NEAR(stats.best_energy, 0.0, 1e-9);
}

TEST(Anneal, ValidatesConfig) {
  AnnealConfig bad;
  bad.cooling_rate = 1.5;
  auto noop_propose = [](Rng&) { return 0.0; };
  auto noop = [] {};
  EXPECT_THROW(anneal(bad, 0.0, noop_propose, noop, noop),
               PreconditionError);
}

TEST(BinPack, PacksIntoMinimalBinsSimpleCase) {
  // Items 0.6,0.6,0.4,0.4 into unit bins: FFD gives 2 bins.
  std::vector<PackItem> items;
  for (const double s : {0.6, 0.6, 0.4, 0.4}) {
    items.push_back(PackItem{{s}, items.size()});
  }
  const std::vector<BinType> types = {BinType{{1.0}, 10.0, 0}};
  const PackResult r = first_fit_decreasing(items, types);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.bins.size(), 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, 20.0);
}

TEST(BinPack, PrefersCheaperBinTypes) {
  std::vector<PackItem> items = {PackItem{{0.3}, 0}};
  const std::vector<BinType> types = {BinType{{1.0}, 50.0, 0},
                                      BinType{{0.5}, 10.0, 1}};
  const PackResult r = first_fit_decreasing(items, types);
  ASSERT_EQ(r.bins.size(), 1u);
  EXPECT_EQ(r.bins[0].type_key, 1u);  // cheap bin suffices
}

TEST(BinPack, MultiDimensionalConstraints) {
  // Item exceeds dimension 1 of the small type even though dim 0 fits.
  std::vector<PackItem> items = {PackItem{{0.2, 0.9}, 0}};
  const std::vector<BinType> types = {BinType{{1.0, 0.5}, 10.0, 0},
                                      BinType{{1.0, 1.0}, 30.0, 1}};
  const PackResult r = first_fit_decreasing(items, types);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.bins[0].type_key, 1u);
}

TEST(BinPack, InfeasibleItemFlagged) {
  std::vector<PackItem> items = {PackItem{{2.0}, 0}};
  const std::vector<BinType> types = {BinType{{1.0}, 1.0, 0}};
  EXPECT_FALSE(first_fit_decreasing(items, types).feasible);
}

TEST(BinPack, BestFitNoWorseBinCountThanFirstFitHere) {
  std::vector<PackItem> items;
  const double sizes[] = {0.5, 0.7, 0.5, 0.2, 0.4, 0.2, 0.5, 0.1};
  for (const double s : sizes) items.push_back(PackItem{{s}, items.size()});
  const std::vector<BinType> types = {BinType{{1.0}, 1.0, 0}};
  const PackResult ffd = first_fit_decreasing(items, types);
  const PackResult bfd = best_fit_decreasing(items, types);
  EXPECT_TRUE(ffd.feasible);
  EXPECT_TRUE(bfd.feasible);
  EXPECT_LE(bfd.bins.size(), ffd.bins.size() + 1);
  // All items placed exactly once in both.
  std::size_t placed = 0;
  for (const PackedBin& b : bfd.bins) placed += b.item_keys.size();
  EXPECT_EQ(placed, items.size());
}

TEST(BinPack, DimensionMismatchRejected) {
  std::vector<PackItem> items = {PackItem{{0.5, 0.5}, 0}};
  const std::vector<BinType> types = {BinType{{1.0}, 1.0, 0}};
  EXPECT_THROW(first_fit_decreasing(items, types), PreconditionError);
}

TEST(Knapsack, SolvesClassicInstanceExactly) {
  // Items (w,v): (2,3),(3,4),(4,5),(5,6); capacity 5 -> best = 7 (2+3).
  std::vector<KnapsackItem> items = {
      {2, 3, 0}, {3, 4, 1}, {4, 5, 2}, {5, 6, 3}};
  const KnapsackResult r = solve_knapsack(items, 5.0);
  EXPECT_DOUBLE_EQ(r.total_value, 7.0);
  EXPECT_LE(r.total_weight, 5.0);
  EXPECT_EQ(r.chosen_keys.size(), 2u);
}

TEST(Knapsack, NeverOverpacks) {
  std::vector<KnapsackItem> items;
  Rng rng(4);
  for (std::size_t i = 0; i < 24; ++i) {
    items.push_back(KnapsackItem{rng.uniform(0.1, 5.0),
                                 rng.uniform(0.1, 10.0), i});
  }
  for (const double cap : {1.0, 3.7, 9.9, 25.0}) {
    const KnapsackResult r = solve_knapsack(items, cap);
    EXPECT_LE(r.total_weight, cap + 1e-9) << "capacity " << cap;
  }
}

TEST(Knapsack, ValueMonotoneInCapacity) {
  std::vector<KnapsackItem> items = {
      {2, 3, 0}, {3, 4, 1}, {4, 5, 2}, {5, 6, 3}};
  double prev = -1.0;
  for (const double cap : {1.0, 3.0, 5.0, 9.0, 14.0}) {
    const double v = solve_knapsack(items, cap).total_value;
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Knapsack, EmptyAndZeroCapacity) {
  EXPECT_TRUE(solve_knapsack({}, 10.0).chosen_keys.empty());
  std::vector<KnapsackItem> items = {{1, 1, 0}};
  EXPECT_TRUE(solve_knapsack(items, 0.0).chosen_keys.empty());
}

TEST(Pareto, KeepsNonDominatedIndicesAscending) {
  // (latency, area, evaluations), all minimized.
  const std::vector<std::vector<double>> points = {
      {100, 10, 5},   // 0: optimal corner
      {100, 10, 9},   // 1: dominated by 0 (more evaluations)
      {50, 20, 9},    // 2: best latency
      {200, 5, 9},    // 3: best area
      {200, 20, 20},  // 4: dominated by everything
  };
  EXPECT_EQ(pareto(points), (std::vector<std::size_t>{0, 2, 3}));
}

TEST(Pareto, ExactDuplicatesKeepTheLowestIndex) {
  const std::vector<std::vector<double>> points = {
      {3.0, 1.0}, {1.0, 2.0}, {3.0, 1.0}, {1.0, 2.0}, {1.0, 2.0}};
  EXPECT_EQ(pareto(points), (std::vector<std::size_t>{0, 1}));
  // Comparisons are exact: a point better by one ulp is not a tie.
  const double a = 2.0;
  const double b = std::nextafter(a, 0.0);
  EXPECT_EQ(pareto({{1.0, a}, {1.0, b}}), (std::vector<std::size_t>{1}));
}

TEST(Pareto, EmptyInputAndMismatchedArity) {
  EXPECT_TRUE(pareto({}).empty());
  EXPECT_THROW(pareto({{1.0, 2.0}, {1.0}}), PreconditionError);
}

TEST(Pareto, HypervolumeGrowsWithRicherFront) {
  const std::vector<std::vector<double>> sparse = {{1.0, 9.0}, {9.0, 1.0}};
  std::vector<std::vector<double>> rich = sparse;
  rich.push_back({3.0, 3.0});  // fills the middle
  EXPECT_DOUBLE_EQ(hypervolume(sparse, 10.0, 10.0), 17.0);  // 1x9 + 8x1
  EXPECT_GT(hypervolume(rich, 10.0, 10.0), hypervolume(sparse, 10.0, 10.0));
}

TEST(Pareto, HypervolumeRequiresBoundingReferenceAndTwoObjectives) {
  EXPECT_THROW(hypervolume({{5.0, 5.0}}, 1.0, 1.0), PreconditionError);
  EXPECT_THROW(hypervolume({{1.0, 1.0, 1.0}}, 9.0, 9.0), PreconditionError);
}

}  // namespace
}  // namespace mhs::opt
