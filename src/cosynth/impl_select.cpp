#include "cosynth/impl_select.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "base/table.h"
#include "cosynth/targets.h"

namespace mhs::cosynth {

std::string ImplSelection::summary() const {
  std::ostringstream os;
  os << "impl select: " << (feasible ? "feasible" : "infeasible") << ", "
     << chosen.size() << " menus, weighted cycles "
     << fmt(total_weighted_cycles, 1) << ", area " << fmt(total_area, 1)
     << ", " << fmt(explored) << " nodes explored";
  return os.str();
}

ImplMenu build_impl_menu(const ir::Cdfg& kernel,
                         const hw::ComponentLibrary& lib,
                         std::size_t samples, double weight) {
  MHS_CHECK(samples >= 1, "menu needs at least one sample");
  ImplMenu menu;
  menu.task_name = kernel.name();
  menu.weight = weight;

  hw::HlsConstraints small;
  small.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult min_area = hw::synthesize(kernel, lib, small);
  menu.variants.push_back(ImplVariant{
      "min_area", min_area.area.total(),
      static_cast<double>(min_area.latency * samples)});

  hw::HlsConstraints fast;
  fast.goal = hw::HlsGoal::kMinLatency;
  const hw::HlsResult min_latency = hw::synthesize(kernel, lib, fast);
  menu.variants.push_back(ImplVariant{
      "min_latency", min_latency.area.total(),
      static_cast<double>(min_latency.latency * samples)});

  for (std::size_t ii = 1; ii <= min_area.latency; ii *= 2) {
    const hw::ModuloSchedule pipe = hw::modulo_schedule(kernel, lib, ii);
    menu.variants.push_back(ImplVariant{
        "pipelined_ii" + std::to_string(ii), pipe.area(lib),
        static_cast<double>(pipe.cycles_for(samples))});
  }
  return menu;
}

namespace {

struct SelectBnb {
  const std::vector<ImplMenu>& menus;
  double budget;
  /// Variant indices sorted by area ascending, per menu (for pruning).
  std::vector<double> min_area_suffix;  // sum of cheapest areas from depth i
  std::vector<double> best_cycles_suffix;  // optimistic remaining cycles

  std::vector<std::size_t> current;
  std::vector<std::size_t> best;
  double best_value = std::numeric_limits<double>::infinity();
  std::size_t explored = 0;

  void search(std::size_t depth, double area, double cycles) {
    ++explored;
    MHS_CHECK(explored < 20'000'000, "implementation selection exploded");
    if (area > budget + 1e-9) return;
    if (cycles + best_cycles_suffix[depth] >= best_value - 1e-12) return;
    if (area + min_area_suffix[depth] > budget + 1e-9) return;
    if (depth == menus.size()) {
      best_value = cycles;
      best = current;
      return;
    }
    const ImplMenu& menu = menus[depth];
    // Try faster (higher-area) variants first: good solutions early.
    std::vector<std::size_t> order(menu.variants.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return menu.variants[a].batch_cycles < menu.variants[b].batch_cycles;
    });
    for (const std::size_t v : order) {
      current[depth] = v;
      search(depth + 1, area + menu.variants[v].area,
             cycles + menu.weight * menu.variants[v].batch_cycles);
    }
  }
};

}  // namespace

ImplSelection detail::select_implementations(
    const std::vector<ImplMenu>& menus, double area_budget) {
  MHS_CHECK(area_budget >= 0.0, "negative area budget");
  for (const ImplMenu& menu : menus) {
    MHS_CHECK(!menu.variants.empty(),
              "menu for '" << menu.task_name << "' is empty");
    MHS_CHECK(menu.weight >= 0.0, "negative menu weight");
  }

  ImplSelection result;
  if (menus.empty()) {
    result.feasible = true;
    return result;
  }

  SelectBnb bnb{menus, area_budget, {}, {}, {}, {},
                std::numeric_limits<double>::infinity(), 0};
  const std::size_t n = menus.size();
  bnb.min_area_suffix.assign(n + 1, 0.0);
  bnb.best_cycles_suffix.assign(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double min_area = std::numeric_limits<double>::infinity();
    double min_cycles = std::numeric_limits<double>::infinity();
    for (const ImplVariant& v : menus[i].variants) {
      min_area = std::min(min_area, v.area);
      min_cycles = std::min(min_cycles, menus[i].weight * v.batch_cycles);
    }
    bnb.min_area_suffix[i] = bnb.min_area_suffix[i + 1] + min_area;
    bnb.best_cycles_suffix[i] = bnb.best_cycles_suffix[i + 1] + min_cycles;
  }
  bnb.current.assign(n, 0);
  bnb.search(0, 0.0, 0.0);

  result.explored = bnb.explored;
  if (bnb.best.empty() && n > 0 &&
      !std::isfinite(bnb.best_value)) {
    result.feasible = false;
    return result;
  }
  result.feasible = true;
  result.chosen = bnb.best;
  result.total_weighted_cycles = bnb.best_value;
  for (std::size_t i = 0; i < n; ++i) {
    result.total_area += menus[i].variants[result.chosen[i]].area;
  }
  return result;
}

}  // namespace mhs::cosynth
