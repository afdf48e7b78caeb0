// Experiment E7 (paper Figure 7 / §4.4): special-purpose functional
// units, static vs. field-reprogrammable (PRISM [15] style).
//
// Reproduced shape: when a device runs several applications whose hot
// spots want *different* functional units, a reprogrammable FU slot
// approaches the performance of per-application custom hardware at a
// fraction of the static-area cost — "the HW/SW partition need not be
// static and could be adapted on the fly".
#include <iostream>

#include "apps/kernels.h"
#include "bench_util.h"
#include "cosynth/run.h"

namespace mhs {
namespace {

void run() {
  bench::Reporter rep("bench_fig7_sfu",
                      "E7: special-purpose FUs: static vs reconfigurable "
                      "(Fig. 7, §4.4)");

  // Two applications whose hot spots want the two most expensive units:
  // the DCT wants the fast multiplier (area 900), the division chain the
  // fast divider (area 1500). A mid-range budget cannot hold both units
  // statically, but one field-reprogrammable slot can serve either app by
  // being reconfigured between runs — the PRISM scenario.
  ir::Cdfg divs("div_chain");
  {
    ir::OpId v = divs.input("a");
    for (int i = 0; i < 12; ++i) {
      v = divs.binary(ir::OpKind::kDiv, v,
                      divs.input("d" + std::to_string(i)));
    }
    divs.output("y", v);
  }
  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());  // wants fast multiplier
  storage.push_back(std::move(divs));      // wants fast divider
  const std::vector<cosynth::WeightedKernel> apps_set = {
      {&storage[0], 1.0, "dct8"},
      {&storage[1], 3.0, "div_chain"},
  };
  const sw::CpuModel base = sw::reference_cpu();

  TextTable table(
      {"budget", "style", "speedup", "area used", "per-app detail"});
  bool reconfig_wins_somewhere = false;
  for (const double budget : {900.0, 1500.0, 2000.0, 2600.0, 4000.0}) {
    cosynth::Request request;
    request.apps = apps_set;
    request.cpu = base;
    request.area_budget = budget;
    const cosynth::AsipDesign fixed =
        *cosynth::run(cosynth::Target::kAsip, request).asip;
    const cosynth::ReconfigSfuDesign flexible =
        cosynth::synthesize_sfu_reconfigurable(apps_set, base, budget);

    std::string detail;
    for (std::size_t i = 0; i < apps_set.size(); ++i) {
      if (!detail.empty()) detail += " ";
      detail += apps_set[i].name + "->" +
                cosynth::isa_feature_name(flexible.per_app_feature[i]);
    }
    table.add_row({fmt(budget, 0), "static",
                   fmt(fixed.speedup(), 3), fmt(fixed.area_used, 0),
                   "shared set: " +
                       std::string(fixed.features.empty() ? "-" : "")});
    table.add_row({fmt(budget, 0), "reconfigurable",
                   fmt(flexible.speedup(), 3),
                   fmt(flexible.area_used, 0), detail});
    if (flexible.speedup() > fixed.speedup() + 1e-9) {
      reconfig_wins_somewhere = true;
    }
  }
  std::cout << table;
  rep.claim(
      "under tight budgets the reprogrammable slot outperforms any "
      "affordable static FU set on a multi-application workload",
      reconfig_wins_somewhere);
}

}  // namespace
}  // namespace mhs

int main() {
  mhs::run();
  return 0;
}
