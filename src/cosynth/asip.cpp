#include "cosynth/asip.h"

#include <algorithm>
#include <sstream>

#include "base/table.h"
#include "cosynth/targets.h"
#include "opt/knapsack.h"

namespace mhs::cosynth {

const char* isa_feature_name(IsaFeature f) {
  switch (f) {
    case IsaFeature::kFastMul:      return "fast_mul";
    case IsaFeature::kFastDiv:      return "fast_div";
    case IsaFeature::kFastMem:      return "fast_mem";
    case IsaFeature::kBarrelShift:  return "barrel_shift";
    case IsaFeature::kNativeSelect: return "native_select";
    case IsaFeature::kMacFusion:    return "mac_fusion";
  }
  return "?";
}

double isa_feature_area(IsaFeature f) {
  switch (f) {
    case IsaFeature::kFastMul:      return 900.0;
    case IsaFeature::kFastDiv:      return 1500.0;
    case IsaFeature::kFastMem:      return 600.0;
    case IsaFeature::kBarrelShift:  return 150.0;
    case IsaFeature::kNativeSelect: return 220.0;
    case IsaFeature::kMacFusion:    return 400.0;
  }
  return 0.0;
}

namespace {

bool has(const std::vector<IsaFeature>& features, IsaFeature f) {
  return std::find(features.begin(), features.end(), f) != features.end();
}

sw::CpuModel apply_features(const sw::CpuModel& base,
                            const std::vector<IsaFeature>& features) {
  sw::CpuModel cpu = base;
  if (has(features, IsaFeature::kFastMul)) {
    cpu.mul_cycles = std::min<std::size_t>(cpu.mul_cycles, 1);
  }
  if (has(features, IsaFeature::kFastDiv)) {
    cpu.div_cycles = std::min<std::size_t>(cpu.div_cycles, 6);
  }
  if (has(features, IsaFeature::kFastMem)) {
    cpu.mem_cycles = std::min<std::size_t>(cpu.mem_cycles, 1);
  }
  // kBarrelShift / kNativeSelect / kMacFusion act at instruction-selection
  // level and are handled in cycles_with_features directly.
  return cpu;
}

}  // namespace

std::size_t count_mac_patterns(const ir::Cdfg& kernel) {
  const ir::UseIndex uses(kernel);
  std::size_t count = 0;
  for (const ir::OpId id : kernel.op_ids()) {
    if (kernel.op(id).kind != ir::OpKind::kMul) continue;
    const auto users = uses.users(id);
    if (users.size() == 1 &&
        kernel.op(users[0]).kind == ir::OpKind::kAdd) {
      ++count;
    }
  }
  return count;
}

double cycles_with_features(const ir::Cdfg& kernel, const sw::CpuModel& base,
                            const std::vector<IsaFeature>& features) {
  const sw::CpuModel cpu = apply_features(base, features);
  double cycles = sw::estimate_quick(kernel, cpu).cycles_per_iteration;

  const double alu = static_cast<double>(cpu.alu_cycles) * cpu.clock_scale;
  if (has(features, IsaFeature::kNativeSelect)) {
    // Expansions collapse to single instructions: select/min/max save their
    // extra ALU ops; abs saves four of its five.
    for (const ir::OpId id : kernel.op_ids()) {
      switch (kernel.op(id).kind) {
        case ir::OpKind::kSelect: cycles -= 1.0 * alu; break;
        case ir::OpKind::kMin:
        case ir::OpKind::kMax:    cycles -= 2.0 * alu; break;
        case ir::OpKind::kAbs:    cycles -= 4.0 * alu; break;
        default: break;
      }
    }
  }
  if (has(features, IsaFeature::kMacFusion)) {
    // Each fused pattern saves the trailing add.
    cycles -= static_cast<double>(count_mac_patterns(kernel)) * alu;
  }
  return std::max(cycles, 1.0);
}

namespace {

double weighted_cycles(const std::vector<WeightedKernel>& apps,
                       const sw::CpuModel& base,
                       const std::vector<IsaFeature>& features) {
  double total = 0.0;
  for (const WeightedKernel& app : apps) {
    MHS_CHECK(app.kernel != nullptr, "null kernel in application set");
    total += app.weight * cycles_with_features(*app.kernel, base, features);
  }
  return total;
}

}  // namespace

AsipDesign detail::synthesize_asip(const std::vector<WeightedKernel>& apps,
                                   const sw::CpuModel& base,
                                   double area_budget) {
  MHS_CHECK(!apps.empty(), "ASIP synthesis needs at least one application");
  AsipDesign design;
  design.base_cycles = weighted_cycles(apps, base, {});

  // Value of each feature alone. Features here are close to independent
  // (they accelerate disjoint instruction classes), so single-feature
  // savings compose additively and the knapsack is well-posed.
  std::vector<opt::KnapsackItem> items;
  for (std::size_t i = 0; i < std::size(kAllIsaFeatures); ++i) {
    const IsaFeature f = kAllIsaFeatures[i];
    const double with = weighted_cycles(apps, base, {f});
    const double saved = design.base_cycles - with;
    if (saved <= 0.0) continue;
    items.push_back(opt::KnapsackItem{isa_feature_area(f), saved, i});
  }
  const opt::KnapsackResult solution =
      opt::solve_knapsack(items, area_budget);
  for (const std::size_t key : solution.chosen_keys) {
    design.features.push_back(kAllIsaFeatures[key]);
  }
  design.area_used = solution.total_weight;
  design.asip_cycles = weighted_cycles(apps, base, design.features);
  return design;
}

ReconfigSfuDesign synthesize_sfu_reconfigurable(
    const std::vector<WeightedKernel>& apps, const sw::CpuModel& base,
    double area_budget, double reconfig_area_overhead) {
  MHS_CHECK(!apps.empty(), "SFU synthesis needs at least one application");
  MHS_CHECK(reconfig_area_overhead >= 1.0,
            "reconfiguration overhead factor must be >= 1");
  ReconfigSfuDesign design;
  design.per_app_feature.reserve(apps.size());
  double slot_area = 0.0;
  for (const WeightedKernel& app : apps) {
    MHS_CHECK(app.kernel != nullptr, "null kernel in application set");
    const double base_c =
        app.weight * cycles_with_features(*app.kernel, base, {});
    design.base_cycles += base_c;
    // Best single feature for this app that fits the (raw) budget.
    IsaFeature best = IsaFeature::kBarrelShift;
    double best_cycles = base_c;
    for (const IsaFeature f : kAllIsaFeatures) {
      if (isa_feature_area(f) * reconfig_area_overhead > area_budget) {
        continue;
      }
      const double c =
          app.weight * cycles_with_features(*app.kernel, base, {f});
      if (c < best_cycles) {
        best_cycles = c;
        best = f;
      }
    }
    design.per_app_feature.push_back(best);
    design.sfu_cycles += best_cycles;
    if (best_cycles < base_c) {
      slot_area = std::max(slot_area, isa_feature_area(best));
    }
  }
  design.area_used = slot_area * reconfig_area_overhead;
  return design;
}

std::string AsipDesign::summary() const {
  std::ostringstream os;
  os << "asip: " << features.size() << " ISA features [";
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (i > 0) os << " ";
    os << isa_feature_name(features[i]);
  }
  os << "], " << fmt(base_cycles, 1) << " -> " << fmt(asip_cycles, 1)
     << " weighted cyc (" << fmt(speedup(), 2) << "x), area "
     << fmt(area_used, 1);
  return os.str();
}

std::string ReconfigSfuDesign::summary() const {
  std::ostringstream os;
  os << "reconfigurable sfu: " << per_app_feature.size() << " apps, "
     << fmt(base_cycles, 1) << " -> " << fmt(sfu_cycles, 1)
     << " weighted cyc (" << fmt(speedup(), 2) << "x), area "
     << fmt(area_used, 1);
  return os.str();
}

}  // namespace mhs::cosynth
