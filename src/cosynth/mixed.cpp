#include "cosynth/mixed.h"

#include <algorithm>
#include <sstream>

#include "base/table.h"
#include "cosynth/targets.h"

namespace mhs::cosynth {

std::string MixedDesign::summary() const {
  std::ostringstream os;
  std::size_t in_hw = 0;
  for (const bool hw : mapping) in_hw += hw ? 1 : 0;
  os << "mixed type I/II: " << features.size() << " ISA features + "
     << in_hw << " offloaded tasks, latency " << fmt(latency_cycles, 1)
     << " cyc, area " << fmt(total_area(), 1) << " (isa "
     << fmt(isa_area, 1) << " + coproc " << fmt(coproc_area, 1) << ")";
  return os.str();
}

namespace {

/// Re-annotates software cycles for a given feature set: kernel-backed
/// tasks are re-estimated on the extended CPU; annotation-only tasks are
/// feature-independent.
ir::TaskGraph reannotate(const ir::TaskGraph& graph,
                         const std::vector<const ir::Cdfg*>& kernels,
                         const sw::CpuModel& base_cpu,
                         const std::vector<IsaFeature>& features) {
  ir::TaskGraph out = graph;
  for (const ir::TaskId t : out.task_ids()) {
    const ir::Cdfg* kernel = kernels[t.index()];
    if (kernel == nullptr) continue;
    out.task(t).costs.sw_cycles =
        cycles_with_features(*kernel, base_cpu, features);
  }
  return out;
}

/// Partitions `annotated` under a co-processor area budget (KL with a
/// dominating over-budget penalty) and trims greedily if the optimizer
/// still landed above the budget.
partition::PartitionResult partition_under_budget(
    const partition::CostModel& model, double coproc_budget) {
  partition::Objective objective;
  objective.latency_weight = 1.0;
  objective.area_weight = 1e-6;  // tie-break toward smaller hardware
  objective.area_budget = std::max(coproc_budget, 1e-9);
  objective.area_penalty_weight = 1e4;
  partition::PartitionResult result = partition::run(
      coproc_budget <= 0.0 ? partition::Strategy::kAllSw
                           : partition::Strategy::kKl,
      model, objective);

  // Enforce the budget strictly: evict the HW task with the smallest
  // latency damage until the shared-area estimate fits.
  while (model.hardware_area(result.mapping) > coproc_budget + 1e-9) {
    std::size_t best = SIZE_MAX;
    double best_latency = 0.0;
    for (std::size_t i = 0; i < result.mapping.size(); ++i) {
      if (!result.mapping[i]) continue;
      result.mapping[i] = false;
      const double latency =
          model.schedule_latency(result.mapping, true, true);
      result.mapping[i] = true;
      ++result.evaluations;
      if (best == SIZE_MAX || latency < best_latency) {
        best = i;
        best_latency = latency;
      }
    }
    MHS_ASSERT(best != SIZE_MAX, "budget trim found no HW task");
    result.mapping[best] = false;
  }
  result.metrics = model.evaluate(result.mapping, objective);
  return result;
}

MixedDesign evaluate_feature_subset(
    const ir::TaskGraph& graph, const std::vector<const ir::Cdfg*>& kernels,
    const sw::CpuModel& base_cpu, const hw::ComponentLibrary& lib,
    const std::vector<IsaFeature>& features, double silicon_budget,
    const partition::CommModel& comm, bool allow_offload) {
  double isa_area = 0.0;
  for (const IsaFeature f : features) isa_area += isa_feature_area(f);

  MixedDesign design;
  design.features = features;
  design.isa_area = isa_area;

  const ir::TaskGraph annotated =
      reannotate(graph, kernels, base_cpu, features);
  const partition::CostModel model(annotated, lib, comm);
  if (allow_offload) {
    const partition::PartitionResult r =
        partition_under_budget(model, silicon_budget - isa_area);
    design.mapping = r.mapping;
    design.partition_evaluations = r.evaluations;
  } else {
    design.mapping.assign(graph.num_tasks(), false);
  }
  design.coproc_area = model.hardware_area(design.mapping);
  design.latency_cycles = model.schedule_latency(design.mapping, true, true);
  return design;
}

}  // namespace

MixedDesign detail::synthesize_mixed(
    const ir::TaskGraph& graph, const std::vector<const ir::Cdfg*>& kernels,
    const sw::CpuModel& base_cpu, const hw::ComponentLibrary& lib,
    double silicon_budget, const partition::CommModel& comm) {
  MHS_CHECK(kernels.size() == graph.num_tasks(),
            "one kernel slot per task required");
  MHS_CHECK(silicon_budget >= 0.0, "negative silicon budget");

  MixedDesign best;
  bool have_best = false;
  std::size_t tried = 0;
  std::size_t evals = 0;

  const std::size_t num_features = std::size(kAllIsaFeatures);
  for (std::uint32_t bits = 0; bits < (1u << num_features); ++bits) {
    std::vector<IsaFeature> features;
    double isa_area = 0.0;
    for (std::size_t i = 0; i < num_features; ++i) {
      if ((bits >> i) & 1) {
        features.push_back(kAllIsaFeatures[i]);
        isa_area += isa_feature_area(kAllIsaFeatures[i]);
      }
    }
    if (isa_area > silicon_budget + 1e-9) continue;
    ++tried;
    MixedDesign candidate =
        evaluate_feature_subset(graph, kernels, base_cpu, lib, features,
                                silicon_budget, comm, /*allow_offload=*/true);
    evals += candidate.partition_evaluations;
    if (!have_best || candidate.latency_cycles < best.latency_cycles - 1e-9 ||
        (std::abs(candidate.latency_cycles - best.latency_cycles) <= 1e-9 &&
         candidate.total_area() < best.total_area())) {
      best = std::move(candidate);
      have_best = true;
    }
  }
  MHS_ASSERT(have_best, "empty feature subset must always be feasible");
  best.feature_subsets_tried = tried;
  best.partition_evaluations = evals;
  return best;
}

MixedDesign synthesize_pure_type1(const ir::TaskGraph& graph,
                                  const std::vector<const ir::Cdfg*>& kernels,
                                  const sw::CpuModel& base_cpu,
                                  const hw::ComponentLibrary& lib,
                                  double silicon_budget,
                                  const partition::CommModel& comm) {
  MHS_CHECK(kernels.size() == graph.num_tasks(),
            "one kernel slot per task required");
  MixedDesign best;
  bool have_best = false;
  std::size_t tried = 0;
  const std::size_t num_features = std::size(kAllIsaFeatures);
  for (std::uint32_t bits = 0; bits < (1u << num_features); ++bits) {
    std::vector<IsaFeature> features;
    double isa_area = 0.0;
    for (std::size_t i = 0; i < num_features; ++i) {
      if ((bits >> i) & 1) {
        features.push_back(kAllIsaFeatures[i]);
        isa_area += isa_feature_area(kAllIsaFeatures[i]);
      }
    }
    if (isa_area > silicon_budget + 1e-9) continue;
    ++tried;
    MixedDesign candidate = evaluate_feature_subset(
        graph, kernels, base_cpu, lib, features, silicon_budget, comm,
        /*allow_offload=*/false);
    if (!have_best || candidate.latency_cycles < best.latency_cycles - 1e-9) {
      best = std::move(candidate);
      have_best = true;
    }
  }
  best.feature_subsets_tried = tried;
  return best;
}

MixedDesign synthesize_pure_type2(const ir::TaskGraph& graph,
                                  const std::vector<const ir::Cdfg*>& kernels,
                                  const sw::CpuModel& base_cpu,
                                  const hw::ComponentLibrary& lib,
                                  double silicon_budget,
                                  const partition::CommModel& comm) {
  MHS_CHECK(kernels.size() == graph.num_tasks(),
            "one kernel slot per task required");
  return evaluate_feature_subset(graph, kernels, base_cpu, lib, {},
                                 silicon_budget, comm,
                                 /*allow_offload=*/true);
}

}  // namespace mhs::cosynth
