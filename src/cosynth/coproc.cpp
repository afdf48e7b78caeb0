#include "cosynth/coproc.h"

#include <sstream>

#include "base/table.h"
#include "cosynth/targets.h"

namespace mhs::cosynth {

std::string CoprocDesign::summary() const {
  std::ostringstream os;
  os << partition.algorithm << ": " << partition.metrics.tasks_in_hw
     << " tasks in HW, latency " << fmt(latency(), 1) << " cyc ("
     << fmt(speedup(), 2) << "x over all-SW), area " << fmt(area(), 1)
     << ", " << fmt(partition.evaluations) << " evaluations";
  return os.str();
}

CoprocDesign detail::synthesize_coprocessor(
    const partition::CostModel& model, const partition::Objective& objective,
    CoprocStrategy strategy) {
  CoprocDesign design;
  design.partition = partition::run(strategy, model, objective);
  design.all_sw_latency =
      partition::run(partition::Strategy::kAllSw, model, objective)
          .metrics.latency_cycles;
  return design;
}

double validate_hw_area(const partition::CostModel& model,
                        const partition::Mapping& mapping,
                        const std::vector<const ir::Cdfg*>& kernels,
                        hw::HlsGoal goal) {
  MHS_CHECK(kernels.size() == mapping.size(),
            "kernel list size mismatches mapping");
  double total = 0.0;
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (!mapping[i] || kernels[i] == nullptr) continue;
    hw::HlsConstraints constraints;
    constraints.goal = goal;
    const hw::HlsResult impl =
        hw::synthesize(*kernels[i], model.library(), constraints);
    total += impl.area.total();
  }
  return total;
}

}  // namespace mhs::cosynth
