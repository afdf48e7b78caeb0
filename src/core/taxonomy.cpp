#include "core/taxonomy.h"

#include <sstream>

#include "base/table.h"

namespace mhs::core {

const char* system_type_name(SystemType type) {
  switch (type) {
    case SystemType::kTypeI:  return "Type I";
    case SystemType::kTypeII: return "Type II";
    case SystemType::kMixed:  return "Mixed";
  }
  return "?";
}

const char* design_task_name(DesignTask task) {
  switch (task) {
    case DesignTask::kCoSimulation: return "co-simulation";
    case DesignTask::kCoSynthesis:  return "co-synthesis";
    case DesignTask::kPartitioning: return "partitioning";
  }
  return "?";
}

const char* partition_factor_name(PartitionFactor factor) {
  switch (factor) {
    case PartitionFactor::kPerformance:         return "performance";
    case PartitionFactor::kImplementationCost:  return "cost";
    case PartitionFactor::kModifiability:       return "modifiability";
    case PartitionFactor::kNatureOfComputation: return "computation";
    case PartitionFactor::kConcurrency:         return "concurrency";
    case PartitionFactor::kCommunication:       return "communication";
  }
  return "?";
}

const std::vector<ApproachProfile>& surveyed_approaches() {
  using enum DesignTask;
  using enum PartitionFactor;
  static const std::vector<ApproachProfile> kApproaches = [] {
    std::vector<ApproachProfile> v;

    v.push_back({"Becker/Singh/Tell co-simulation", "[4]",
                 SystemType::kTypeI,
                 {kCoSimulation},
                 sim::InterfaceLevel::kPin,
                 {},
                 "sim::run(kAccelerator, kPin)",
                 "Fig. 4"});
    v.push_back({"Thomas/Adams/Schmit methodology", "[2]",
                 SystemType::kTypeII,
                 {kCoSimulation},
                 sim::InterfaceLevel::kMessage,
                 {},
                 "sim::run(kProcess)",
                 "Fig. 9"});
    v.push_back({"Coumeri/Thomas simulation environment", "[3]",
                 SystemType::kTypeII,
                 {kCoSimulation},
                 sim::InterfaceLevel::kMessage,
                 {},
                 "sim::run(kProcess)",
                 "Fig. 9"});
    v.push_back({"Chinook", "[11]",
                 SystemType::kTypeI,
                 {kCoSimulation, kCoSynthesis},
                 sim::InterfaceLevel::kDriver,
                 {},
                 "cosynth::run(Target::kInterface)",
                 "Fig. 4"});
    v.push_back({"Prakash/Parker SOS (ILP)", "[12]",
                 SystemType::kTypeI,
                 {kCoSynthesis},
                 std::nullopt,
                 {},
                 "cosynth::synthesize_exact",
                 "Fig. 5"});
    v.push_back({"Beck vector bin packing", "[13]",
                 SystemType::kTypeI,
                 {kCoSynthesis},
                 std::nullopt,
                 {},
                 "cosynth::synthesize_binpack",
                 "Fig. 5"});
    v.push_back({"Yen/Wolf sensitivity-driven", "[9]",
                 SystemType::kTypeI,
                 {kCoSynthesis},
                 std::nullopt,
                 {},
                 "cosynth::synthesize_sensitivity",
                 "Fig. 5"});
    v.push_back({"PEAS-I ASIP", "[14]",
                 SystemType::kTypeI,
                 {kCoSynthesis, kPartitioning},
                 std::nullopt,
                 {kPerformance, kImplementationCost, kModifiability},
                 "cosynth::run(Target::kAsip)",
                 "Fig. 6"});
    v.push_back({"PRISM instruction-set metamorphosis", "[15]",
                 SystemType::kTypeI,
                 {kCoSynthesis, kPartitioning},
                 std::nullopt,
                 {kPerformance, kImplementationCost, kNatureOfComputation},
                 "cosynth::synthesize_sfu_reconfigurable",
                 "Fig. 7"});
    v.push_back({"Gupta/De Micheli co-synthesis", "[6]",
                 SystemType::kTypeII,
                 {kCoSynthesis, kPartitioning},
                 std::nullopt,
                 {kPerformance, kImplementationCost},
                 "cosynth::run(Target::kCoprocessor, kUnload)",
                 "Fig. 8"});
    v.push_back({"Henkel/Ernst adaptive partitioning", "[17]",
                 SystemType::kTypeII,
                 {kCoSynthesis, kPartitioning},
                 std::nullopt,
                 {kPerformance, kImplementationCost},
                 "cosynth::run(Target::kCoprocessor, kHotSpot)",
                 "Fig. 8"});
    v.push_back({"Vahid/Gajski spec refinement", "[16][18]",
                 SystemType::kTypeII,
                 {kCoSynthesis, kPartitioning},
                 std::nullopt,
                 {kPerformance, kImplementationCost, kConcurrency},
                 "partition::run(kKl) scoring one-task moves on "
                 "partition::CostModel::Walk",
                 "Fig. 8"});
    v.push_back({"Adams/Thomas multiple-process synthesis", "[10]",
                 SystemType::kTypeII,
                 {kCoSynthesis, kPartitioning},
                 std::nullopt,
                 {kPerformance, kImplementationCost, kNatureOfComputation,
                  kConcurrency, kCommunication},
                 "cosynth::mt_partition_concurrency_aware",
                 "Fig. 9"});
    v.push_back({"Kalavade/Lee GCLP (DSP methodology)", "[5]",
                 SystemType::kTypeII,
                 {kCoSimulation, kCoSynthesis, kPartitioning},
                 sim::InterfaceLevel::kRegister,
                 {kPerformance, kImplementationCost, kCommunication},
                 "partition::run(Strategy::kGclp)",
                 "Fig. 8"});
    return v;
  }();
  return kApproaches;
}

std::string comparison_table() {
  TextTable table({"approach", "cite", "type", "tasks", "cosim level",
                   "partition factors", "mhs implementation"});
  for (const ApproachProfile& a : surveyed_approaches()) {
    std::ostringstream tasks;
    for (const DesignTask t : a.tasks) {
      if (tasks.tellp() > 0) tasks << "+";
      tasks << design_task_name(t);
    }
    std::ostringstream factors;
    for (const PartitionFactor f : a.factors) {
      if (factors.tellp() > 0) factors << ",";
      factors << partition_factor_name(f);
    }
    table.add_row({a.name, a.citation, system_type_name(a.system_type),
                   tasks.str(),
                   a.cosim_level ? sim::interface_level_name(*a.cosim_level)
                                 : "-",
                   factors.str().empty() ? "-" : factors.str(),
                   a.mhs_module});
  }
  return table.str();
}

std::set<std::set<DesignTask>> covered_task_subsets() {
  std::set<std::set<DesignTask>> covered;
  for (const ApproachProfile& a : surveyed_approaches()) {
    covered.insert(a.tasks);
  }
  return covered;
}

}  // namespace mhs::core
