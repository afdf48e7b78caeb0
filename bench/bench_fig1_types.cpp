// Experiment E1 (paper Figure 1 / §2): Type I vs. Type II systems.
// The paper argues that a physical (Type II) HW/SW boundary that can be
// moved exposes "a greater set of HW/SW trade-offs" than a fixed logical
// (Type I) boundary. We chart both design spaces for the same application:
//   Type I  — the boundary is fixed (everything is software); the designer
//             only picks the processor from a catalog.
//   Type II — a co-processor may absorb any subset of tasks; we sweep the
//             area budget and partition with KL.
// The Pareto fronts (system cost vs. latency) and their hypervolumes
// quantify the richness of each space.
#include <iostream>

#include "apps/workloads.h"
#include "bench_util.h"
#include "opt/pareto.h"
#include "partition/algorithms.h"
#include "sw/cpu_model.h"

namespace mhs {
namespace {

void run() {
  bench::Reporter rep("bench_fig1_types",
                      "E1: Type I vs Type II trade-off spaces (Fig. 1)");
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const partition::CostModel model(g, hw::default_library());
  const double all_sw_latency = g.total_sw_cycles();

  // ---- Type I: fixed boundary, variable processor ------------------------
  std::vector<std::vector<double>> type1;
  TextTable t1({"processor", "cost", "latency (cyc)"});
  for (const sw::CpuModel& cpu : sw::processor_catalog()) {
    const double latency = all_sw_latency * cpu.clock_scale;
    t1.add_row({cpu.name, fmt(cpu.cost, 0), fmt(latency, 0)});
    type1.push_back({cpu.cost, latency});
  }
  std::cout << "Type I design space (CPU choice only):\n" << t1;

  // ---- Type II: movable boundary on the reference CPU --------------------
  // Sweep the performance requirement: each target traces one point of
  // the cost/latency curve as the hot-spot partitioner buys just enough
  // hardware to meet it.
  std::vector<std::vector<double>> type2;
  TextTable t2({"latency target", "tasks in HW", "system cost",
                "latency (cyc)", "cross comm (cyc)"});
  const double cpu_cost = 1000.0;  // reference CPU price
  for (const double fraction :
       {1.0, 0.8, 0.6, 0.45, 0.3, 0.2, 0.12, 0.08}) {
    partition::Objective obj;
    obj.area_weight = 0.01;
    obj.latency_target = all_sw_latency * fraction;
    const partition::PartitionResult r = partition::run(
        fraction == 1.0 ? partition::Strategy::kAllSw
                        : partition::Strategy::kHotSpot,
        model, obj);
    t2.add_row({fmt(obj.latency_target, 0), fmt(r.metrics.tasks_in_hw),
                fmt(cpu_cost + r.metrics.hw_area, 0),
                fmt(r.metrics.latency_cycles, 0),
                fmt(r.metrics.cross_comm_cycles, 0)});
    type2.push_back({cpu_cost + r.metrics.hw_area, r.metrics.latency_cycles});
  }
  std::cout << "Type II design space (movable boundary):\n" << t2;

  const double ref_cost = 40000.0;
  const double ref_lat = 4.0 * all_sw_latency;
  const auto front1 = opt::pareto(type1);
  const auto front2 = opt::pareto(type2);
  const double hv1 = opt::hypervolume(type1, ref_cost, ref_lat);
  const double hv2 = opt::hypervolume(type2, ref_cost, ref_lat);

  TextTable summary({"space", "pareto points", "hypervolume"});
  summary.add_row({"Type I", fmt(front1.size()), fmt(hv1, 0)});
  summary.add_row({"Type II", fmt(front2.size()), fmt(hv2, 0)});
  std::cout << summary;

  rep.metric("type1_pareto_points", static_cast<double>(front1.size()),
             "points");
  rep.metric("type2_pareto_points", static_cast<double>(front2.size()),
             "points", bench::Direction::kHigherIsBetter);
  rep.metric("type1_hypervolume", hv1, "cost*cycles");
  rep.metric("type2_hypervolume", hv2, "cost*cycles",
             bench::Direction::kHigherIsBetter);
  rep.claim(
      "a movable Type II boundary yields a denser Pareto front than "
      "processor choice alone",
      front2.size() >= front1.size() && hv2 > 0.0);
}

}  // namespace
}  // namespace mhs

int main() {
  mhs::run();
  return 0;
}
