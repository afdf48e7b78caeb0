#include "cosynth/periodic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cosynth/targets.h"
#include "opt/binpack.h"

namespace mhs::cosynth {

double utilization(const std::vector<PeriodicTask>& tasks) {
  double u = 0.0;
  for (const PeriodicTask& t : tasks) {
    MHS_CHECK(t.period > 0.0, "periodic task needs a positive period");
    MHS_CHECK(t.wcet >= 0.0, "negative wcet");
    u += t.wcet / t.period;
  }
  return u;
}

bool edf_feasible(const std::vector<PeriodicTask>& tasks) {
  return utilization(tasks) <= 1.0 + 1e-12;
}

double liu_layland_bound(std::size_t n) {
  MHS_CHECK(n >= 1, "bound needs at least one task");
  const double nn = static_cast<double>(n);
  return nn * (std::pow(2.0, 1.0 / nn) - 1.0);
}

double rm_response_time(const std::vector<PeriodicTask>& tasks,
                        std::size_t index) {
  MHS_CHECK(index < tasks.size(), "task index out of range");
  const PeriodicTask& task = tasks[index];
  double response = task.wcet;
  // Iterate to fixpoint; diverges when the response exceeds the period
  // (we stop there: the exact value beyond the deadline is irrelevant).
  for (int iter = 0; iter < 1000; ++iter) {
    double next = task.wcet;
    for (std::size_t j = 0; j < index; ++j) {
      next += std::ceil(response / tasks[j].period - 1e-12) *
              tasks[j].wcet;
    }
    if (std::abs(next - response) < 1e-9) return next;
    response = next;
    if (response > task.period * 8.0) break;  // clearly divergent
  }
  return std::numeric_limits<double>::infinity();
}

bool rm_feasible(std::vector<PeriodicTask> tasks) {
  if (tasks.empty()) return true;
  std::sort(tasks.begin(), tasks.end(),
            [](const PeriodicTask& a, const PeriodicTask& b) {
              return a.period < b.period;  // RM: shorter period first
            });
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (rm_response_time(tasks, i) > tasks[i].period + 1e-9) return false;
  }
  return true;
}

namespace {

/// Periodic task list of one PE instance in `design`.
std::vector<PeriodicTask> instance_tasks(const ir::TaskGraph& graph,
                                         const std::vector<PeType>& catalog,
                                         const MpDesign& design,
                                         std::size_t instance) {
  std::vector<PeriodicTask> tasks;
  for (const ir::TaskId t : graph.task_ids()) {
    if (design.assignment[t.index()] != instance) continue;
    const ir::Task& task = graph.task(t);
    MHS_CHECK(task.period > 0.0,
              "task '" << task.name << "' has no period");
    tasks.push_back(PeriodicTask{
        task.period,
        task.costs.sw_cycles *
            catalog[design.instance_type[instance]].slowdown});
  }
  return tasks;
}

}  // namespace

PeriodicAnalysis analyze_periodic(const ir::TaskGraph& graph,
                                  const std::vector<PeType>& catalog,
                                  const MpDesign& design) {
  PeriodicAnalysis analysis;
  analysis.rm_schedulable = true;
  analysis.edf_schedulable = true;
  for (std::size_t i = 0; i < design.instance_type.size(); ++i) {
    const auto tasks = instance_tasks(graph, catalog, design, i);
    analysis.pe_utilization.push_back(utilization(tasks));
    analysis.rm_schedulable = analysis.rm_schedulable && rm_feasible(tasks);
    analysis.edf_schedulable =
        analysis.edf_schedulable && edf_feasible(tasks);
  }
  return analysis;
}

MpDesign detail::synthesize_periodic(const ir::TaskGraph& graph,
                                     const std::vector<PeType>& catalog) {
  MHS_CHECK(!catalog.empty(), "empty PE catalog");
  for (const ir::TaskId t : graph.task_ids()) {
    MHS_CHECK(graph.task(t).period > 0.0,
              "task '" << graph.task(t).name << "' has no period");
  }

  MpDesign design;
  std::size_t effort = 0;
  for (double margin = 1.0; margin >= 0.05; margin -= 0.05) {
    ++effort;
    // Item size: reference utilization; bin capacity: margin / slowdown
    // (a slower PE offers proportionally less capacity).
    std::vector<opt::PackItem> items;
    for (const ir::TaskId t : graph.task_ids()) {
      items.push_back(opt::PackItem{
          {graph.task(t).costs.sw_cycles / graph.task(t).period},
          t.index()});
    }
    std::vector<opt::BinType> bins;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      bins.push_back(opt::BinType{
          {margin / catalog[i].slowdown}, catalog[i].cost, i});
    }
    const opt::PackResult packed = opt::first_fit_decreasing(items, bins);
    if (!packed.feasible) continue;

    MpDesign candidate;
    candidate.assignment.assign(graph.num_tasks(), SIZE_MAX);
    for (std::size_t b = 0; b < packed.bins.size(); ++b) {
      candidate.instance_type.push_back(packed.bins[b].type_key);
      for (const std::size_t key : packed.bins[b].item_keys) {
        candidate.assignment[key] = b;
      }
    }
    candidate.cost = 0.0;
    for (const std::size_t type : candidate.instance_type) {
      candidate.cost += catalog[type].cost;
    }
    candidate.effort = effort;
    const PeriodicAnalysis analysis =
        analyze_periodic(graph, catalog, candidate);
    if (analysis.rm_schedulable) {
      candidate.feasible = true;
      // Makespan is not meaningful for periodic sets; report the peak
      // utilization instead (scaled into the field for visibility).
      candidate.makespan = *std::max_element(
          analysis.pe_utilization.begin(), analysis.pe_utilization.end());
      return candidate;
    }
    design = candidate;  // remember the last RM-infeasible packing
  }
  design.feasible = false;
  design.effort = effort;
  return design;
}

}  // namespace mhs::cosynth
