// Experiment E10 (paper §3.3): ablation of the partitioning factors.
// Each §3.3 consideration is removed from the objective the optimizer
// sees; the resulting partitions are then scored under the FULL model.
// Reproduced shapes:
//  * ignoring communication scatters tasks across the boundary and costs
//    true latency on traffic-heavy workloads;
//  * ignoring concurrency misprices hardware on parallel workloads;
//  * ignoring modifiability freezes change-prone functions in hardware.
//
// It also times the cost model every search scores its moves with:
// partition.evaluations_per_s is the median evaluation rate over
// repeated passes of the search strategies, gated by the tier-2
// bench_partition_gate against
// bench/baselines/bench_factors_ablation_baseline.json.
#include <iostream>
#include <vector>

#include "base/stats.h"
#include "bench_util.h"
#include "ir/task_graph_gen.h"
#include "partition/algorithms.h"

namespace mhs {
namespace {

/// Median cost-model evaluations per wall second: one warm-up pass, then
/// kPasses timed passes, each running annealed, KL, hot-spot and unload
/// on a seeded 32-task layered graph over an uncached model.
double evaluations_per_s() {
  constexpr int kPasses = 15;
  Rng rng(32);
  ir::TaskGraphGenConfig gen;
  gen.num_tasks = 32;
  const ir::TaskGraph g = ir::generate_task_graph(gen, rng);
  const partition::CostModel model(g, hw::default_library());
  partition::Objective objective;
  objective.area_weight = 0.02;
  objective.latency_target = 0.5 * g.total_sw_cycles();
  std::vector<double> rates;
  for (int pass = 0; pass <= kPasses; ++pass) {
    const obs::Stopwatch watch;
    std::size_t evaluations = 0;
    for (const partition::Strategy s :
         {partition::Strategy::kAnnealed, partition::Strategy::kKl,
          partition::Strategy::kHotSpot, partition::Strategy::kUnload}) {
      evaluations += partition::run(s, model, objective).evaluations;
    }
    if (pass > 0) {
      rates.push_back(static_cast<double>(evaluations) /
                      (watch.elapsed_us() / 1e6));
    }
  }
  return quantile(rates, 0.5);
}

void run() {
  bench::Reporter rep("bench_factors_ablation",
                      "E10: partitioning-factor ablation (§3.3)");

  const double rate = evaluations_per_s();
  std::cout << "cost-model evaluations/s (median of passes): "
            << fmt(rate, 0) << "\n";
  rep.metric("partition.evaluations_per_s", rate, "evaluations/s",
             bench::Direction::kHigherIsBetter);

  Rng rng(28);
  ir::TaskGraphGenConfig gen;
  gen.shape = ir::GraphShape::kPipeline;  // every cut crosses traffic
  gen.num_tasks = 16;
  gen.mean_edge_bytes = 2500.0;  // communication-heavy
  const ir::TaskGraph g = ir::generate_task_graph(gen, rng);
  const partition::CostModel model(g, hw::default_library());

  // An area budget of ~40% of the all-hardware area forces a genuine
  // partition, so the factor weights actually steer which tasks cross.
  partition::Objective sizing;
  const double all_hw_area =
      partition::run(partition::Strategy::kAllHw, model, sizing)
          .metrics.hw_area;

  partition::Objective full;
  full.area_weight = 0.02;
  full.modifiability_weight = 0.08;
  full.area_budget = 0.4 * all_hw_area;
  full.area_penalty_weight = 100.0;

  struct Variant {
    const char* name;
    partition::Objective objective;
  };
  std::vector<Variant> variants;
  variants.push_back({"full model", full});
  {
    partition::Objective o = full;
    o.consider_communication = false;
    variants.push_back({"no communication", o});
  }
  {
    partition::Objective o = full;
    o.consider_concurrency = false;
    variants.push_back({"no concurrency", o});
  }
  {
    partition::Objective o = full;
    o.consider_modifiability = false;
    variants.push_back({"no modifiability", o});
  }

  TextTable table({"optimizer sees", "tasks in HW", "boundary cut edges",
                   "true latency", "true energy", "cross comm",
                   "modifiability penalty"});
  double full_latency = 0.0, blind_latency = 0.0;
  double full_energy = 0.0;
  bool full_is_best_energy = true;
  double full_mod = 0.0, nomod_mod = 0.0;
  for (const Variant& v : variants) {
    const partition::PartitionResult r =
        partition::run(partition::Strategy::kKl, model, v.objective);
    // Score under the FULL model regardless of what the optimizer saw.
    const partition::Metrics m = model.evaluate(r.mapping, full);
    std::size_t cut = 0;
    for (const ir::EdgeId e : g.edge_ids()) {
      if (r.mapping[g.edge(e).src.index()] !=
          r.mapping[g.edge(e).dst.index()]) {
        ++cut;
      }
    }
    table.add_row({v.name, fmt(m.tasks_in_hw), fmt(cut),
                   fmt(m.latency_cycles, 0), fmt(m.energy, 0),
                   fmt(m.cross_comm_cycles, 0),
                   fmt(m.modifiability_penalty, 0)});
    if (std::string(v.name) == "full model") {
      full_latency = m.latency_cycles;
      full_energy = m.energy;
      full_mod = m.modifiability_penalty;
    }
    if (std::string(v.name) == "no communication") {
      blind_latency = m.latency_cycles;
    }
    if (std::string(v.name) == "no modifiability") {
      nomod_mod = m.modifiability_penalty;
    }
    if (std::string(v.name) != "full model") {
      full_is_best_energy = full_is_best_energy && full_energy <= m.energy + 1e-9;
    }
  }
  std::cout << table;

  // ---- Second workload: the concurrency factor ---------------------------
  // A wide fork-join whose tasks gain little from hardware *individually*
  // (speedups of 1.05–1.6) but a lot *collectively* (branches overlap).
  // An optimizer that cannot see intra-co-processor concurrency treats
  // the co-processor as one serial unit and underbuys hardware.
  Rng rng2(3);
  ir::TaskGraphGenConfig gen2;
  gen2.shape = ir::GraphShape::kForkJoin;
  gen2.num_tasks = 14;
  gen2.mean_edge_bytes = 64.0;
  gen2.min_hw_speedup = 1.05;
  gen2.max_hw_speedup = 1.6;
  const ir::TaskGraph g2 = ir::generate_task_graph(gen2, rng2);
  const partition::CostModel model2(g2, hw::default_library());
  partition::Objective full2;
  full2.area_weight = 0.02;
  full2.area_budget =
      0.9 * partition::run(partition::Strategy::kAllHw, model2, full2)
                .metrics.hw_area;
  full2.area_penalty_weight = 100.0;
  partition::Objective blind2 = full2;
  blind2.consider_concurrency = false;

  TextTable table2({"optimizer sees", "tasks in HW", "true latency",
                    "true energy"});
  const partition::PartitionResult rf2 =
      partition::run(partition::Strategy::kKl, model2, full2);
  const partition::PartitionResult rb2 =
      partition::run(partition::Strategy::kKl, model2, blind2);
  const partition::Metrics mf2 = model2.evaluate(rf2.mapping, full2);
  const partition::Metrics mb2 = model2.evaluate(rb2.mapping, full2);
  table2.add_row({"full model", fmt(mf2.tasks_in_hw),
                  fmt(mf2.latency_cycles, 0), fmt(mf2.energy, 0)});
  table2.add_row({"no concurrency", fmt(mb2.tasks_in_hw),
                  fmt(mb2.latency_cycles, 0), fmt(mb2.energy, 0)});
  std::cout << "\nfork-join workload (concurrency factor):\n" << table2;

  rep.claim(
      "each §3.3 factor matters on the workload that stresses it: the "
      "comm-blind optimizer scatters a pipeline, the concurrency-blind "
      "one underbuys hardware for a fork-join, the modifiability-blind "
      "one freezes change-prone code",
      full_is_best_energy && full_latency <= blind_latency + 1e-9 &&
          full_mod <= nomod_mod + 1e-9 &&
          mb2.latency_cycles > mf2.latency_cycles * 1.2);
}

}  // namespace
}  // namespace mhs

int main() {
  mhs::run();
  return 0;
}
