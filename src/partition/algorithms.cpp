#include "partition/algorithms.h"

#include <algorithm>
#include <limits>

#include "ir/task_graph_algos.h"
#include "obs/obs.h"

namespace mhs::partition {

namespace {

PartitionResult finish(std::string name, const CostModel& model,
                       const Objective& objective, Mapping mapping,
                       std::size_t evaluations) {
  PartitionResult r;
  r.algorithm = std::move(name);
  r.metrics = model.evaluate(mapping, objective);
  r.mapping = std::move(mapping);
  r.evaluations = evaluations + 1;
  return r;
}

/// Metrics of the walk's mapping with task t on the other side; leaves
/// the walk where it was.
Metrics score_flipped(CostModel::Walk& walk, std::size_t t) {
  walk.flip(t);
  const Metrics m = walk.score();
  walk.flip(t);
  return m;
}

}  // namespace

static PartitionResult all_sw_impl(const CostModel& model,
                                   const Objective& objective) {
  return finish("all_sw", model, objective,
                Mapping(model.graph().num_tasks(), false), 0);
}

static PartitionResult all_hw_impl(const CostModel& model,
                                   const Objective& objective) {
  return finish("all_hw", model, objective,
                Mapping(model.graph().num_tasks(), true), 0);
}

static PartitionResult hot_spot_impl(const CostModel& model,
                                     const Objective& objective) {
  MHS_CHECK(objective.latency_target > 0.0,
            "hot_spot partitioning needs a latency target");
  const std::size_t n = model.graph().num_tasks();
  CostModel::Walk walk(model, objective, Mapping(n, false));
  std::size_t evals = 0;

  Metrics current = walk.score();
  ++evals;
  while (current.latency_cycles > objective.latency_target) {
    // Candidate: SW task whose move to HW buys the most latency per area.
    std::size_t best = SIZE_MAX;
    double best_ratio = 0.0;
    Metrics best_metrics;
    for (std::size_t t = 0; t < n; ++t) {
      if (walk.mapping()[t]) continue;
      const Metrics m = score_flipped(walk, t);
      ++evals;
      const double gain = current.latency_cycles - m.latency_cycles;
      const double added_area = std::max(1e-9, m.hw_area - current.hw_area);
      const double ratio = gain / added_area;
      if (gain > 1e-9 && ratio > best_ratio) {
        best_ratio = ratio;
        best = t;
        best_metrics = m;
      }
    }
    if (best == SIZE_MAX) break;  // no move reduces latency: stuck
    walk.flip(best);
    current = best_metrics;
  }
  return finish("hot_spot", model, objective, walk.mapping(), evals);
}

static PartitionResult unload_impl(const CostModel& model,
                                   const Objective& objective) {
  MHS_CHECK(objective.latency_target > 0.0,
            "unload partitioning needs a latency target");
  const std::size_t n = model.graph().num_tasks();
  CostModel::Walk walk(model, objective, Mapping(n, true));
  std::size_t evals = 0;

  Metrics current = walk.score();
  ++evals;
  bool improved = true;
  while (improved) {
    improved = false;
    std::size_t best = SIZE_MAX;
    double best_saving = 0.0;
    Metrics best_metrics;
    for (std::size_t t = 0; t < n; ++t) {
      if (!walk.mapping()[t]) continue;
      const Metrics m = score_flipped(walk, t);
      ++evals;
      if (m.latency_cycles > objective.latency_target) continue;
      const double saving = current.hw_area - m.hw_area;
      if (saving > best_saving + 1e-9) {
        best_saving = saving;
        best = t;
        best_metrics = m;
      }
    }
    if (best != SIZE_MAX) {
      walk.flip(best);
      current = best_metrics;
      improved = true;
    }
  }
  return finish("unload", model, objective, walk.mapping(), evals);
}

static PartitionResult kl_impl(const CostModel& model,
                               const Objective& objective, Mapping start) {
  const std::size_t n = model.graph().num_tasks();
  if (start.empty()) start.assign(n, false);
  MHS_CHECK(start.size() == n, "start mapping size mismatch");
  CostModel::Walk walk(model, objective, std::move(start));
  std::size_t evals = 0;

  double current = walk.score().energy;
  ++evals;
  bool pass_improved = true;
  std::size_t passes = 0;
  while (pass_improved && passes < 24) {
    ++passes;
    pass_improved = false;
    std::vector<bool> locked(n, false);
    std::vector<std::size_t> move_seq;
    std::vector<double> energy_seq;

    // Greedy sequence of best single-task flips with locking.
    for (std::size_t step = 0; step < n; ++step) {
      std::size_t best = SIZE_MAX;
      double best_energy = std::numeric_limits<double>::infinity();
      for (std::size_t t = 0; t < n; ++t) {
        if (locked[t]) continue;
        const double e = score_flipped(walk, t).energy;
        ++evals;
        if (e < best_energy) {
          best_energy = e;
          best = t;
        }
      }
      if (best == SIZE_MAX) break;
      walk.flip(best);
      locked[best] = true;
      move_seq.push_back(best);
      energy_seq.push_back(best_energy);
    }

    // Roll back to the best prefix of the move sequence.
    std::size_t best_prefix = 0;
    double best_energy = current;
    for (std::size_t k = 0; k < energy_seq.size(); ++k) {
      if (energy_seq[k] < best_energy - 1e-12) {
        best_energy = energy_seq[k];
        best_prefix = k + 1;
      }
    }
    for (std::size_t k = move_seq.size(); k > best_prefix; --k) {
      walk.flip(move_seq[k - 1]);
    }
    if (best_prefix > 0) {
      current = best_energy;
      pass_improved = true;
    }
  }
  return finish("kl", model, objective, walk.mapping(), evals);
}

static PartitionResult annealed_impl(const CostModel& model,
                                     const Objective& objective,
                                     const opt::AnnealConfig& anneal_config) {
  const std::size_t n = model.graph().num_tasks();
  MHS_CHECK(n > 0, "cannot partition an empty graph");
  CostModel::Walk walk(model, objective, Mapping(n, false));
  Mapping best = walk.mapping();
  std::size_t evals = 0;
  double energy = walk.score().energy;
  ++evals;

  // Scale the initial temperature to a few percent of the problem's
  // energy magnitude: hot enough to cross barriers from single-task
  // flips, cold enough to settle within the configured schedule.
  opt::AnnealConfig cfg = anneal_config;
  cfg.initial_temperature = std::max(1e-6, std::abs(energy)) * 0.05 *
                            anneal_config.initial_temperature;

  std::size_t last_flip = 0;
  double current_energy = energy;
  double previous_energy = energy;
  opt::anneal(
      cfg, energy,
      /*propose=*/
      [&](Rng& rng) {
        last_flip = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        walk.flip(last_flip);
        const double e = walk.score().energy;
        ++evals;
        const double delta = e - current_energy;
        previous_energy = current_energy;
        current_energy = e;
        return delta;
      },
      /*undo=*/
      [&] {
        // Back on the mapping held before the move, whose energy was
        // saved; the restore counts as the evaluation it stands for.
        walk.flip(last_flip);
        ++evals;
        current_energy = previous_energy;
      },
      /*commit_best=*/[&] { best = walk.mapping(); });
  return finish("annealed", model, objective, std::move(best), evals);
}

static PartitionResult gclp_impl(const CostModel& model,
                                 const Objective& objective) {
  const ir::TaskGraph& g = model.graph();
  const std::size_t n = g.num_tasks();
  Mapping mapping(n, false);
  std::vector<bool> decided(n, false);
  std::size_t evals = 0;

  // Normalizers for the local-phase terms.
  double max_speedup = 1e-9;
  double max_area = 1e-9;
  for (const ir::TaskId t : g.task_ids()) {
    const auto& c = g.task(t).costs;
    max_speedup = std::max(max_speedup,
                           c.sw_cycles / std::max(1e-9, c.hw_cycles));
    max_area = std::max(max_area, c.hw_area);
  }

  for (const ir::TaskId t : ir::topological_order(g)) {
    // Global criticality: how far the projected latency (undecided tasks
    // assumed software) overshoots the target.
    const double projected =
        model.schedule_latency(mapping, objective.consider_concurrency,
                               objective.consider_communication);
    ++evals;
    double gc = 0.5;
    if (objective.latency_target > 0.0) {
      gc = std::clamp(
          (projected - objective.latency_target) / objective.latency_target,
          0.0, 1.0);
    }

    const auto& c = g.task(t).costs;
    const double speedup_norm =
        (c.sw_cycles / std::max(1e-9, c.hw_cycles)) / max_speedup;
    const double area_norm = c.hw_area / max_area;

    // Communication affinity: prefer the side of already-decided heavy
    // neighbours (§3.3 "this favors partitions that localize
    // communication").
    double comm_pull = 0.0;
    if (objective.consider_communication) {
      double to_hw = 0.0;
      double to_sw = 0.0;
      for (const ir::EdgeId e : g.in_edges(t)) {
        const ir::TaskId s = g.edge(e).src;
        if (!decided[s.index()]) continue;
        (mapping[s.index()] ? to_hw : to_sw) += g.edge(e).bytes;
      }
      const double total = to_hw + to_sw;
      if (total > 0.0) comm_pull = (to_hw - to_sw) / total;  // in [-1, 1]
    }

    const double score_hw =
        gc * speedup_norm - (1.0 - gc) * area_norm + 0.25 * comm_pull;
    mapping[t.index()] = score_hw > 0.0;
    decided[t.index()] = true;
  }
  return finish("gclp", model, objective, std::move(mapping), evals);
}

const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kAllSw:    return "all_sw";
    case Strategy::kAllHw:    return "all_hw";
    case Strategy::kHotSpot:  return "hot_spot";
    case Strategy::kUnload:   return "unload";
    case Strategy::kKl:       return "kl";
    case Strategy::kAnnealed: return "annealed";
    case Strategy::kGclp:     return "gclp";
  }
  return "?";
}

namespace {

PartitionResult dispatch(Strategy strategy, const CostModel& model,
                         const Objective& objective,
                         const PartitionOptions& options) {
  switch (strategy) {
    case Strategy::kAllSw:    return all_sw_impl(model, objective);
    case Strategy::kAllHw:    return all_hw_impl(model, objective);
    case Strategy::kHotSpot:  return hot_spot_impl(model, objective);
    case Strategy::kUnload:   return unload_impl(model, objective);
    case Strategy::kKl:       return kl_impl(model, objective, options.start);
    case Strategy::kAnnealed: return annealed_impl(model, objective,
                                                   options.anneal);
    case Strategy::kGclp:     return gclp_impl(model, objective);
  }
  MHS_CHECK(false, "unknown partitioning strategy");
}

}  // namespace

PartitionResult run(Strategy strategy, const CostModel& model,
                    const Objective& objective,
                    const PartitionOptions& options) {
  obs::Span span(strategy_name(strategy), "partition");
  PartitionResult result = dispatch(strategy, model, objective, options);
  // Per-strategy iteration/move effort, as monotonic counters.
  if (obs::enabled()) {
    const std::string prefix = std::string("partition.") + result.algorithm;
    obs::count(prefix + ".runs", 1);
    obs::count(prefix + ".evaluations", result.evaluations);
    std::size_t moves = 0;
    for (const bool hw : result.mapping) moves += hw ? 1 : 0;
    obs::count(prefix + ".tasks_moved_to_hw", moves);
  }
  return result;
}

}  // namespace mhs::partition
