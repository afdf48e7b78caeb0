// Golden fingerprints and a differential oracle for HW/SW partitioning.
//
// One FNV-1a hash per partitioning run covers everything a
// PartitionResult commits to: the mapping bits, the bit patterns of
// every Metrics field, and the evaluation count. The committed table in
// fixtures/partition_golden.txt pins partition::CostModel and every
// search strategy bit for bit: annealing and KL steer by every energy
// they see, so a latency that moves by one ulp anywhere along a search
// changes the final mapping or the evaluation count.
//
// Coverage: the apps task graphs, ir::generate_task_graph over every
// shape at 4-48 tasks, and one layered graph whose tasks and edges all
// carry the same integer costs, so that start-time ties reach the
// scheduler's b-level tie-break. Each graph runs every Strategy under
// all four consider_concurrency x consider_communication combinations,
// with and without a latency target (hot_spot and unload need one).
//
// The differential test replays CostModel::schedule_latency against the
// full-scan list scheduler it replaced, kept below as the reference, on
// 10,000 random mappings per graph under every flag combination.
//
// The walk oracle drives a CostModel::Walk through over 10,000 random
// flips per graph, some flipped straight back as KL does, under every
// flag combination with and without a latency target and an area
// budget, and requires every score to equal CostModel::evaluate of the
// walk's mapping bit for bit, in every Metrics field.
//
// To regenerate the table after an intended change of partitioning
// results, run this binary with MHS_PARTITION_GOLDEN_OUT=<path>; it
// writes the recomputed table there and skips the comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/workloads.h"
#include "base/rng.h"
#include "ir/task_graph_algos.h"
#include "ir/task_graph_gen.h"
#include "partition/algorithms.h"

namespace mhs::partition {
namespace {

using Golden = std::vector<std::pair<std::string, std::uint64_t>>;

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<unsigned char>(v >> (8 * i));
      h_ *= 1099511628211ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t fingerprint(const PartitionResult& r) {
  Fnv h;
  h.mix(std::uint64_t{r.mapping.size()});
  for (const bool hw : r.mapping) h.mix(std::uint64_t{hw});
  const Metrics& m = r.metrics;
  h.mix(m.latency_cycles);
  h.mix(m.hw_area);
  h.mix(m.sw_code_bytes);
  h.mix(m.cross_comm_cycles);
  h.mix(m.modifiability_penalty);
  h.mix(std::uint64_t{m.tasks_in_hw});
  h.mix(m.energy);
  h.mix(std::uint64_t{r.evaluations});
  return h.value();
}

struct NamedGraph {
  std::string label;
  ir::TaskGraph graph;
};

/// A layered DAG whose tasks and edges all carry the same integer costs:
/// every start time is an exact integer, so ready tasks tie on start time
/// and the scheduler's b-level tie-break decides.
ir::TaskGraph equal_cost_graph() {
  Rng rng(99);
  ir::TaskGraphGenConfig cfg;
  cfg.num_tasks = 20;
  cfg.width = 4.0;
  ir::TaskGraph g = ir::generate_task_graph(cfg, rng);
  for (const ir::TaskId t : g.task_ids()) {
    g.task(t).costs = {100, 20, 50, 64, 0.5, 0.5};
  }
  for (const ir::EdgeId e : g.edge_ids()) g.edge(e).bytes = 64;
  return g;
}

std::vector<NamedGraph> golden_graphs() {
  std::vector<NamedGraph> out;
  out.push_back({"jpeg", apps::jpeg_pipeline_graph()});
  out.push_back({"dsp_chain", apps::dsp_chain_workload().graph});
  const std::pair<const char*, ir::GraphShape> shapes[] = {
      {"layered", ir::GraphShape::kLayered},
      {"pipeline", ir::GraphShape::kPipeline},
      {"fork_join", ir::GraphShape::kForkJoin},
      {"tree", ir::GraphShape::kTree}};
  std::uint64_t seed = 1;
  for (const auto& [name, shape] : shapes) {
    for (const std::size_t n : {4, 10, 24, 48}) {
      Rng rng(seed++);
      ir::TaskGraphGenConfig cfg;
      cfg.shape = shape;
      cfg.num_tasks = n;
      out.push_back({std::string(name) + std::to_string(n),
                     ir::generate_task_graph(cfg, rng)});
    }
  }
  out.push_back({"equal_costs", equal_cost_graph()});
  return out;
}

Golden compute_fingerprints() {
  Golden out;
  const std::vector<NamedGraph> graphs = golden_graphs();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const auto& [label, g] = graphs[gi];
    const CostModel model(g, hw::default_library());
    for (const bool concurrency : {true, false}) {
      for (const bool communication : {true, false}) {
        for (const bool target : {false, true}) {
          Objective objective;
          objective.area_weight = 0.02;
          objective.sw_size_weight = 0.01;
          objective.modifiability_weight = 0.05;
          objective.consider_concurrency = concurrency;
          objective.consider_communication = communication;
          if (target) objective.latency_target = 0.6 * g.total_sw_cycles();
          PartitionOptions options;
          options.anneal.seed = gi + 1;
          const std::string prefix =
              label + "/cc" + std::to_string(concurrency) + "_comm" +
              std::to_string(communication) + (target ? "/target/" : "/free/");
          for (const Strategy s : kAllStrategies) {
            const bool needs_target =
                s == Strategy::kHotSpot || s == Strategy::kUnload;
            if (needs_target && !target) continue;
            out.emplace_back(prefix + strategy_name(s),
                             fingerprint(run(s, model, objective, options)));
          }
        }
      }
    }
  }
  return out;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

TEST(PartitionGolden, FingerprintsMatchCommittedTable) {
  const Golden actual = compute_fingerprints();
  if (const char* path = std::getenv("MHS_PARTITION_GOLDEN_OUT")) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    for (const auto& [label, hash] : actual) {
      os << label << ' ' << hex(hash) << '\n';
    }
    GTEST_SKIP() << "wrote " << actual.size() << " fingerprints to " << path;
  }

  std::ifstream is(std::string(MHS_FIXTURE_DIR) + "/partition_golden.txt");
  ASSERT_TRUE(is) << "missing fixtures/partition_golden.txt";
  Golden expected;
  std::string label;
  std::string hash;
  while (is >> label >> hash) {
    expected.emplace_back(label, std::stoull(hash, nullptr, 16));
  }
  ASSERT_EQ(actual.size(), expected.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].first, expected[i].first) << "row " << i;
    if (actual[i].second != expected[i].second) {
      ++mismatches;
      ADD_FAILURE() << actual[i].first << ": fingerprint "
                    << hex(actual[i].second) << ", golden "
                    << hex(expected[i].second);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// The list scheduler CostModel::schedule_latency replaced, kept as the
/// reference: b-levels through ir::b_levels, then every step rescans all
/// tasks. Hardware tasks (when concurrent) start as soon as they are
/// ready; otherwise the ready task with the earliest start wins, ties
/// within 1e-12 going to the higher b-level, then to the lower id.
double reference_latency(const ir::TaskGraph& g, const CommModel& comm,
                         const Mapping& mapping, bool hw_concurrent,
                         bool price_communication) {
  const std::size_t n = g.num_tasks();
  if (n == 0) return 0.0;

  auto node_delay = [&](ir::TaskId t) {
    return mapping[t.index()] ? g.task(t).costs.hw_cycles
                              : g.task(t).costs.sw_cycles;
  };
  auto edge_cost = [&](ir::EdgeId e) {
    if (!price_communication) return 0.0;
    const ir::Edge& edge = g.edge(e);
    const bool src_hw = mapping[edge.src.index()];
    const bool dst_hw = mapping[edge.dst.index()];
    if (src_hw != dst_hw) {
      return comm.cross_overhead_cycles +
             edge.bytes / comm.cross_bytes_per_cycle;
    }
    if (src_hw) {
      return comm.hwhw_overhead_cycles +
             edge.bytes / comm.hwhw_bytes_per_cycle;
    }
    return 0.0;
  };

  const auto priority = ir::b_levels(g, node_delay, edge_cost);
  const std::vector<ir::TaskId> ids = g.task_ids();

  std::vector<std::size_t> preds_left(n, 0);
  for (const ir::EdgeId e : g.edge_ids()) {
    ++preds_left[g.edge(e).dst.index()];
  }
  std::vector<double> finish(n, -1.0);
  std::vector<double> ready(n, 0.0);
  std::vector<bool> scheduled(n, false);
  std::size_t remaining = n;
  double cpu_free = 0.0;
  double hw_free = 0.0;
  double makespan = 0.0;

  auto commit = [&](ir::TaskId t, double start) {
    const double f = start + node_delay(t);
    finish[t.index()] = f;
    scheduled[t.index()] = true;
    makespan = std::max(makespan, f);
    --remaining;
    for (const ir::EdgeId e : g.out_edges(t)) {
      const ir::TaskId d = g.edge(e).dst;
      ready[d.index()] = std::max(ready[d.index()], f + edge_cost(e));
      --preds_left[d.index()];
    }
  };

  while (remaining > 0) {
    bool progressed = false;
    if (hw_concurrent) {
      for (const ir::TaskId t : ids) {
        if (scheduled[t.index()] || !mapping[t.index()]) continue;
        if (preds_left[t.index()] != 0) continue;
        commit(t, ready[t.index()]);
        progressed = true;
      }
      if (progressed) continue;
    }

    ir::TaskId best = ir::TaskId::invalid();
    double best_start = std::numeric_limits<double>::infinity();
    for (const ir::TaskId t : ids) {
      if (scheduled[t.index()] || preds_left[t.index()] != 0) continue;
      if (hw_concurrent && mapping[t.index()]) continue;
      const double resource_free =
          mapping[t.index()] && !hw_concurrent ? hw_free : cpu_free;
      const double start = std::max(resource_free, ready[t.index()]);
      if (start < best_start - 1e-12 ||
          (std::abs(start - best_start) <= 1e-12 && best.valid() &&
           priority[t.index()] > priority[best.index()])) {
        best_start = start;
        best = t;
      }
    }
    if (!best.valid()) {
      ADD_FAILURE() << "reference scheduler found no ready task";
      return -1.0;
    }
    const bool hw_task = mapping[best.index()];
    commit(best, best_start);
    if (hw_task && !hw_concurrent) {
      hw_free = finish[best.index()];
    } else if (!hw_task) {
      cpu_free = finish[best.index()];
    }
  }
  return makespan;
}

TEST(PartitionDifferential, ScheduleLatencyMatchesFullScanReference) {
  constexpr int kMappingsPerGraph = 10000;
  std::uint64_t seed = 1;
  for (const auto& [label, g] : golden_graphs()) {
    const CostModel model(g, hw::default_library());
    Rng rng(seed++);
    std::size_t mismatches = 0;
    for (int i = 0; i < kMappingsPerGraph; ++i) {
      // Sweep the HW density too, so near-all-SW and near-all-HW
      // mappings are as common as balanced ones.
      const double density = rng.uniform();
      Mapping mapping(g.num_tasks());
      for (std::size_t t = 0; t < mapping.size(); ++t) {
        mapping[t] = rng.bernoulli(density);
      }
      for (const bool concurrent : {true, false}) {
        for (const bool communication : {true, false}) {
          const double expected = reference_latency(
              g, model.comm(), mapping, concurrent, communication);
          const double actual =
              model.schedule_latency(mapping, concurrent, communication);
          if (std::bit_cast<std::uint64_t>(actual) !=
              std::bit_cast<std::uint64_t>(expected)) {
            if (++mismatches <= 3) {
              ADD_FAILURE() << label << " mapping " << i << " cc"
                            << int{concurrent} << " comm"
                            << int{communication} << ": " << actual
                            << " vs reference " << expected;
            }
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << label;
  }
}

/// Name of the first Metrics field whose bit pattern differs, or nullptr.
const char* first_differing_field(const Metrics& a, const Metrics& b) {
  constexpr std::pair<const char*, double Metrics::*> kDoubles[] = {
      {"latency_cycles", &Metrics::latency_cycles},
      {"hw_area", &Metrics::hw_area},
      {"sw_code_bytes", &Metrics::sw_code_bytes},
      {"cross_comm_cycles", &Metrics::cross_comm_cycles},
      {"modifiability_penalty", &Metrics::modifiability_penalty},
      {"energy", &Metrics::energy}};
  for (const auto& [name, field] : kDoubles) {
    if (std::bit_cast<std::uint64_t>(a.*field) !=
        std::bit_cast<std::uint64_t>(b.*field)) {
      return name;
    }
  }
  return a.tasks_in_hw == b.tasks_in_hw ? nullptr : "tasks_in_hw";
}

TEST(PartitionDifferential, WalkScoresMatchEvaluateAfterEveryFlip) {
  constexpr int kFlipsPerObjective = 640;  // x 16 objectives per graph
  std::uint64_t seed = 101;
  for (const auto& [label, g] : golden_graphs()) {
    const CostModel model(g, hw::default_library());
    const std::size_t n = g.num_tasks();
    const double all_hw_area = model.hardware_area(Mapping(n, true));
    Rng rng(seed++);
    std::size_t flips = 0;
    std::size_t mismatches = 0;
    for (const bool concurrency : {true, false}) {
      for (const bool communication : {true, false}) {
        for (const bool target : {false, true}) {
          for (const bool budget : {false, true}) {
            Objective objective;
            objective.area_weight = 0.02;
            objective.sw_size_weight = 0.01;
            objective.modifiability_weight = 0.05;
            objective.consider_concurrency = concurrency;
            objective.consider_communication = communication;
            if (target) objective.latency_target = 0.6 * g.total_sw_cycles();
            if (budget) objective.area_budget = 0.4 * all_hw_area;
            const double density = rng.uniform();
            Mapping start(n);
            for (std::size_t t = 0; t < n; ++t) {
              start[t] = rng.bernoulli(density);
            }
            CostModel::Walk walk(model, objective, start);
            const auto check = [&](const char* step) {
              const Metrics expected =
                  model.evaluate(walk.mapping(), objective);
              const char* field = first_differing_field(walk.score(), expected);
              if (field != nullptr && ++mismatches <= 3) {
                ADD_FAILURE() << label << " cc" << int{concurrency} << " comm"
                              << int{communication} << " target"
                              << int{target} << " budget" << int{budget}
                              << " flip " << flips << " (" << step
                              << "): walk " << field
                              << " differs from evaluate";
              }
            };
            check("start");
            for (int i = 0; i < kFlipsPerObjective; ++i) {
              const auto t = static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
              walk.flip(t);
              ++flips;
              check("flip");
              if (rng.bernoulli(0.25)) {  // KL's try-and-undo
                walk.flip(t);
                ++flips;
                check("flip back");
              }
            }
          }
        }
      }
    }
    EXPECT_GE(flips, 10000u) << label;
    EXPECT_EQ(mismatches, 0u) << label;
  }
}

}  // namespace
}  // namespace mhs::partition
