#include "partition/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ir/task_graph_algos.h"

namespace mhs::partition {

namespace {

/// Per-thread working storage of one evaluation. Vectors only ever grow,
/// so once a thread has evaluated a graph of n tasks, evaluating it again
/// allocates nothing; keeping it per thread is what lets one const model
/// serve many threads.
struct Scratch {
  std::vector<std::uint8_t> hw;        ///< unpacked mapping
  std::vector<double> delay;           ///< per task, under the mapping
  std::vector<double> edge_cost;       ///< per edge, under the mapping
  std::vector<double> priority;        ///< b-levels
  std::vector<double> ready;           ///< earliest start per task
  std::vector<std::uint32_t> preds_left;
  std::vector<std::uint32_t> ready_list;  ///< contended ready tasks, by id
  std::vector<std::uint32_t> hw_ready;    ///< concurrent HW tasks to commit
  std::vector<hw::HwProfile> residents;
  EvalCache::Key key;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Packs a mapping into 64-bit words for use as a cache key. `tag`
/// selects the cached quantity: bit 0 = hw_concurrent, bit 1 =
/// price_communication for latency entries; 4 marks an area entry.
const EvalCache::Key& make_key(const Mapping& mapping, std::uint32_t tag) {
  EvalCache::Key& key = scratch().key;
  key.tag = tag;
  key.words.assign((mapping.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (mapping[i]) key.words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return key;
}

constexpr std::uint32_t kAreaTag = 4;

}  // namespace

CostModel::CostModel(const ir::TaskGraph& graph, hw::ComponentLibrary lib,
                     CommModel comm)
    : graph_(&graph), lib_(lib), comm_(comm) {
  graph.validate();
  const std::size_t n = graph.num_tasks();
  MHS_CHECK(n < std::numeric_limits<std::uint32_t>::max() &&
                graph.num_edges() < std::numeric_limits<std::uint32_t>::max(),
            "task graph too large for 32-bit task and edge indices");
  profiles_.reserve(n);
  tasks_.reserve(n);
  for (const ir::TaskId t : graph.task_ids()) {
    const ir::TaskCosts& c = graph.task(t).costs;
    profiles_.push_back(hw::profile_from_costs(c, lib_));
    tasks_.push_back({c.sw_cycles, c.hw_cycles, c.sw_size,
                      c.modifiability * c.sw_cycles,
                      static_cast<std::uint32_t>(graph.in_edges(t).size())});
  }
  edges_.reserve(graph.num_edges());
  for (const ir::EdgeId e : graph.edge_ids()) {
    const ir::Edge& edge = graph.edge(e);
    edges_.push_back(
        {static_cast<std::uint32_t>(edge.src.index()),
         static_cast<std::uint32_t>(edge.dst.index()),
         comm_.cross_overhead_cycles + edge.bytes / comm_.cross_bytes_per_cycle,
         comm_.hwhw_overhead_cycles + edge.bytes / comm_.hwhw_bytes_per_cycle});
  }
  topo_.reserve(n);
  for (const ir::TaskId t : ir::topological_order(graph)) {
    topo_.push_back(static_cast<std::uint32_t>(t.index()));
  }
  succ_begin_.reserve(n + 1);
  succ_.reserve(graph.num_edges());
  succ_begin_.push_back(0);
  for (const ir::TaskId t : graph.task_ids()) {
    for (const ir::EdgeId e : graph.out_edges(t)) {
      succ_.push_back(static_cast<std::uint32_t>(e.index()));
    }
    succ_begin_.push_back(static_cast<std::uint32_t>(succ_.size()));
  }
}

double CostModel::edge_delay(ir::EdgeId e, bool src_hw, bool dst_hw) const {
  MHS_CHECK(e.valid() && e.index() < edges_.size(),
            "edge id " << e.index() << " out of range");
  if (src_hw != dst_hw) return edges_[e.index()].cross_delay;
  if (src_hw) return edges_[e.index()].hwhw_delay;
  return 0.0;  // SW-to-SW: shared memory
}

double CostModel::schedule_latency(const Mapping& mapping,
                                   bool hw_concurrent,
                                   bool price_communication) const {
  if (cache_ == nullptr) {
    return schedule_latency_uncached(mapping, hw_concurrent,
                                     price_communication);
  }
  const std::uint32_t tag = (hw_concurrent ? 1u : 0u) |
                            (price_communication ? 2u : 0u);
  return cache_->values_.get_or_compute(make_key(mapping, tag), [&] {
    return schedule_latency_uncached(mapping, hw_concurrent,
                                     price_communication);
  });
}

// A list schedule driven by a ready list. Under hw_concurrent, a HW task
// is committed at its ready time as soon as its last predecessor
// finishes: every value a commit updates (successors' ready times, the
// makespan) is a max, so commit order among HW tasks cannot change a
// result. Contended tasks (SW, or all tasks when HW is serial) wait in
// `ready_list`, kept in ascending id; each step picks the one with the
// earliest start, ties within 1e-12 going to the higher b-level and then
// to the lower id. That is the pick a full scan of every task in id
// order makes, so the makespan matches it bit for bit.
double CostModel::schedule_latency_uncached(const Mapping& mapping,
                                            bool hw_concurrent,
                                            bool price_communication) const {
  const std::size_t n = tasks_.size();
  MHS_CHECK(mapping.size() == n, "mapping/task-count mismatch");
  if (n == 0) return 0.0;

  Scratch& s = scratch();
  s.hw.resize(n);
  s.delay.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    s.hw[t] = mapping[t] ? 1 : 0;
    s.delay[t] = s.hw[t] ? tasks_[t].hw_cycles : tasks_[t].sw_cycles;
  }
  s.edge_cost.resize(edges_.size());
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const FlatEdge& edge = edges_[e];
    const bool src_hw = s.hw[edge.src] != 0;
    const bool dst_hw = s.hw[edge.dst] != 0;
    s.edge_cost[e] = !price_communication ? 0.0
                     : src_hw != dst_hw   ? edge.cross_delay
                     : src_hw             ? edge.hwhw_delay
                                          : 0.0;
  }

  // Priority: b-level under the mapped delays.
  s.priority.resize(n);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const std::uint32_t v = *it;
    double best_succ = 0.0;
    for (std::uint32_t k = succ_begin_[v]; k < succ_begin_[v + 1]; ++k) {
      const std::uint32_t e = succ_[k];
      best_succ =
          std::max(best_succ, s.edge_cost[e] + s.priority[edges_[e].dst]);
    }
    s.priority[v] = s.delay[v] + best_succ;
  }

  s.ready.assign(n, 0.0);
  s.preds_left.resize(n);
  s.ready_list.clear();
  s.ready_list.reserve(n);
  s.hw_ready.clear();
  s.hw_ready.reserve(n);
  const auto release = [&](std::uint32_t t) {
    if (hw_concurrent && s.hw[t]) {
      s.hw_ready.push_back(t);
    } else {
      s.ready_list.insert(
          std::upper_bound(s.ready_list.begin(), s.ready_list.end(), t), t);
    }
  };
  for (std::uint32_t t = 0; t < n; ++t) {
    s.preds_left[t] = tasks_[t].num_preds;
    if (s.preds_left[t] == 0) release(t);
  }

  double makespan = 0.0;
  const auto commit = [&](std::uint32_t t, double start) {
    const double f = start + s.delay[t];
    makespan = std::max(makespan, f);
    for (std::uint32_t k = succ_begin_[t]; k < succ_begin_[t + 1]; ++k) {
      const std::uint32_t e = succ_[k];
      const std::uint32_t d = edges_[e].dst;
      s.ready[d] = std::max(s.ready[d], f + s.edge_cost[e]);
      if (--s.preds_left[d] == 0) release(d);
    }
    return f;
  };
  const auto commit_ready_hw = [&] {
    while (!s.hw_ready.empty()) {
      const std::uint32_t t = s.hw_ready.back();
      s.hw_ready.pop_back();
      commit(t, s.ready[t]);
    }
  };

  double cpu_free = 0.0;
  double hw_free = 0.0;  // used when hw_concurrent == false
  commit_ready_hw();
  while (!s.ready_list.empty()) {
    std::size_t best = 0;
    double best_start = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < s.ready_list.size(); ++k) {
      const std::uint32_t t = s.ready_list[k];
      const double resource_free = s.hw[t] ? hw_free : cpu_free;
      const double start = std::max(resource_free, s.ready[t]);
      if (start < best_start - 1e-12 ||
          (std::abs(start - best_start) <= 1e-12 &&
           s.priority[t] > s.priority[s.ready_list[best]])) {
        best_start = start;
        best = k;
      }
    }
    const std::uint32_t t = s.ready_list[best];
    s.ready_list.erase(s.ready_list.begin() +
                       static_cast<std::ptrdiff_t>(best));
    (s.hw[t] ? hw_free : cpu_free) = commit(t, best_start);
    commit_ready_hw();
  }
  return makespan;
}

double CostModel::hardware_area(const Mapping& mapping) const {
  if (cache_ == nullptr) return hardware_area_uncached(mapping);
  return cache_->values_.get_or_compute(
      make_key(mapping, kAreaTag),
      [&] { return hardware_area_uncached(mapping); });
}

double CostModel::hardware_area_uncached(const Mapping& mapping) const {
  std::vector<hw::HwProfile>& residents = scratch().residents;
  residents.clear();
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (mapping[i]) residents.push_back(profiles_[i]);
  }
  return hw::shared_area_from_scratch(lib_, residents);
}

Metrics CostModel::evaluate(const Mapping& mapping,
                            const Objective& objective) const {
  MHS_CHECK(mapping.size() == tasks_.size(), "mapping/task-count mismatch");

  Metrics m;
  m.latency_cycles = schedule_latency(
      mapping, objective.consider_concurrency,
      objective.consider_communication);
  m.hw_area = hardware_area(mapping);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    if (mapping[t]) {
      ++m.tasks_in_hw;
      m.modifiability_penalty += tasks_[t].modifiability_cost;
    } else {
      m.sw_code_bytes += tasks_[t].sw_size;
    }
  }
  for (const FlatEdge& edge : edges_) {
    if (mapping[edge.src] != mapping[edge.dst]) {
      m.cross_comm_cycles += edge.cross_delay;
    }
  }

  double energy = objective.latency_weight * m.latency_cycles +
                  objective.area_weight * m.hw_area +
                  objective.sw_size_weight * m.sw_code_bytes;
  if (objective.consider_modifiability) {
    energy += objective.modifiability_weight * m.modifiability_penalty;
  }
  if (objective.latency_target > 0.0 &&
      m.latency_cycles > objective.latency_target) {
    energy += objective.latency_penalty_weight *
              (m.latency_cycles - objective.latency_target);
  }
  if (objective.area_budget > 0.0 && m.hw_area > objective.area_budget) {
    energy += objective.area_penalty_weight *
              (m.hw_area - objective.area_budget);
  }
  m.energy = energy;
  return m;
}

}  // namespace mhs::partition
