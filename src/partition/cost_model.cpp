#include "partition/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "ir/task_graph_algos.h"

namespace mhs::partition {

namespace {

/// Packs a mapping into 64-bit words for use as a cache key. `tag`
/// selects the cached quantity: bit 0 = hw_concurrent, bit 1 =
/// price_communication for latency entries; 4 marks an area entry.
const EvalCache::Key& make_key(const Mapping& mapping, std::uint32_t tag) {
  thread_local EvalCache::Key key;
  key.tag = tag;
  key.words.assign((mapping.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (mapping[i]) key.words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return key;
}

constexpr std::uint32_t kAreaTag = 4;

std::uint32_t latency_tag(bool hw_concurrent, bool price_communication) {
  return (hw_concurrent ? 1u : 0u) | (price_communication ? 2u : 0u);
}

/// `v` where `mask` is all ones, +0.0 where it is zero.
double masked(double v, std::uint64_t mask) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) & mask);
}

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
  incident_begin_.reserve(n + 1);
  incident_.reserve(2 * graph.num_edges());
  incident_begin_.push_back(0);
  for (const ir::TaskId t : graph.task_ids()) {
    for (const auto edges : {graph.out_edges(t), graph.in_edges(t)}) {
      for (const ir::EdgeId e : edges) {
        incident_.push_back(static_cast<std::uint32_t>(e.index()));
      }
    }
    incident_begin_.push_back(static_cast<std::uint32_t>(incident_.size()));
  }
}

CostModel::State& CostModel::thread_state() {
  thread_local State s;
  return s;
}

void CostModel::load(State& s, const Mapping& mapping, bool hw_concurrent,
                     bool price_communication) const {
  const std::size_t n = tasks_.size();
  MHS_CHECK(mapping.size() == n, "mapping/task-count mismatch");
  s.hw_concurrent = hw_concurrent;
  s.price_communication = price_communication;
  s.hw.resize(n);
  s.delay.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    s.hw[t] = mapping[t] ? 1 : 0;
    s.delay[t] = s.hw[t] ? tasks_[t].hw_cycles : tasks_[t].sw_cycles;
  }
  s.edge_cost.resize(edges_.size());
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    s.edge_cost[e] = edge_price(s, e);
  }
}

double CostModel::edge_price(const State& s, std::uint32_t e) const {
  const FlatEdge& edge = edges_[e];
  const bool src_hw = s.hw[edge.src] != 0;
  const bool dst_hw = s.hw[edge.dst] != 0;
  return !s.price_communication ? 0.0
         : src_hw != dst_hw     ? edge.cross_delay
         : src_hw               ? edge.hwhw_delay
                                : 0.0;  // SW-to-SW: shared memory
}

void CostModel::set_side(State& s, std::uint32_t t, bool hw) const {
  s.hw[t] = hw ? 1 : 0;
  s.delay[t] = hw ? tasks_[t].hw_cycles : tasks_[t].sw_cycles;
  for (std::uint32_t k = incident_begin_[t]; k < incident_begin_[t + 1];
       ++k) {
    const std::uint32_t e = incident_[k];
    s.edge_cost[e] = edge_price(s, e);
  }
}

template <typename Compute>
double CostModel::cached(const Mapping& mapping, std::uint32_t tag,
                         const Compute& compute) const {
  if (cache_ == nullptr) return compute();
  return cache_->values_.get_or_compute(make_key(mapping, tag), compute);
}

double CostModel::schedule_latency(const Mapping& mapping,
                                   bool hw_concurrent,
                                   bool price_communication) const {
  return cached(mapping, latency_tag(hw_concurrent, price_communication),
                [&] {
                  State& s = thread_state();
                  load(s, mapping, hw_concurrent, price_communication);
                  return latency(s);
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
double CostModel::latency(State& s) const {
  const std::size_t n = tasks_.size();
  if (n == 0) return 0.0;
  const bool hw_concurrent = s.hw_concurrent;

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
  // The sides alone set the area, so any latency flags and objective do.
  return cached(mapping, kAreaTag, [&] {
    State& s = thread_state();
    load(s, mapping, true, true);
    return score(s, 0.0, Objective{}).hw_area;
  });
}

Metrics CostModel::evaluate(const Mapping& mapping,
                            const Objective& objective) const {
  const bool concurrency = objective.consider_concurrency;
  const bool communication = objective.consider_communication;
  State& s = thread_state();
  load(s, mapping, concurrency, communication);
  const double latency_cycles =
      cached(mapping, latency_tag(concurrency, communication),
             [&] { return latency(s); });
  return score(s, latency_cycles, objective);
}

Metrics CostModel::score(const State& s, double latency_cycles,
                         const Objective& objective) const {
  Metrics m;
  m.latency_cycles = latency_cycles;
  // One pass in ascending task id: the additive terms and the resident
  // profiles' sharing terms, in the order hw::shared_area_from_scratch
  // sums them. A task on the other side of a term adds +0.0 (or 0),
  // which leaves a sum that started at +0.0 unchanged, so each sum is
  // the sum over its own side's tasks, with no branch to mispredict.
  hw::FuCounts max_fu;
  std::size_t max_regs = 0;
  std::size_t total_states = 0;
  double total_wiring = 0.0;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const std::uint64_t hw_mask = -std::uint64_t{s.hw[t]};
    const FlatTask& task = tasks_[t];
    const hw::HwProfile& p = profiles_[t];
    m.sw_code_bytes += masked(task.sw_size, ~hw_mask);
    m.modifiability_penalty += masked(task.modifiability_cost, hw_mask);
    total_wiring += masked(p.wiring, hw_mask);
    m.tasks_in_hw += s.hw[t];
    total_states += p.states & hw_mask;
    for (std::size_t f = 0; f < hw::kNumFuTypes; ++f) {
      max_fu.count[f] = std::max(max_fu.count[f], p.fu.count[f] & hw_mask);
    }
    max_regs = std::max(max_regs, p.registers & hw_mask);
  }
  if (m.tasks_in_hw > 0) {
    m.hw_area =
        hw::shared_area(lib_, max_fu, max_regs, total_states, total_wiring);
  }
  for (const FlatEdge& edge : edges_) {
    m.cross_comm_cycles += masked(
        edge.cross_delay,
        -static_cast<std::uint64_t>(s.hw[edge.src] ^ s.hw[edge.dst]));
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

CostModel::Walk::Walk(const CostModel& model, const Objective& objective,
                      Mapping start)
    : model_(&model), objective_(objective), mapping_(std::move(start)) {
  model.load(state_, mapping_, objective.consider_concurrency,
             objective.consider_communication);
  // Size the schedule's vectors now, so no score allocates.
  model.latency(state_);
}

void CostModel::Walk::flip(std::size_t t) {
  MHS_CHECK(t < mapping_.size(), "task " << t << " out of range");
  mapping_[t] = !mapping_[t];
  model_->set_side(state_, static_cast<std::uint32_t>(t), mapping_[t]);
}

Metrics CostModel::Walk::score() {
  return model_->score(state_, model_->latency(state_), objective_);
}

}  // namespace mhs::partition
