// HW/SW partitioning cost model.
//
// Turns a task graph plus a mapping (each task in hardware or software)
// into the metrics §3.3 of the paper identifies as partitioning factors:
//
//   performance      — end-to-end latency of a list schedule where software
//                      tasks serialize on one CPU and hardware tasks run
//                      concurrently ("concurrency" factor),
//   implementation   — hardware area with resource sharing
//   cost               (hw::shared_area_from_scratch over the HW-mapped
//                      tasks) plus software code size,
//   communication    — cross-boundary traffic priced by the bus model,
//   modifiability    — penalty for freezing change-prone functions in HW,
//   nature of        — task parallelism annotations feed the HW latency
//   computation        numbers (parallel tasks gain more from HW).
//
// Each factor can be disabled to reproduce the E10 ablation: an optimizer
// working under a crippled objective is scored against the full model.
#pragma once

#include <cstdint>
#include <vector>

#include "base/concurrent_cache.h"
#include "hw/estimate.h"
#include "ir/task_graph.h"

namespace mhs::partition {

/// A mapping: task t is in hardware iff mapping[t.index()] is true.
using Mapping = std::vector<bool>;

/// Thread-safe memoization of CostModel's expensive sub-evaluations
/// (schedule latency and shared hardware area), keyed by the packed
/// mapping bits. Objective weights are applied *after* the cached terms,
/// so one cache serves every objective evaluated over the same annotated
/// graph — the dominant sharing in a design-space sweep.
///
/// A cache is only valid for CostModels built over the same graph
/// annotation, library, and communication model; the explorer keeps one
/// per configuration variant. Attach with CostModel::set_cache().
class EvalCache {
 public:
  explicit EvalCache(std::size_t shards = 32) : values_(shards) {}

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    double hit_rate() const {
      return hits + misses == 0
                 ? 0.0
                 : static_cast<double>(hits) /
                       static_cast<double>(hits + misses);
    }
  };
  Stats stats() const { return {values_.hits(), values_.misses()}; }
  std::size_t size() const { return values_.size(); }
  void clear() { values_.clear(); }

  /// Packed mapping plus a tag discriminating which quantity is cached
  /// (area, or latency under one of the flag combinations).
  struct Key {
    std::vector<std::uint64_t> words;
    std::uint32_t tag = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::size_t seed = key.tag;
      for (const std::uint64_t w : key.words) {
        hash_combine(seed, std::hash<std::uint64_t>{}(w));
      }
      return seed;
    }
  };

 private:
  friend class CostModel;

  ConcurrentCache<Key, double, KeyHash> values_;
};

/// Communication pricing between mapped tasks.
struct CommModel {
  /// Cross-boundary transfer: fixed overhead + bytes/bandwidth.
  double cross_overhead_cycles = 24.0;
  double cross_bytes_per_cycle = 4.0;
  /// HW-to-HW transfers over dedicated wiring.
  double hwhw_overhead_cycles = 1.0;
  double hwhw_bytes_per_cycle = 16.0;
  /// SW-to-SW transfers are in-memory (free at this granularity).
};

/// Objective weights, constraints, and the E10 ablation toggles.
struct Objective {
  double latency_weight = 1.0;
  double area_weight = 0.05;
  double sw_size_weight = 0.0;
  double modifiability_weight = 0.0;

  /// Soft latency constraint: energies get a large penalty per cycle over.
  double latency_target = 0.0;  ///< 0 = no target
  double latency_penalty_weight = 50.0;
  /// Soft area budget, same mechanism.
  double area_budget = 0.0;  ///< 0 = no budget
  double area_penalty_weight = 50.0;

  // Ablation toggles (§3.3 factors). Disabling a factor removes it from
  // the model the optimizer sees; the full model keeps all of them.
  bool consider_communication = true;
  bool consider_concurrency = true;
  bool consider_modifiability = true;
};

/// Metrics of one (graph, mapping) pair.
struct Metrics {
  double latency_cycles = 0.0;
  double hw_area = 0.0;
  double sw_code_bytes = 0.0;
  double cross_comm_cycles = 0.0;
  double modifiability_penalty = 0.0;
  std::size_t tasks_in_hw = 0;
  /// Scalarized objective value (lower is better).
  double energy = 0.0;
};

/// The cost model. Holds the component library used for shared-area
/// estimation and the communication pricing.
///
/// The model snapshots the graph at construction: task costs, edge
/// payloads and the topology are compiled into flat arrays, and every
/// evaluation reads only those. Mutating the graph afterwards does not
/// reach a live model; build a new one. graph() still returns the
/// original graph, for callers that walk its structure.
///
/// Evaluation allocates nothing once warm: its scratch is per thread, so
/// one const model may be shared by any number of threads.
class CostModel {
 public:
  CostModel(const ir::TaskGraph& graph, hw::ComponentLibrary lib,
            CommModel comm = {});

  /// Evaluates a mapping under `objective`.
  Metrics evaluate(const Mapping& mapping, const Objective& objective) const;

  /// End-to-end latency of the mapped graph (list schedule; SW serialized
  /// on one CPU, HW concurrent unless `hw_concurrent` is false).
  double schedule_latency(const Mapping& mapping, bool hw_concurrent,
                          bool price_communication) const;

  /// Shared hardware area of the tasks mapped to HW.
  double hardware_area(const Mapping& mapping) const;

  /// Attaches (or detaches, with nullptr) a memoization cache consulted
  /// by schedule_latency and hardware_area. The cache is not owned and
  /// must outlive the model; it must only ever be shared between models
  /// over the identical graph annotation, library, and comm model.
  /// Cached runs return bit-identical results to uncached runs.
  void set_cache(EvalCache* cache) { cache_ = cache; }
  EvalCache* cache() const { return cache_; }

  const ir::TaskGraph& graph() const { return *graph_; }
  const hw::ComponentLibrary& library() const { return lib_; }
  const CommModel& comm() const { return comm_; }

  /// Delay of edge `e` given the endpoint sides.
  double edge_delay(ir::EdgeId e, bool src_hw, bool dst_hw) const;

 private:
  double schedule_latency_uncached(const Mapping& mapping, bool hw_concurrent,
                                   bool price_communication) const;
  double hardware_area_uncached(const Mapping& mapping) const;

  /// Per-task cost snapshot.
  struct FlatTask {
    double sw_cycles = 0.0;
    double hw_cycles = 0.0;
    double sw_size = 0.0;
    double modifiability_cost = 0.0;  ///< modifiability * sw_cycles
    std::uint32_t num_preds = 0;
  };
  /// Per-edge snapshot with both priced delays.
  struct FlatEdge {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    double cross_delay = 0.0;  ///< one endpoint in HW, the other in SW
    double hwhw_delay = 0.0;   ///< both endpoints in HW
  };

  const ir::TaskGraph* graph_;
  hw::ComponentLibrary lib_;
  CommModel comm_;
  EvalCache* cache_ = nullptr;
  /// Precomputed per-task hardware profiles for the shared-area estimate.
  std::vector<hw::HwProfile> profiles_;
  std::vector<FlatTask> tasks_;
  std::vector<FlatEdge> edges_;  ///< in edge-id order
  /// The smallest-id-first order of ir::topological_order.
  std::vector<std::uint32_t> topo_;
  /// CSR successor lists: the out-edges of task t, in out_edges order,
  /// are succ_[succ_begin_[t] .. succ_begin_[t + 1]).
  std::vector<std::uint32_t> succ_begin_;
  std::vector<std::uint32_t> succ_;
};

}  // namespace mhs::partition
