// HW/SW partitioning cost model.
//
// Turns a task graph plus a mapping (each task in hardware or software)
// into the metrics §3.3 of the paper identifies as partitioning factors:
//
//   performance      — end-to-end latency of a list schedule where software
//                      tasks serialize on one CPU and hardware tasks run
//                      concurrently ("concurrency" factor),
//   implementation   — hardware area with resource sharing
//   cost               (hw::shared_area over the HW-mapped tasks'
//                      profiles) plus software code size,
//   communication    — cross-boundary traffic priced by the bus model,
//   modifiability    — penalty for freezing change-prone functions in HW,
//   nature of        — task parallelism annotations feed the HW latency
//   computation        numbers (parallel tasks gain more from HW).
//
// Each factor can be disabled to reproduce the E10 ablation: an optimizer
// working under a crippled objective is scored against the full model.
//
// Searches that move one task at a time (hot-spot, unload, KL, annealing)
// score their moves on a CostModel::Walk, the incremental pricing of a
// move that Vahid & Gajski [18] argue for. A walk holds one mapping as
// flat per-task sides with the delays and edge prices under it; flip(t)
// updates task t and its incident edges only, and score() returns the
// Metrics that evaluate() returns for the same mapping, bit for bit.
// evaluate(), schedule_latency() and hardware_area() load the same state
// from a mapping and run the same code, so the model has one list
// schedule, one area formula (hw::shared_area) and one energy formula.
// Exactness is by construction, not by tolerance:
//
//   * every score sums its doubles (code size, modifiability, cross
//     traffic, the area's wiring) over all tasks in ascending id, then
//     all edges in ascending id. None is kept by adding and
//     subtracting: that drifts in the last bits, and one ulp changes an
//     annealing trajectory;
//   * delays and edge prices are assigned from the task's side, never
//     accumulated, so a flip and its flip back restore them exactly;
//   * b-levels and the list schedule are recomputed in full on every
//     score, so no stale b-level can reach a start-time tie.
#pragma once

#include <cstdint>
#include <vector>

#include "base/concurrent_cache.h"
#include "hw/estimate.h"
#include "ir/task_graph.h"

namespace mhs::partition {

/// A mapping: task t is in hardware iff mapping[t.index()] is true.
using Mapping = std::vector<bool>;

/// Thread-safe memoization of CostModel's schedule-latency and
/// shared-area terms, keyed by the packed mapping bits. Objective weights
/// are applied *after* the cached terms, so one cache serves every
/// objective evaluated over the same annotated graph.
///
/// No library code attaches one: since the model is flat and
/// allocation-free, a lookup (shard mutex, heap-keyed node) costs about
/// as much as the evaluation it saves, and the Explorer ran slower with
/// it on more threads. Only perfbench's replay and test_partition still
/// use it; it is deleted once the benchmark drops that use.
///
/// A cache is only valid for CostModels built over the same graph
/// annotation, library, and communication model. Attach with
/// CostModel::set_cache().
class EvalCache {
 public:
  explicit EvalCache(std::size_t shards = 32) : values_(shards) {}

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  Stats stats() const { return {values_.hits(), values_.misses()}; }

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
  class Walk;

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

  const ir::TaskGraph& graph() const { return *graph_; }
  const hw::ComponentLibrary& library() const { return lib_; }
  const CommModel& comm() const { return comm_; }

 private:
  /// One mapping loaded for scoring: per-task sides and delays, per-edge
  /// prices under the latency flags (each a function of the mapping and
  /// the flags alone), and the list schedule's working vectors. Vectors
  /// only ever grow, so reloading allocates nothing once warm.
  struct State {
    bool hw_concurrent = true;
    bool price_communication = true;
    std::vector<std::uint8_t> hw;   ///< per task: 1 in hardware
    std::vector<double> delay;      ///< per task, on its side
    std::vector<double> edge_cost;  ///< per edge, 0 unless priced
    std::vector<double> priority;   ///< b-levels
    std::vector<double> ready;      ///< earliest start per task
    std::vector<std::uint32_t> preds_left;
    std::vector<std::uint32_t> ready_list;  ///< contended ready tasks, by id
    std::vector<std::uint32_t> hw_ready;    ///< concurrent HW tasks to commit
  };

  /// This thread's state for evaluate(), schedule_latency() and
  /// hardware_area(); keeping it per thread is what lets one const model
  /// serve many threads.
  static State& thread_state();
  /// Loads `mapping` under the latency flags into `s`.
  void load(State& s, const Mapping& mapping, bool hw_concurrent,
            bool price_communication) const;
  /// Price of edge e under the sides and the pricing flag in `s`.
  double edge_price(const State& s, std::uint32_t e) const;
  /// Puts task t on side `hw` and reprices its incident edges.
  void set_side(State& s, std::uint32_t t, bool hw) const;
  /// compute(), or the attached cache's entry for (mapping, tag).
  template <typename Compute>
  double cached(const Mapping& mapping, std::uint32_t tag,
                const Compute& compute) const;
  /// The list schedule: b-levels, then a ready-list schedule.
  double latency(State& s) const;
  /// Metrics of the loaded mapping with the latency given: the area and
  /// the additive terms summed in task-id then edge-id order, then the
  /// energy under `objective`.
  Metrics score(const State& s, double latency_cycles,
                const Objective& objective) const;

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
  /// CSR incidence lists: every edge into or out of task t is in
  /// incident_[incident_begin_[t] .. incident_begin_[t + 1]).
  std::vector<std::uint32_t> incident_begin_;
  std::vector<std::uint32_t> incident_;
};

/// A search's position in the mapping space, priced incrementally. The
/// walk starts from a mapping under one objective; flip(t) moves task t
/// to the other side in O(deg t), and score() returns exactly
/// model.evaluate(mapping(), objective). Hot-spot, unload, KL and
/// annealing score every move as flip, score, flip back.
///
/// A walk does not consult an attached EvalCache. It owns its state, so
/// once constructed its flips and scores allocate nothing; it is used by
/// one thread at a time, and the model must outlive it.
class CostModel::Walk {
 public:
  Walk(const CostModel& model, const Objective& objective, Mapping start);

  /// Moves task `t` to the other side of the HW/SW boundary.
  void flip(std::size_t t);
  /// Metrics of the current mapping, bit-identical to evaluate().
  Metrics score();

  const Mapping& mapping() const { return mapping_; }

 private:
  const CostModel* model_;
  Objective objective_;
  Mapping mapping_;
  State state_;
};

}  // namespace mhs::partition
