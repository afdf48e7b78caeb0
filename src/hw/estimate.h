// Incremental hardware area estimation during HW/SW partitioning.
//
// Reimplements the idea of Vahid & Gajski, "Incremental Hardware Estimation
// During Hardware/Software Functional Partitioning" (IEEE TVLSI 3(3), 1995),
// which the paper cites as [18]: when a partitioner moves one function in
// or out of hardware, the shared-datapath area estimate is updated in
// O(log n) instead of being recomputed from all n resident functions.
//
// Sharing model: functions mapped to the co-processor execute mutually
// exclusively, so functional units and registers are shared (per-type MAX
// across resident functions) while controller states and task-specific
// wiring accumulate (SUM).
#pragma once

#include <cstddef>
#include <map>
#include <span>

#include "hw/hls.h"
#include "ir/task_graph.h"

namespace mhs::hw {

/// Per-function hardware requirement profile.
struct HwProfile {
  FuCounts fu;                ///< functional units the datapath needs
  std::size_t registers = 0;  ///< storage the datapath needs
  std::size_t states = 0;     ///< controller states the function adds
  double wiring = 0.0;        ///< non-shareable task-specific area
};

/// Derives a profile from a synthesized implementation.
HwProfile profile_from_hls(const HlsResult& impl);

/// Derives a coarse profile from task-level cost annotations: hw_area is
/// split into shareable datapath resources and non-shareable wiring using
/// the library's cost ratios. Deterministic in the task costs.
HwProfile profile_from_costs(const ir::TaskCosts& costs,
                             const ComponentLibrary& lib);

/// Area of a non-empty set of resident functions from its sharing terms:
/// per-type FU maxima and the register maximum (shared pools), summed
/// controller states and summed wiring. The one area formula: the
/// from-scratch estimate, the incremental estimator and
/// partition::CostModel all call it.
double shared_area(const ComponentLibrary& lib, const FuCounts& max_fu,
                   std::size_t max_regs, std::size_t total_states,
                   double total_wiring);

/// Shared-datapath area of a set of resident profiles, computed from
/// scratch in O(n) — the baseline the incremental estimator must match.
double shared_area_from_scratch(const ComponentLibrary& lib,
                                std::span<const HwProfile> residents);

/// Maintains the shared-datapath area estimate under add/remove of
/// functions. add/remove are O(log n); area() is O(1).
class IncrementalAreaEstimator {
 public:
  explicit IncrementalAreaEstimator(const ComponentLibrary& lib);

  /// Adds function `key` with the given profile.
  /// Precondition: key not already resident.
  void add(std::size_t key, const HwProfile& profile);

  /// Removes function `key`. Precondition: key resident.
  void remove(std::size_t key);

  bool contains(std::size_t key) const;
  std::size_t num_resident() const { return profiles_.size(); }

  /// Current estimate; 0 when no function is resident.
  double area() const;

 private:
  const ComponentLibrary* lib_;
  std::map<std::size_t, HwProfile> profiles_;
  /// Per FU type: multiset of per-function counts (as count -> frequency).
  std::map<std::size_t, std::size_t> fu_counts_[kNumFuTypes];
  std::map<std::size_t, std::size_t> register_counts_;
  std::size_t total_states_ = 0;
  double total_wiring_ = 0.0;
};

}  // namespace mhs::hw
