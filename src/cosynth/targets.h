// The co-synthesis targets behind cosynth::run(). Private to the
// library: run.cpp and the files that define the targets include it;
// every other caller goes through cosynth::run() (cosynth/run.h).
#pragma once

#include <cstdint>
#include <vector>

#include "cosynth/asip.h"
#include "cosynth/coproc.h"
#include "cosynth/impl_select.h"
#include "cosynth/interface_synth.h"
#include "cosynth/mixed.h"
#include "cosynth/periodic.h"

namespace mhs::cosynth::detail {

/// kCoprocessor: runs the chosen strategy over `model` / `objective`.
CoprocDesign synthesize_coprocessor(const partition::CostModel& model,
                                    const partition::Objective& objective,
                                    CoprocStrategy strategy);

/// kAsip: picks the feature subset maximizing weighted cycle savings
/// under `area_budget` (exact knapsack over the candidate features).
AsipDesign synthesize_asip(const std::vector<WeightedKernel>& apps,
                           const sw::CpuModel& base, double area_budget);

/// kMixed: jointly spends `silicon_budget` on ISA features and
/// co-processor hardware to minimize end-to-end latency of `graph`.
/// `kernels[i]` is task i's behavioural kernel (nullptr = the task's
/// existing sw_cycles annotation is feature-independent).
MixedDesign synthesize_mixed(const ir::TaskGraph& graph,
                             const std::vector<const ir::Cdfg*>& kernels,
                             const sw::CpuModel& base_cpu,
                             const hw::ComponentLibrary& lib,
                             double silicon_budget,
                             const partition::CommModel& comm);

/// kInterface: allocates the accelerator's registers and selects and
/// generates the better driver under `reqs`, co-simulating both
/// alternatives with `sample_inputs`.
InterfaceDesign synthesize_interface(
    const hw::HlsResult& impl, const InterfaceRequirements& reqs,
    const std::vector<std::vector<std::int64_t>>& sample_inputs,
    AddressMapAllocator& allocator);

/// kImplSelect: picks one variant per menu minimizing total weighted
/// cycles under `area_budget` (exact depth-first branch and bound).
/// Infeasible (feasible=false) when even the smallest variants overflow.
ImplSelection select_implementations(const std::vector<ImplMenu>& menus,
                                     double area_budget);

/// kMultiprocPeriodic: Beck-style periodic synthesis. Packs utilization
/// (wcet/period) into PE capacity, then tightens the packing margin
/// until response-time analysis passes on every instance. All tasks
/// need positive periods.
MpDesign synthesize_periodic(const ir::TaskGraph& graph,
                             const std::vector<PeType>& catalog);

}  // namespace mhs::cosynth::detail
