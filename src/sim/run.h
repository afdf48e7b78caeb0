// The one entry point of mhs::sim.
//
// Follows the one-entry-point rule of partition::run(Strategy, ...) and
// cosynth::run(Target, ...): every simulation the library offers is
// selectable through a single dispatcher, keyed by the abstraction level
// at which the hardware and software worlds meet (the axis of the
// paper's Figure 3),
//
//   sim::run({.level = Level::kAccelerator, ...}) — ISS/bus/device
//       co-simulation of one accelerator at any InterfaceLevel
//       (kPin .. kMessage, selected inside CosimConfig)
//   sim::run({.level = Level::kProcess, ...})     — OS message-level
//       simulation of a process network under a HW/SW mapping
//   sim::run({.level = Level::kSystem, ...})      — full-system
//       simulation of a partitioned task graph on the shared CPU + bus
//
// and returns a SimResult exposing the common shape (total_cycles(),
// sim_events(), summary()). run() is the only way in: the levels behind
// it are declared in the private header sim/levels.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/cosim.h"
#include "sim/os_cosim.h"
#include "sim/system_cosim.h"

namespace mhs::sim {

/// Every simulation level selectable through run().
enum class Level {
  kAccelerator,  ///< accelerator co-simulation (Fig. 3 pin..message)
  kProcess,      ///< OS-level process-network simulation
  kSystem,       ///< partitioned task-graph system simulation
};

inline constexpr Level kAllLevels[] = {Level::kAccelerator, Level::kProcess,
                                       Level::kSystem};

/// Stable lower_snake name of a level.
const char* level_name(Level level);

/// Parses a level_name() string; returns std::nullopt for anything else.
std::optional<Level> parse_level(const std::string& name);

/// Union of every level's inputs; set `level` and fill the group it
/// reads (run() checks the required pointers). Unrelated fields are
/// ignored.
struct SimRequest {
  Level level = Level::kAccelerator;

  // -- kAccelerator: impl + samples (+ cosim config, incl. the
  //    InterfaceLevel selecting pin/register/driver/message accuracy).
  const hw::HlsResult* impl = nullptr;
  const std::vector<std::vector<std::int64_t>>* samples = nullptr;
  CosimConfig cosim;

  // -- kProcess: network + in_hw (+ os config).
  const ir::ProcessNetwork* network = nullptr;
  const std::vector<bool>* in_hw = nullptr;
  OsCosimConfig os;

  // -- kSystem: graph + mapping (+ system config).
  const ir::TaskGraph* graph = nullptr;
  const partition::Mapping* mapping = nullptr;
  SystemCosimConfig system;
};

/// Outcome of run(): exactly the member matching the request's level is
/// engaged. The SimResult itself exposes the common shape by forwarding
/// to the engaged report, so callers need not switch on the level.
struct SimResult {
  Level level = Level::kAccelerator;
  std::optional<CosimReport> cosim;
  std::optional<OsCosimResult> os;
  std::optional<SystemCosimResult> system;

  /// Predicted completion time of the run (reference cycles): the
  /// co-simulation's total_cycles or the makespan.
  double total_cycles() const;
  /// Discrete events the simulator executed — the simulation-cost metric.
  std::uint64_t sim_events() const;
  /// One-line human-readable account of the run.
  std::string summary() const;
};

/// Runs the simulation the request selects.
SimResult run(const SimRequest& request);

}  // namespace mhs::sim
