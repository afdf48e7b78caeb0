// The simulation levels behind sim::run(). Private to the library:
// run.cpp and the files that define the levels include it; every other
// caller goes through sim::run() (sim/run.h).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cosim.h"
#include "sim/os_cosim.h"
#include "sim/system_cosim.h"

namespace mhs::sim::detail {

/// kAccelerator: streams `sample_inputs` through the accelerator `impl`
/// under `config`. sample_inputs[i] holds sample i's kernel inputs in
/// cdfg-input order.
CosimReport run_cosim(const hw::HlsResult& impl, const CosimConfig& config,
                      const std::vector<std::vector<std::int64_t>>&
                          sample_inputs);

/// kProcess: runs `net` with process p in hardware iff in_hw[p.index()]
/// is true. Precondition: in_hw.size() == net.num_processes();
/// net.validate() holds.
OsCosimResult run_message_cosim(const ir::ProcessNetwork& net,
                                const std::vector<bool>& in_hw,
                                const OsCosimConfig& config);

/// kSystem: co-simulates `graph` under `mapping` (true = hardware). Task
/// compute times come from the graph's cost annotations (sw_cycles /
/// hw_cycles).
SystemCosimResult run_system_cosim(const ir::TaskGraph& graph,
                                   const partition::Mapping& mapping,
                                   const SystemCosimConfig& config);

}  // namespace mhs::sim::detail
