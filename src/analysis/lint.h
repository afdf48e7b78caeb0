// Dataflow lint passes.
//
// Where the verifiers (verify.h) enforce the invariants downstream passes
// *require*, the lint passes flag well-formed IR that is nonetheless
// suspicious: computation whose result can never reach an output, tasks
// no data flows through, channels nobody reads. Each finding is a
// Severity::kWarn (or kNote) Diag; lint passes assume the corresponding
// verifier reported no errors and may skip objects a verifier would have
// rejected.
//
// Warning codes emitted here:
//
//   CDFG100  dead op: its result can never reach an output
//   CDFG101  unused input port
//   CDFG102  kernel has no outputs at all
//
//   TG100    task disconnected from the rest of a multi-task graph
//   TG101    duplicate task name
//   TG102    deadline tighter than the task's best-case latency
//
//   PN100    channel is written but never read (no receive op)
//   PN101    channel is read but never written (no send op)
//   PN102    channel with no operations at all (unconnected)
//   PN103    process performs no channel ops in a multi-process network
//
// Note codes (informational, never gate):
//
//   TG103    zero-byte edge
#pragma once

#include "analysis/diag.h"
#include "ir/cdfg.h"
#include "ir/process_network.h"
#include "ir/task_graph.h"

namespace mhs::analysis {

/// Def-use / liveness lint over one kernel: dead ops (transitively unable
/// to reach any output), unused inputs, and output-free kernels.
/// Precondition: verify_cdfg reported no errors.
Diagnostics lint_cdfg(const ir::Cdfg& cdfg);

/// Reachability and annotation lint over one task graph.
/// Precondition: verify_task_graph reported no errors.
Diagnostics lint_task_graph(const ir::TaskGraph& graph);

/// Channel-connectivity lint over one process network.
/// Precondition: verify_network reported no errors.
Diagnostics lint_network(const ir::ProcessNetwork& net);

/// Convenience bundles: verify, then lint only if the verifier found no
/// errors (lint passes assume structural soundness). Returns the merged
/// diagnostics. The flow gates, cosynth::run's gate and mhs_lint start
/// from these.
Diagnostics analyze_cdfg(const ir::Cdfg& cdfg);
Diagnostics analyze_task_graph(const ir::TaskGraph& graph);
Diagnostics analyze_network(const ir::ProcessNetwork& net);

}  // namespace mhs::analysis
