// Structural IR verifiers.
//
// The co-design flow hands the same specification across several
// representations (behavioural CDFG → partitioned task graph → HLS
// schedule/binding → ISA code), and every hand-off is a place where a
// malformed artifact can silently corrupt downstream synthesis or
// co-simulation. Each verify_* pass checks the invariants downstream
// passes assume and reports violations as Severity::kError Diags with
// stable codes; it never throws on malformed IR (that is the point: it
// must be runnable on IR that would crash the consumers).
//
// Error codes emitted here:
//
//   CDFG001  operand references a value id that does not exist
//   CDFG002  operand references a value defined at or after its user
//            (forward reference / dataflow cycle)
//   CDFG003  operand count does not match the op kind's arity
//   CDFG004  input/output op without a port name
//   CDFG005  duplicate input or output port name
//   CDFG006  operand references an output op (outputs produce no value)
//   CDFG008  constant shift amount outside [0,63] (fixed-point width)
//   CDFG009  constant divisor of zero
//   CDFG010  serialize→deserialize round trip changes ir::content_hash,
//            or the printed text does not parse back (verify_roundtrip
//            only: it tests ir/serialize, not the kernel, so it runs at
//            the text boundary svc::analyze_artifact and at no flow gate)
//   CDFG011  input range annotation is empty (lo > hi)
//
//   TG001    edge endpoint references a task that does not exist
//   TG002    task graph contains a dependency cycle
//   TG003    self-edge
//   TG004    negative or non-finite cost/period/deadline annotation
//
//   PN001    channel op references a channel that does not exist
//   PN002    send/receive performed by a process that is not the
//            channel's registered producer/consumer
//   PN003    channel endpoint references a process that does not exist
//   PN008    channel with zero capacity
//   PN009    negative or non-finite cycles/area/bytes annotation
//
//   HLS001   op scheduled before an operand's producing cycle completes
//   HLS002   op bound to an FU instance beyond the allocated count
//   HLS003   two ops share an FU instance in overlapping control steps
//   HLS004   register index beyond the allocated register count
//   HLS005   op still executing past the schedule's makespan
#pragma once

#include "analysis/diag.h"
#include "hw/hls.h"
#include "ir/cdfg.h"
#include "ir/process_network.h"
#include "ir/task_graph.h"

namespace mhs::analysis {

/// Verifies the structural invariants of one behavioural kernel
/// (CDFG001..CDFG009, CDFG011).
Diagnostics verify_cdfg(const ir::Cdfg& cdfg);

/// The serializer's check on one kernel (CDFG010): prints it with
/// ir::to_text, parses the text back and reports CDFG010 when the parse
/// fails (with the parser's message) or ir::content_hash changes. Never
/// throws. svc::analyze_artifact, behind mhs_lint and /v1/lint, is the
/// one caller in the library. Precondition: verify_cdfg reported no
/// errors.
Diagnostics verify_roundtrip(const ir::Cdfg& cdfg);

/// Verifies one task graph (TG001..TG004).
Diagnostics verify_task_graph(const ir::TaskGraph& graph);

/// Verifies one process network (PN001..PN009).
Diagnostics verify_network(const ir::ProcessNetwork& net);

/// Verifies one synthesized implementation against its own schedule and
/// binding (HLS001..HLS005): no value is read before its producing cycle,
/// and the binding respects the allocated FU/register capacity.
Diagnostics verify_hls(const hw::HlsResult& impl);

/// Flow-gate entry points: structural verification plus (when the
/// structure is sound) the dataflow lints of lint.h. These are what
/// core::Flow and cosynth::run call between phases.
Diagnostics verify(const ir::Cdfg& cdfg);
Diagnostics verify(const ir::TaskGraph& graph);
Diagnostics verify(const ir::ProcessNetwork& net);
Diagnostics verify(const hw::HlsResult& impl);

/// Applies the lint-level policy to one gated stage: at kStrict, throws
/// VerifyFailure when `diags` contains errors; otherwise returns whether
/// errors are present, so callers can drop the un-consumable input (e.g.
/// skip a corrupt kernel) and continue. Callers at kOff should skip
/// verification entirely rather than call this.
bool apply_gate(const std::string& stage, LintLevel level,
                const Diagnostics& diags);

}  // namespace mhs::analysis
