// Cycle-accurate RTL-level interpreter for synthesized implementations.
//
// RtlSim executes an HlsResult the way the emitted hardware would: it
// walks the FSM controller state-by-state, fires ops on the functional-
// unit instances the binding assigned them to, routes every operand read
// through a bound resource (the producing FU's output latch or the
// allocated register), and wraps each committed value to the op's proven
// datapath width (PR 9 narrowing). Unlike Cdfg::evaluate, which
// evaluates the dataflow graph directly and can only validate values,
// RtlSim validates the *structure*: a schedule that reads a value before
// its producer finishes, a binding that recycles an FU before a consumer
// has read it, a register shared by two live values, or a controller
// word that disagrees with the schedule all surface as hard failures
// here instead of silently producing the right answer.
//
// This is the hardware half of the differential co-verification story
// (hw::check_equivalence): the same kernel runs through ir::CompiledEval
// (the software reference) and through RtlSim, and every output bit,
// the cycle count, and the final register file must agree.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/hls.h"

namespace mhs::hw {

/// Everything one RtlSim run produced, beyond the named outputs: the
/// observable architectural state a differential checker can compare.
struct RtlTrace {
  /// Named kernel outputs, latched at their scheduled control step.
  std::map<std::string, std::int64_t> outputs;
  /// FSM states executed (== Schedule::num_steps() on a clean run).
  std::size_t cycles = 0;
  /// Final register-file contents, indexed by register id.
  std::vector<std::int64_t> register_file;
  /// Op issues onto FU instances over the whole run.
  std::size_t fu_fires = 0;
  /// Register-file writes over the whole run.
  std::size_t register_writes = 0;
};

/// The interpreter. Construction validates that the controller's control
/// words agree bit-for-bit with the schedule and binding (every active
/// op's FU-enable bit asserted and vice versa; every registered value's
/// load bit asserted at its latch state and vice versa) and throws
/// InternalError on any disagreement. run() then executes vectors; it is
/// const and safe to share across threads.
class RtlSim {
 public:
  /// `impl` must outlive the RtlSim (the schedule holds a pointer to its
  /// CDFG, and RtlSim holds a pointer to `impl`).
  explicit RtlSim(const HlsResult& impl);

  // Structural accessors (pinned against hw::emit_verilog by tests).
  std::size_t num_states() const;
  std::size_t num_fu_instances() const;
  std::size_t num_registers() const;
  std::size_t num_compute_ops() const { return compute_ops_; }

  /// Executes one input vector through the datapath. Throws
  /// PreconditionError on a missing input or an arithmetic trap
  /// (divide-by-zero, shift out of [0,64)) — the same traps as the
  /// software reference — and InternalError on a resource hazard (a
  /// value unreachable through any bound resource at its read step).
  RtlTrace run(const std::map<std::string, std::int64_t>& inputs) const;

 private:
  void check_controller() const;

  const HlsResult* impl_;
  /// Compute ops issuing at each control step, in op-id order.
  std::vector<std::vector<ir::OpId>> issue_at_;
  /// Output ops latching at each step; outputs whose scheduled step is
  /// the makespan itself latch in the post-loop epilogue.
  std::vector<std::vector<ir::OpId>> output_at_;
  std::vector<ir::OpId> epilogue_outputs_;
  std::size_t compute_ops_ = 0;
};

/// Sign-extends the low `width` bits of `v` (two's complement): the value
/// a `width`-bit datapath slice actually stores. Identity for width >= 64.
std::int64_t wrap_to_width(std::int64_t v, std::size_t width);

}  // namespace mhs::hw
