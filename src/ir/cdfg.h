// Control/data-flow graph (CDFG) — the fine-grained behavioural IR.
//
// A Cdfg describes one kernel body as a dataflow DAG over 64-bit integer
// values. The same Cdfg is the single source specification from which mhs
// derives both implementations, exactly the "unified understanding of
// hardware and software functionality" that §3.2 of the paper calls for:
//   * mhs::hw  schedules/binds it into a datapath + FSM (high-level synth),
//   * mhs::sw  compiles it to the RISC ISA and runs it on the ISS,
//   * the built-in evaluator provides the functional reference for both.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/ids.h"

namespace mhs::ir {

struct OpTag {};
/// Identifier of one operation (and of the value it produces).
using OpId = Id<OpTag>;

/// Operation kinds. Arity is fixed per kind (see op_arity()).
enum class OpKind {
  kConst,   ///< literal value, no operands
  kInput,   ///< named kernel input, no operands
  kAdd,
  kSub,
  kMul,
  kDiv,     ///< signed division; evaluator traps divide-by-zero
  kShl,
  kShr,     ///< arithmetic shift right
  kAnd,
  kOr,
  kXor,
  kNeg,
  kAbs,
  kMin,
  kMax,
  kCmpLt,   ///< 1 if a < b else 0 (signed)
  kCmpEq,   ///< 1 if a == b else 0
  kSelect,  ///< operands (cond, a, b): cond != 0 ? a : b
  kOutput,  ///< named kernel output, one operand
};

/// Number of operands required by `kind`.
int op_arity(OpKind kind);
/// Human-readable mnemonic ("add", "mul", ...).
const char* op_name(OpKind kind);
/// True for kAdd..kSelect (has a result consumed by other ops).
bool op_is_compute(OpKind kind);

/// Declared value range of a kernel input, inclusive on both ends.
/// The contract: every input assignment the kernel is evaluated on keeps
/// the named input inside [lo, hi]. Static analyses (analysis::absint)
/// may assume it; the default covers all of i64, so an unannotated input
/// promises nothing.
struct ValueRange {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();

  bool operator==(const ValueRange&) const = default;
  /// True when the range is the full i64 domain (the no-information
  /// default — serialization and hashing omit it).
  bool is_full() const {
    return lo == std::numeric_limits<std::int64_t>::min() &&
           hi == std::numeric_limits<std::int64_t>::max();
  }
};

/// One operation node.
struct Op {
  OpKind kind = OpKind::kConst;
  std::vector<OpId> operands;
  /// Literal for kConst.
  std::int64_t value = 0;
  /// Port name for kInput / kOutput; empty otherwise.
  std::string name;
  /// Declared range for kInput ops; meaningless on other kinds. Absent
  /// (or full) = no promise.
  std::optional<ValueRange> range;
};

/// A dataflow kernel. Append-only; OpIds are dense.
class Cdfg {
 public:
  Cdfg() = default;
  explicit Cdfg(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Constructs a kernel directly from a raw op list WITHOUT any
  /// validation — the deserializer's entry point, so corrupted artifacts
  /// can be loaded and reported by analysis::verify_cdfg with stable
  /// diagnostic codes instead of crashing the parser. Every other
  /// builder validates its operands; a kernel built here must pass the
  /// verifier before evaluate(), depth(), or synthesis may be called.
  static Cdfg from_ops(std::string name, std::vector<Op> ops);

  /// Builders. Each returns the id of the value produced.
  OpId constant(std::int64_t value);
  OpId input(std::string name);
  /// Input with a declared value range (lo <= hi required).
  OpId input(std::string name, ValueRange range);
  OpId unary(OpKind kind, OpId a);
  OpId binary(OpKind kind, OpId a, OpId b);
  OpId select(OpId cond, OpId a, OpId b);
  OpId output(std::string name, OpId value);

  // Shorthand builders.
  OpId add(OpId a, OpId b) { return binary(OpKind::kAdd, a, b); }
  OpId sub(OpId a, OpId b) { return binary(OpKind::kSub, a, b); }
  OpId mul(OpId a, OpId b) { return binary(OpKind::kMul, a, b); }
  OpId shr(OpId a, OpId b) { return binary(OpKind::kShr, a, b); }
  OpId shl(OpId a, OpId b) { return binary(OpKind::kShl, a, b); }
  OpId band(OpId a, OpId b) { return binary(OpKind::kAnd, a, b); }
  OpId bxor(OpId a, OpId b) { return binary(OpKind::kXor, a, b); }

  std::size_t num_ops() const { return ops_.size(); }
  const Op& op(OpId id) const;

  /// All op ids in insertion (and thus topological) order: operands always
  /// precede their users because builders only accept existing ids.
  std::vector<OpId> op_ids() const;

  /// Ids of input / output ops in insertion order.
  std::vector<OpId> inputs() const;
  std::vector<OpId> outputs() const;

  /// Evaluates the kernel on the given named inputs; returns named outputs.
  /// Throws PreconditionError on a missing input or divide-by-zero.
  std::map<std::string, std::int64_t> evaluate(
      const std::map<std::string, std::int64_t>& in) const;

  /// Longest combinational chain in op count (unit-delay depth).
  std::size_t depth() const;

 private:
  OpId push(Op op);
  void check(OpId id) const;

  std::string name_;
  std::vector<Op> ops_;
};

/// The use lists of a kernel: for every value, the ops that consume it.
///
/// Built from the operand lists in linear time into CSR form (per-value
/// offsets into one array of user ids), so a per-op walk over users
/// costs O(ops + operands) in total rather than a rescan of the kernel
/// per query. users(v) lists each consuming op once, even one that reads v
/// twice, in ascending id order. Operand ids outside the kernel (an
/// unverified from_ops kernel) are skipped. The index is a snapshot: ops
/// appended to the kernel afterwards are not covered.
class UseIndex {
 public:
  explicit UseIndex(const Cdfg& cdfg);

  /// Ops that consume the value of `id`. Precondition: id < num_ops of
  /// the indexed kernel.
  std::span<const OpId> users(OpId id) const {
    return {users_.data() + offset_[id.index()],
            users_.data() + offset_[id.index() + 1]};
  }

 private:
  std::vector<std::uint32_t> offset_;  ///< num_ops + 1 entries
  std::vector<OpId> users_;
};

/// Applies one operation to evaluated operand values (shared by the Cdfg
/// evaluators, the equivalence checker, and hw::RtlSim).
std::int64_t apply_op(OpKind kind, std::span<const std::int64_t> args);

/// A kernel precompiled for repeated evaluation.
///
/// Cdfg::evaluate rebuilds name maps and per-op argument vectors on
/// every call — fine for one-shot functional checks, ruinous in the
/// co-simulation inner loop where the same kernel runs per sample.
/// CompiledEval flattens the DAG once into fixed-slot steps (insertion
/// order is topological, and a pure DAG evaluates to the same values in
/// any topological order), then run() is a tight array walk delegating
/// each step to apply_op — results bit-identical to evaluate(),
/// including its divide-by-zero and shift-range traps.
///
/// Instances are cheap to move and safe to share across threads for
/// run()/evaluate(), which touch only caller-provided and local state.
class CompiledEval {
 public:
  CompiledEval() = default;
  /// Precondition: `cdfg` passes analysis::verify (builders guarantee it).
  explicit CompiledEval(const Cdfg& cdfg);

  std::size_t num_inputs() const { return input_names_.size(); }
  std::size_t num_outputs() const { return output_names_.size(); }
  /// Port names in Cdfg insertion order (= Cdfg::inputs()/outputs()).
  const std::vector<std::string>& input_names() const { return input_names_; }
  const std::vector<std::string>& output_names() const {
    return output_names_;
  }

  /// Evaluates on positional inputs (input_names() order) and writes
  /// num_outputs() values to `out` (output_names() order).
  void run(std::span<const std::int64_t> in,
           std::span<std::int64_t> out) const;

  /// Map-based convenience, bit-identical to Cdfg::evaluate.
  std::map<std::string, std::int64_t> evaluate(
      const std::map<std::string, std::int64_t>& in) const;

 private:
  struct Step {
    OpKind kind;
    std::uint32_t dst;
    std::uint32_t arg[3];  ///< operand value slots (unused trail = 0)
  };
  std::vector<Step> steps_;             ///< compute ops, insertion order
  std::vector<std::int64_t> initial_;   ///< value array with consts filled
  std::vector<std::uint32_t> input_slots_;
  std::vector<std::uint32_t> output_slots_;  ///< source slot per output
  std::vector<std::string> input_names_;
  std::vector<std::string> output_names_;
};

/// Stable content hash of a kernel: op kinds, operand wiring, constant
/// values, and port names (the graph's display name is excluded). Equal
/// content hashes equal across runs and processes (FNV-1a, no std::hash),
/// so the value is a sound cache identity — unlike the object's address,
/// which changes between runs and dangles if the kernel is freed.
std::uint64_t content_hash(const Cdfg& cdfg);

/// Returns a copy of `cdfg` with every input's range annotation replaced
/// by `range` — the one-liner for "this kernel only ever sees samples in
/// [lo, hi]", which is what unlocks proven-safe datapath narrowing.
Cdfg with_input_ranges(const Cdfg& cdfg, ValueRange range);

/// Rebuilds the transitive operand cone of `target` as a self-contained
/// kernel named "<name>_cone": only `target`, its operands, and their
/// operands (recursively) survive; inputs keep their declared ranges. If
/// no output op lands in the cone, `target`'s value is exposed as output
/// "y" so the result is always evaluable. This is the fuzzers' shrinking
/// primitive — the smallest op chain that still reproduces a failure at
/// `target` — and is deterministic (ids renumber in topological order).
Cdfg extract_cone(const Cdfg& cdfg, OpId target);

}  // namespace mhs::ir
