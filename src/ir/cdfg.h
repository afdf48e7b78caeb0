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
  /// Throws PreconditionError on a missing input or a trap (op_traps).
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

// The 64-bit meaning of the compute ops, defined once: apply_op (and
// through it Cdfg::evaluate and hw::RtlSim), CompiledEval, the
// optimizer's fold guard and the ISS's arithmetic all use it. Arithmetic
// is two's-complement with wraparound, like the datapaths it models:
// fault injection can drive any bit pattern into an operand, so signed
// overflow must be well-defined, not UB.
constexpr std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
constexpr std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
constexpr std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
constexpr std::int64_t wrap_neg(std::int64_t a) { return wrap_sub(0, a); }
/// Rounds toward zero; INT64_MIN / -1 wraps to INT64_MIN. Needs b != 0.
constexpr std::int64_t wrap_div(std::int64_t a, std::int64_t b) {
  return b == -1 ? wrap_neg(a) : a / b;
}
/// The one trap predicate: `kind` has no value on `args` — a zero
/// divisor, or a shift amount outside [0,64). Every other op is total.
constexpr bool op_traps(OpKind kind, std::span<const std::int64_t> args) {
  if (kind == OpKind::kDiv) return args[1] == 0;
  const bool shift = kind == OpKind::kShl || kind == OpKind::kShr;
  return shift && (args[1] < 0 || args[1] >= 64);
}

/// Applies one operation to evaluated operand values. Throws
/// PreconditionError on a wrong operand count or a trap (op_traps).
std::int64_t apply_op(OpKind kind, std::span<const std::int64_t> args);

/// A kernel precompiled for repeated evaluation: the production
/// evaluator, run per sample by co-simulation and per vector by
/// hw::check_equivalence. (Cdfg::evaluate, which rebuilds name maps and
/// argument vectors on every call, stays the independent oracle.)
///
/// CompiledEval flattens the DAG once into fixed-slot steps (insertion
/// order is topological, and a pure DAG evaluates to the same values in
/// any topological order); both forms then run one tight array walk
/// over the steps with the op semantics above, bit-identical to
/// Cdfg::evaluate. run() throws apply_op's message at a trap; run_ops()
/// reports it.
///
/// Instances are cheap to move and safe to share across threads for
/// run()/run_ops(), which touch only caller-provided and local state.
class CompiledEval {
 public:
  CompiledEval() = default;
  /// Precondition: `cdfg` passes analysis::verify (builders guarantee it).
  explicit CompiledEval(const Cdfg& cdfg);

  std::size_t num_ops() const { return initial_.size(); }
  std::size_t num_inputs() const { return input_names_.size(); }
  std::size_t num_outputs() const { return output_slots_.size(); }
  /// Input names in Cdfg insertion order (= Cdfg::inputs()).
  const std::vector<std::string>& input_names() const { return input_names_; }

  /// Evaluates on positional inputs (input_names() order) and writes
  /// num_outputs() values to `out` (Cdfg::outputs() order).
  void run(std::span<const std::int64_t> in,
           std::span<std::int64_t> out) const;

  /// The per-op form, which never throws for a trap: evaluates on
  /// positional inputs and writes every op's value to `values`
  /// (num_ops() entries, indexed by OpId; an output op holds its
  /// operand's value). Returns false at the first trapping op, leaving
  /// the values of it and every later op unspecified.
  bool run_ops(std::span<const std::int64_t> in,
               std::span<std::int64_t> values) const;

 private:
  struct Step {
    OpKind kind;
    std::uint32_t dst;
    std::uint32_t arg[3];  ///< operand value slots (unused trail = 0)
  };
  /// The step loop of both forms: fills `value` (num_ops() slots) with
  /// the constants, the inputs and each step's result, and returns the
  /// first trapping step (its slot unwritten), or null.
  const Step* exec(std::span<const std::int64_t> in,
                   std::int64_t* value) const;

  std::vector<Step> steps_;             ///< compute ops, insertion order
  std::vector<std::int64_t> initial_;   ///< value array with consts filled
  std::vector<std::uint32_t> input_slots_;
  std::vector<std::uint32_t> output_ops_;    ///< op id per output
  std::vector<std::uint32_t> output_slots_;  ///< source slot per output
  std::vector<std::string> input_names_;
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
