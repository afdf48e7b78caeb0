// CDFG optimization passes.
//
// A small classic pipeline applied before code generation or synthesis:
//   * constant folding     — compute ops with constant operands,
//   * algebraic identities — x+0, x*1, x*0, x-x, shifts by 0, min(x,x)...
//   * common-subexpression elimination — structurally identical ops merge,
//   * dead-code elimination — ops unreachable from any output vanish.
//
// Because one Cdfg feeds both the compiler (mhs::sw) and high-level
// synthesis (mhs::hw), a single optimization here shrinks both the
// software cycle count and the hardware datapath — the co-design payoff
// of keeping one specification (§3.2 of the paper).
#pragma once

#include <cstddef>
#include <span>

#include "ir/cdfg.h"

namespace mhs::ir {

/// What the optimizer did (for reports and tests).
struct OptimizeStats {
  std::size_t constants_folded = 0;
  std::size_t identities_applied = 0;
  std::size_t subexpressions_merged = 0;
  std::size_t dead_ops_removed = 0;
  /// Rewrites justified by value-range facts (dead select arms removed,
  /// div/mul strength-reduced to shifts). Zero unless the facts overload
  /// is used.
  std::size_t range_rewrites = 0;
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
};

/// Returns an equivalent, usually smaller kernel: identical outputs for
/// every input assignment on which the original does not trap. An op
/// whose operands fold to constants it traps on (op_traps: a zero
/// divisor, a shift amount outside [0,64)) is kept, so it still traps,
/// but a trapping op that becomes unreachable from the outputs is
/// removed, as in any conventional optimizing compiler.
Cdfg optimize(const Cdfg& kernel, OptimizeStats* stats = nullptr);

/// Range-aware overload: `facts` carries one proven value interval per op
/// of `kernel`, indexed by OpId (analysis::absint produces exactly this;
/// empty means "no facts" and degrades to plain optimize). Unlocks
/// rewrites that are only sound under the proven intervals:
///   * kSelect whose condition interval excludes zero keeps only the taken
///     arm; a condition pinned to [0,0] keeps only the else arm;
///   * div/mul by a positive power-of-2 constant becomes shr/shl when the
///     other operand is proven nonnegative (trunc division == arithmetic
///     shift only holds there).
/// Equivalence contract is unchanged *for inputs satisfying the declared
/// ranges the facts were computed from*.
Cdfg optimize(const Cdfg& kernel, std::span<const ValueRange> facts,
              OptimizeStats* stats = nullptr);

}  // namespace mhs::ir
