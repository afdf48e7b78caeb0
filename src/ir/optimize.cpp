#include "ir/optimize.h"

#include <map>
#include <tuple>
#include <vector>

namespace mhs::ir {

namespace {

/// Structural key for CSE: kind + mapped operand ids + const value + name.
using CseKey =
    std::tuple<OpKind, std::vector<std::uint32_t>, std::int64_t, std::string>;

struct Rebuild {
  const Cdfg& in;
  Cdfg out;
  OptimizeStats stats;
  /// Proven value intervals indexed by `in`'s OpIds (empty = no facts).
  std::span<const ValueRange> facts;
  /// Mapping old OpId -> new OpId (invalid for dead ops).
  std::vector<OpId> remap;
  /// Whether the mapped new value is a known constant, and its value.
  std::map<std::uint32_t, std::int64_t> const_value;
  std::map<CseKey, OpId> cse;

  explicit Rebuild(const Cdfg& kernel)
      : in(kernel), out(kernel.name()), remap(kernel.num_ops()) {}

  const ValueRange* fact(OpId old_id) const {
    if (old_id.index() >= facts.size()) return nullptr;
    return &facts[old_id.index()];
  }

  bool is_const(OpId new_id, std::int64_t* value) const {
    const auto it = const_value.find(new_id.value());
    if (it == const_value.end()) return false;
    *value = it->second;
    return true;
  }

  /// Interns a constant (CSE on constants comes for free).
  OpId make_const(std::int64_t value) {
    const CseKey key{OpKind::kConst, {}, value, ""};
    const auto it = cse.find(key);
    if (it != cse.end()) return it->second;
    const OpId id = out.constant(value);
    cse.emplace(key, id);
    const_value[id.value()] = value;
    return id;
  }

  /// Tries the algebraic identity table; returns the replacement value id
  /// or invalid when no identity applies.
  OpId try_identity(OpKind kind, const std::vector<OpId>& args) {
    std::int64_t k = 0;
    const auto const0 = [&](std::int64_t* v) {
      return is_const(args[0], v);
    };
    const auto const1 = [&](std::int64_t* v) {
      return args.size() > 1 && is_const(args[1], v);
    };
    switch (kind) {
      case OpKind::kAdd:
        if (const0(&k) && k == 0) return args[1];
        if (const1(&k) && k == 0) return args[0];
        break;
      case OpKind::kSub:
        if (const1(&k) && k == 0) return args[0];
        if (args[0] == args[1]) return make_const(0);
        break;
      case OpKind::kMul:
        if ((const0(&k) && k == 0) || (const1(&k) && k == 0)) {
          return make_const(0);
        }
        if (const0(&k) && k == 1) return args[1];
        if (const1(&k) && k == 1) return args[0];
        break;
      case OpKind::kDiv:
        if (const1(&k) && k == 1) return args[0];
        break;
      case OpKind::kShl:
      case OpKind::kShr:
        if (const1(&k) && k == 0) return args[0];
        break;
      case OpKind::kAnd:
        if (args[0] == args[1]) return args[0];
        if ((const0(&k) && k == 0) || (const1(&k) && k == 0)) {
          return make_const(0);
        }
        if (const0(&k) && k == -1) return args[1];
        if (const1(&k) && k == -1) return args[0];
        break;
      case OpKind::kOr:
        if (args[0] == args[1]) return args[0];
        if (const0(&k) && k == 0) return args[1];
        if (const1(&k) && k == 0) return args[0];
        break;
      case OpKind::kXor:
        if (args[0] == args[1]) return make_const(0);
        if (const0(&k) && k == 0) return args[1];
        if (const1(&k) && k == 0) return args[0];
        break;
      case OpKind::kMin:
      case OpKind::kMax:
        if (args[0] == args[1]) return args[0];
        break;
      case OpKind::kCmpEq:
        if (args[0] == args[1]) return make_const(1);
        break;
      case OpKind::kCmpLt:
        if (args[0] == args[1]) return make_const(0);
        break;
      case OpKind::kSelect:
        if (const0(&k)) return k != 0 ? args[1] : args[2];
        if (args[1] == args[2]) return args[1];
        break;
      default:
        break;
    }
    return OpId::invalid();
  }

  void run() {
    stats.ops_before = in.num_ops();

    // ---- Liveness: ops reachable from outputs ----------------------------
    std::vector<bool> live(in.num_ops(), false);
    {
      std::vector<OpId> work = in.outputs();
      for (const OpId id : work) live[id.index()] = true;
      while (!work.empty()) {
        const OpId id = work.back();
        work.pop_back();
        for (const OpId operand : in.op(id).operands) {
          if (!live[operand.index()]) {
            live[operand.index()] = true;
            work.push_back(operand);
          }
        }
      }
      for (const OpId id : in.op_ids()) {
        if (!live[id.index()]) ++stats.dead_ops_removed;
      }
    }

    // ---- Forward rebuild --------------------------------------------------
    for (const OpId id : in.op_ids()) {
      if (!live[id.index()]) continue;
      const Op& op = in.op(id);
      switch (op.kind) {
        case OpKind::kConst:
          remap[id.index()] = make_const(op.value);
          break;
        case OpKind::kInput: {
          const CseKey key{OpKind::kInput, {}, 0, op.name};
          const auto it = cse.find(key);
          if (it != cse.end()) {
            remap[id.index()] = it->second;
          } else {
            const OpId new_id = op.range ? out.input(op.name, *op.range)
                                         : out.input(op.name);
            cse.emplace(key, new_id);
            remap[id.index()] = new_id;
          }
          break;
        }
        case OpKind::kOutput:
          out.output(op.name, remap[op.operands[0].index()]);
          break;
        default: {
          OpKind kind = op.kind;
          std::vector<OpId> args;
          args.reserve(op.operands.size());
          for (const OpId operand : op.operands) {
            args.push_back(remap[operand.index()]);
          }

          // Range-aware strengthening. Facts are indexed by the input
          // kernel's OpIds, so this only fires in the round they were
          // computed for (later fixpoint rounds run fact-free).
          if (!facts.empty()) {
            if (kind == OpKind::kSelect) {
              if (const ValueRange* cond = fact(op.operands[0])) {
                if (cond->lo > 0 || cond->hi < 0) {
                  remap[id.index()] = args[1];
                  ++stats.range_rewrites;
                  break;
                }
                if (cond->lo == 0 && cond->hi == 0) {
                  remap[id.index()] = args[2];
                  ++stats.range_rewrites;
                  break;
                }
              }
            } else if (kind == OpKind::kDiv || kind == OpKind::kMul) {
              // x / 2^k == x >> k and x * 2^k == x << k when x is proven
              // nonnegative (trunc division rounds toward zero; the
              // arithmetic shift rounds toward -inf — equal only at x>=0).
              std::int64_t divisor = 0;
              const ValueRange* a = fact(op.operands[0]);
              if (a != nullptr && a->lo >= 0 && is_const(args[1], &divisor) &&
                  divisor > 1 && (divisor & (divisor - 1)) == 0) {
                int shift = 0;
                while ((std::int64_t{1} << shift) < divisor) ++shift;
                kind = kind == OpKind::kDiv ? OpKind::kShr : OpKind::kShl;
                args[1] = make_const(shift);
                ++stats.range_rewrites;
              }
            }
          }

          // Constant folding — but never fold an op that traps on its
          // constants: keep it so it traps exactly like the original.
          std::vector<std::int64_t> values(args.size());
          bool all_const = true;
          for (std::size_t i = 0; i < args.size(); ++i) {
            all_const = all_const && is_const(args[i], &values[i]);
          }
          if (all_const && !op_traps(kind, values)) {
            remap[id.index()] = make_const(apply_op(kind, values));
            ++stats.constants_folded;
            break;
          }

          if (const OpId replacement = try_identity(kind, args);
              replacement.valid()) {
            remap[id.index()] = replacement;
            ++stats.identities_applied;
            break;
          }

          // CSE over structurally identical ops.
          std::vector<std::uint32_t> arg_values;
          for (const OpId a : args) arg_values.push_back(a.value());
          const CseKey key{kind, arg_values, 0, ""};
          if (const auto it = cse.find(key); it != cse.end()) {
            remap[id.index()] = it->second;
            ++stats.subexpressions_merged;
            break;
          }
          OpId new_id;
          if (args.size() == 1) {
            new_id = out.unary(kind, args[0]);
          } else if (args.size() == 2) {
            new_id = out.binary(kind, args[0], args[1]);
          } else {
            new_id = out.select(args[0], args[1], args[2]);
          }
          cse.emplace(key, new_id);
          remap[id.index()] = new_id;
          break;
        }
      }
    }
    stats.ops_after = out.num_ops();
  }
};

}  // namespace

Cdfg optimize(const Cdfg& kernel, OptimizeStats* stats) {
  return optimize(kernel, std::span<const ValueRange>{}, stats);
}

Cdfg optimize(const Cdfg& kernel, std::span<const ValueRange> facts,
              OptimizeStats* stats) {
  MHS_CHECK(facts.empty() || facts.size() == kernel.num_ops(),
            "optimize facts must be empty or one interval per op ("
                << facts.size() << " facts, " << kernel.num_ops() << " ops)");
  // Iterate to a fixpoint: folding one op can strand its producers, which
  // the next round's liveness pass then removes. Converges in a few
  // rounds; 8 is a safe bound (each round strictly shrinks or stops).
  // Facts are only valid against the original kernel's OpIds, so only the
  // first round sees them.
  OptimizeStats total;
  total.ops_before = kernel.num_ops();
  Cdfg current = kernel;
  for (int round = 0; round < 8; ++round) {
    Rebuild rebuild(current);
    if (round == 0) rebuild.facts = facts;
    rebuild.run();
    total.constants_folded += rebuild.stats.constants_folded;
    total.identities_applied += rebuild.stats.identities_applied;
    total.subexpressions_merged += rebuild.stats.subexpressions_merged;
    total.dead_ops_removed += rebuild.stats.dead_ops_removed;
    total.range_rewrites += rebuild.stats.range_rewrites;
    const bool changed = rebuild.stats.ops_after != current.num_ops() ||
                         rebuild.stats.constants_folded != 0 ||
                         rebuild.stats.identities_applied != 0 ||
                         rebuild.stats.subexpressions_merged != 0 ||
                         rebuild.stats.range_rewrites != 0;
    current = std::move(rebuild.out);
    if (!changed) break;
  }
  total.ops_after = current.num_ops();
  if (stats != nullptr) *stats = total;
  return current;
}

}  // namespace mhs::ir
