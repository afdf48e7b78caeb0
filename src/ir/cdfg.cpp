#include "ir/cdfg.h"

#include <algorithm>

namespace mhs::ir {

int op_arity(OpKind kind) {
  switch (kind) {
    case OpKind::kConst:
    case OpKind::kInput:
      return 0;
    case OpKind::kNeg:
    case OpKind::kAbs:
    case OpKind::kOutput:
      return 1;
    case OpKind::kSelect:
      return 3;
    default:
      return 2;
  }
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConst:  return "const";
    case OpKind::kInput:  return "input";
    case OpKind::kAdd:    return "add";
    case OpKind::kSub:    return "sub";
    case OpKind::kMul:    return "mul";
    case OpKind::kDiv:    return "div";
    case OpKind::kShl:    return "shl";
    case OpKind::kShr:    return "shr";
    case OpKind::kAnd:    return "and";
    case OpKind::kOr:     return "or";
    case OpKind::kXor:    return "xor";
    case OpKind::kNeg:    return "neg";
    case OpKind::kAbs:    return "abs";
    case OpKind::kMin:    return "min";
    case OpKind::kMax:    return "max";
    case OpKind::kCmpLt:  return "cmplt";
    case OpKind::kCmpEq:  return "cmpeq";
    case OpKind::kSelect: return "select";
    case OpKind::kOutput: return "output";
  }
  return "?";
}

bool op_is_compute(OpKind kind) {
  return kind != OpKind::kConst && kind != OpKind::kInput &&
         kind != OpKind::kOutput;
}

namespace {

/// The value of compute op `kind` on operands `a` that do not trap
/// (op_traps is false); operands past the kind's arity are ignored.
std::int64_t op_value(OpKind kind, const std::int64_t* a) {
  switch (kind) {
    case OpKind::kAdd: return wrap_add(a[0], a[1]);
    case OpKind::kSub: return wrap_sub(a[0], a[1]);
    case OpKind::kMul: return wrap_mul(a[0], a[1]);
    case OpKind::kDiv: return wrap_div(a[0], a[1]);
    case OpKind::kShl:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a[0])
                                       << a[1]);
    case OpKind::kShr: return a[0] >> a[1];
    case OpKind::kAnd: return a[0] & a[1];
    case OpKind::kOr:  return a[0] | a[1];
    case OpKind::kXor: return a[0] ^ a[1];
    case OpKind::kNeg: return wrap_neg(a[0]);
    case OpKind::kAbs: return a[0] < 0 ? wrap_neg(a[0]) : a[0];
    case OpKind::kMin: return std::min(a[0], a[1]);
    case OpKind::kMax: return std::max(a[0], a[1]);
    case OpKind::kCmpLt: return a[0] < a[1] ? 1 : 0;
    case OpKind::kCmpEq: return a[0] == a[1] ? 1 : 0;
    case OpKind::kSelect: return a[0] != 0 ? a[1] : a[2];
    case OpKind::kConst:
    case OpKind::kInput:
    case OpKind::kOutput:
      break;
  }
  MHS_ASSERT(false, "apply_op on non-compute kind " << op_name(kind));
  return 0;
}

}  // namespace

std::int64_t apply_op(OpKind kind, std::span<const std::int64_t> args) {
  MHS_CHECK(static_cast<int>(args.size()) == op_arity(kind),
            "apply_op(" << op_name(kind) << "): wrong arity "
                        << args.size());
  if (op_traps(kind, args)) {
    MHS_CHECK(kind != OpKind::kDiv, "CDFG divide by zero");
    MHS_CHECK(false, "shift amount " << args[1] << " out of [0,64)");
  }
  return op_value(kind, args.data());
}

Cdfg Cdfg::from_ops(std::string name, std::vector<Op> ops) {
  Cdfg cdfg(std::move(name));
  cdfg.ops_ = std::move(ops);
  return cdfg;
}

OpId Cdfg::push(Op op) {
  for (const OpId operand : op.operands) check(operand);
  const OpId id(static_cast<std::uint32_t>(ops_.size()));
  ops_.push_back(std::move(op));
  return id;
}

OpId Cdfg::constant(std::int64_t value) {
  Op op;
  op.kind = OpKind::kConst;
  op.value = value;
  return push(std::move(op));
}

OpId Cdfg::input(std::string name) {
  MHS_CHECK(!name.empty(), "input needs a name");
  Op op;
  op.kind = OpKind::kInput;
  op.name = std::move(name);
  return push(std::move(op));
}

OpId Cdfg::input(std::string name, ValueRange range) {
  MHS_CHECK(range.lo <= range.hi,
            "input '" << name << "': empty range [" << range.lo << ","
                      << range.hi << "]");
  const OpId id = input(std::move(name));
  if (!range.is_full()) ops_[id.index()].range = range;
  return id;
}

OpId Cdfg::unary(OpKind kind, OpId a) {
  MHS_CHECK(op_arity(kind) == 1 && op_is_compute(kind),
            "unary() with non-unary kind " << op_name(kind));
  Op op;
  op.kind = kind;
  op.operands = {a};
  return push(std::move(op));
}

OpId Cdfg::binary(OpKind kind, OpId a, OpId b) {
  MHS_CHECK(op_arity(kind) == 2, "binary() with non-binary kind "
                                     << op_name(kind));
  Op op;
  op.kind = kind;
  op.operands = {a, b};
  return push(std::move(op));
}

OpId Cdfg::select(OpId cond, OpId a, OpId b) {
  Op op;
  op.kind = OpKind::kSelect;
  op.operands = {cond, a, b};
  return push(std::move(op));
}

OpId Cdfg::output(std::string name, OpId value) {
  MHS_CHECK(!name.empty(), "output needs a name");
  Op op;
  op.kind = OpKind::kOutput;
  op.operands = {value};
  op.name = std::move(name);
  return push(std::move(op));
}

const Op& Cdfg::op(OpId id) const {
  check(id);
  return ops_[id.index()];
}

std::vector<OpId> Cdfg::op_ids() const {
  std::vector<OpId> ids;
  ids.reserve(ops_.size());
  for (std::uint32_t i = 0; i < ops_.size(); ++i) ids.emplace_back(i);
  return ids;
}

std::vector<OpId> Cdfg::inputs() const {
  std::vector<OpId> ids;
  for (std::uint32_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind == OpKind::kInput) ids.emplace_back(i);
  }
  return ids;
}

std::vector<OpId> Cdfg::outputs() const {
  std::vector<OpId> ids;
  for (std::uint32_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind == OpKind::kOutput) ids.emplace_back(i);
  }
  return ids;
}

UseIndex::UseIndex(const Cdfg& cdfg) : offset_(cdfg.num_ops() + 1, 0) {
  const std::size_t n = cdfg.num_ops();
  // Calls visit(v) once per distinct in-range operand v of op i.
  const auto for_each_use = [&](std::uint32_t i, auto&& visit) {
    const std::vector<OpId>& operands = cdfg.op(OpId(i)).operands;
    for (auto it = operands.begin(); it != operands.end(); ++it) {
      if (!it->valid() || it->index() >= n) continue;
      if (std::find(operands.begin(), it, *it) != it) continue;
      visit(it->index());
    }
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    for_each_use(i, [&](std::size_t v) { ++offset_[v + 1]; });
  }
  for (std::size_t v = 0; v < n; ++v) offset_[v + 1] += offset_[v];
  users_.resize(offset_[n]);
  std::vector<std::uint32_t> cursor(offset_.begin(), offset_.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    for_each_use(i, [&](std::size_t v) { users_[cursor[v]++] = OpId(i); });
  }
}

std::map<std::string, std::int64_t> Cdfg::evaluate(
    const std::map<std::string, std::int64_t>& in) const {
  std::vector<std::int64_t> value(ops_.size(), 0);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    switch (op.kind) {
      case OpKind::kConst:
        value[i] = op.value;
        break;
      case OpKind::kInput: {
        const auto it = in.find(op.name);
        MHS_CHECK(it != in.end(), "missing input '" << op.name << "'");
        value[i] = it->second;
        break;
      }
      case OpKind::kOutput:
        value[i] = value[op.operands[0].index()];
        out[op.name] = value[i];
        break;
      default: {
        std::vector<std::int64_t> args;
        args.reserve(op.operands.size());
        for (const OpId o : op.operands) args.push_back(value[o.index()]);
        value[i] = apply_op(op.kind, args);
        break;
      }
    }
  }
  return out;
}

CompiledEval::CompiledEval(const Cdfg& cdfg) {
  const std::size_t n = cdfg.num_ops();
  initial_.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Op& op = cdfg.op(OpId(i));
    switch (op.kind) {
      case OpKind::kConst:
        initial_[i] = op.value;
        break;
      case OpKind::kInput:
        input_slots_.push_back(i);
        input_names_.push_back(op.name);
        break;
      case OpKind::kOutput:
        output_ops_.push_back(i);
        output_slots_.push_back(op.operands[0].index());
        break;
      default: {
        Step step{op.kind, i, {0, 0, 0}};
        MHS_CHECK(op.operands.size() <= 3,
                  "op " << op_name(op.kind) << " arity > 3");
        for (std::size_t k = 0; k < op.operands.size(); ++k) {
          step.arg[k] = op.operands[k].index();
        }
        steps_.push_back(step);
        break;
      }
    }
  }
}

const CompiledEval::Step* CompiledEval::exec(
    std::span<const std::int64_t> in, std::int64_t* value) const {
  MHS_CHECK(in.size() == input_slots_.size(),
            "CompiledEval: " << in.size() << " inputs, kernel expects "
                             << input_slots_.size());
  std::copy(initial_.begin(), initial_.end(), value);
  for (std::size_t k = 0; k < input_slots_.size(); ++k) {
    value[input_slots_[k]] = in[k];
  }
  for (const Step& step : steps_) {
    const std::int64_t args[3] = {value[step.arg[0]], value[step.arg[1]],
                                  value[step.arg[2]]};
    if (op_traps(step.kind, args)) return &step;
    value[step.dst] = op_value(step.kind, args);
  }
  return nullptr;
}

void CompiledEval::run(std::span<const std::int64_t> in,
                       std::span<std::int64_t> out) const {
  MHS_CHECK(out.size() == output_slots_.size(),
            "CompiledEval: " << out.size() << " output slots, kernel has "
                             << output_slots_.size());
  // Value array on the stack for typical kernel sizes; no per-call heap
  // traffic in the co-simulation inner loop.
  constexpr std::size_t kStackSlots = 256;
  std::int64_t stack_values[kStackSlots];
  std::vector<std::int64_t> heap_values;
  std::int64_t* value = stack_values;
  if (initial_.size() > kStackSlots) {
    heap_values.resize(initial_.size());
    value = heap_values.data();
  }
  if (const Step* trap = exec(in, value)) {
    // Throws the trap's message, exactly as apply_op reports it.
    const std::int64_t args[3] = {value[trap->arg[0]], value[trap->arg[1]],
                                  value[trap->arg[2]]};
    apply_op(trap->kind,
             std::span<const std::int64_t>(
                 args, static_cast<std::size_t>(op_arity(trap->kind))));
  }
  for (std::size_t m = 0; m < output_slots_.size(); ++m) {
    out[m] = value[output_slots_[m]];
  }
}

bool CompiledEval::run_ops(std::span<const std::int64_t> in,
                           std::span<std::int64_t> values) const {
  MHS_CHECK(values.size() == initial_.size(),
            "CompiledEval: " << values.size() << " value slots, kernel has "
                             << initial_.size() << " ops");
  if (exec(in, values.data()) != nullptr) return false;
  for (std::size_t m = 0; m < output_ops_.size(); ++m) {
    values[output_ops_[m]] = values[output_slots_[m]];
  }
  return true;
}

std::size_t Cdfg::depth() const {
  std::vector<std::size_t> d(ops_.size(), 0);
  std::size_t best = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    std::size_t in_depth = 0;
    for (const OpId o : op.operands) {
      in_depth = std::max(in_depth, d[o.index()]);
    }
    d[i] = in_depth + (op_is_compute(op.kind) ? 1 : 0);
    best = std::max(best, d[i]);
  }
  return best;
}

void Cdfg::check(OpId id) const {
  MHS_CHECK(id.valid() && id.index() < ops_.size(),
            "invalid op id " << id << " in cdfg '" << name_ << "'");
}

std::uint64_t content_hash(const Cdfg& cdfg) {
  // FNV-1a over a canonical byte stream of the op list. Ops are stored in
  // insertion (topological) order and OpIds are dense, so the stream is a
  // faithful serialization of the dataflow structure.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  const auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    for (const char c : s) mix_byte(static_cast<unsigned char>(c));
  };
  mix_u64(cdfg.num_ops());
  for (const OpId id : cdfg.op_ids()) {
    const Op& op = cdfg.op(id);
    mix_u64(static_cast<std::uint64_t>(op.kind));
    mix_u64(op.operands.size());
    for (const OpId operand : op.operands) mix_u64(operand.index());
    if (op.kind == OpKind::kConst) {
      mix_u64(static_cast<std::uint64_t>(op.value));
    }
    if (op.kind == OpKind::kInput || op.kind == OpKind::kOutput) {
      mix_str(op.name);
    }
    // Range annotations participate in the identity (they change analysis
    // results, narrowing, and optimization), but only when present so every
    // pre-annotation kernel keeps its historical hash.
    if (op.range && !op.range->is_full()) {
      mix_byte(0xABu);
      mix_u64(static_cast<std::uint64_t>(op.range->lo));
      mix_u64(static_cast<std::uint64_t>(op.range->hi));
    }
  }
  return h;
}

Cdfg with_input_ranges(const Cdfg& cdfg, ValueRange range) {
  MHS_CHECK(range.lo <= range.hi, "with_input_ranges: empty range ["
                                      << range.lo << "," << range.hi << "]");
  std::vector<Op> ops;
  ops.reserve(cdfg.num_ops());
  for (const OpId id : cdfg.op_ids()) {
    Op op = cdfg.op(id);
    if (op.kind == OpKind::kInput) {
      if (range.is_full()) {
        op.range.reset();
      } else {
        op.range = range;
      }
    }
    ops.push_back(std::move(op));
  }
  return Cdfg::from_ops(cdfg.name(), std::move(ops));
}

Cdfg extract_cone(const Cdfg& cdfg, OpId target) {
  MHS_CHECK(target.index() < cdfg.num_ops(),
            "extract_cone: op " << target << " out of range");
  std::vector<bool> in_cone(cdfg.num_ops(), false);
  in_cone[target.index()] = true;
  // Ids are topological, so one reverse sweep closes the cone.
  const std::vector<OpId> ids = cdfg.op_ids();
  for (std::size_t i = ids.size(); i-- > 0;) {
    if (!in_cone[ids[i].index()]) continue;
    for (const OpId operand : cdfg.op(ids[i]).operands) {
      in_cone[operand.index()] = true;
    }
  }
  std::vector<Op> ops;
  std::vector<OpId> remap(cdfg.num_ops());
  bool has_output = false;
  for (const OpId id : ids) {
    if (!in_cone[id.index()]) continue;
    Op op = cdfg.op(id);
    for (OpId& operand : op.operands) {
      operand = remap[operand.index()];
    }
    has_output = has_output || op.kind == OpKind::kOutput;
    remap[id.index()] = OpId(static_cast<std::uint32_t>(ops.size()));
    ops.push_back(std::move(op));
  }
  if (!has_output) {
    Op out;
    out.kind = OpKind::kOutput;
    out.name = "y";
    out.operands = {remap[target.index()]};
    ops.push_back(std::move(out));
  }
  return Cdfg::from_ops(cdfg.name() + "_cone", std::move(ops));
}

}  // namespace mhs::ir
