#include "analysis/verify.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "ir/serialize.h"

namespace mhs::analysis {

namespace {

DiagLocation op_loc(std::size_t id) {
  DiagLocation loc;
  loc.kind = "op";
  loc.id = static_cast<std::int64_t>(id);
  return loc;
}

DiagLocation kernel_loc(const ir::Cdfg& cdfg) {
  DiagLocation loc;
  loc.kind = "kernel";
  loc.name = cdfg.name();
  return loc;
}

std::string fmt_msg(const std::ostringstream& os) { return os.str(); }

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

Diagnostics verify_cdfg(const ir::Cdfg& cdfg) {
  Diagnostics diags;
  const std::size_t n = cdfg.num_ops();
  std::set<std::string> input_names;
  std::set<std::string> output_names;

  for (std::size_t i = 0; i < n; ++i) {
    const ir::Op& op = cdfg.op(ir::OpId(static_cast<std::uint32_t>(i)));

    if (static_cast<int>(op.operands.size()) != ir::op_arity(op.kind)) {
      std::ostringstream os;
      os << ir::op_name(op.kind) << " takes " << ir::op_arity(op.kind)
         << " operand(s), has " << op.operands.size();
      diags.add("CDFG003", Severity::kError, op_loc(i), fmt_msg(os));
    }

    // Operand wiring. Checks are ordered so that each operand yields at
    // most one finding: dangling beats forward-reference beats
    // output-as-value.
    for (const ir::OpId operand : op.operands) {
      if (!operand.valid() || operand.index() >= n) {
        std::ostringstream os;
        os << "operand " << operand << " is not a defined value (kernel has "
           << n << " ops)";
        diags.add("CDFG001", Severity::kError, op_loc(i), fmt_msg(os));
        continue;
      }
      if (operand.index() >= i) {
        std::ostringstream os;
        os << "operand " << operand.index()
           << " is defined at or after its use (dataflow must be acyclic "
              "and defs must precede uses)";
        diags.add("CDFG002", Severity::kError, op_loc(i), fmt_msg(os));
        continue;
      }
      if (cdfg.op(operand).kind == ir::OpKind::kOutput) {
        std::ostringstream os;
        os << "operand " << operand.index()
           << " is an output op, which produces no consumable value";
        diags.add("CDFG006", Severity::kError, op_loc(i), fmt_msg(os));
      }
    }

    // Port naming.
    if (op.kind == ir::OpKind::kInput || op.kind == ir::OpKind::kOutput) {
      if (op.name.empty()) {
        diags.add("CDFG004", Severity::kError, op_loc(i),
                  std::string(ir::op_name(op.kind)) + " op has no port name");
      } else {
        auto& seen =
            op.kind == ir::OpKind::kInput ? input_names : output_names;
        if (!seen.insert(op.name).second) {
          std::ostringstream os;
          os << "duplicate " << ir::op_name(op.kind) << " port '" << op.name
             << "'";
          diags.add("CDFG005", Severity::kError, op_loc(i), fmt_msg(os));
        }
      }
    }

    // Fixed-point width discipline: a constant shift amount must name a
    // bit position of the 64-bit word (the evaluator, the ISS, and the
    // barrel shifter all trap or mis-behave outside [0,63]). In-range is
    // decided by the same trap predicates absint's CDFG200/201 lints
    // use, so the structural and dataflow layers can never disagree.
    const auto const_operand = [&](std::size_t k) -> const ir::Op* {
      if (k >= op.operands.size()) return nullptr;
      const ir::OpId o = op.operands[k];
      if (!o.valid() || o.index() >= i) return nullptr;
      const ir::Op& def = cdfg.op(o);
      return def.kind == ir::OpKind::kConst ? &def : nullptr;
    };
    if (op.kind == ir::OpKind::kShl || op.kind == ir::OpKind::kShr) {
      if (const ir::Op* amount = const_operand(1);
          amount != nullptr &&
          proves_shift_trap(Interval::constant(amount->value))) {
        std::ostringstream os;
        os << "constant shift amount " << amount->value
           << " outside [0,63] for 64-bit values";
        diags.add("CDFG008", Severity::kError, op_loc(i), fmt_msg(os));
      }
    }
    if (op.kind == ir::OpKind::kDiv) {
      if (const ir::Op* divisor = const_operand(1);
          divisor != nullptr &&
          proves_divide_trap(Interval::constant(divisor->value))) {
        diags.add("CDFG009", Severity::kError, op_loc(i),
                  "constant divisor is zero");
      }
    }

    // Range annotations must be non-empty intervals; the parser loads an
    // inverted range verbatim so it can be reported here instead of
    // aborting the load.
    if (op.kind == ir::OpKind::kInput && op.range &&
        op.range->lo > op.range->hi) {
      std::ostringstream os;
      os << "input range [" << op.range->lo << "," << op.range->hi
         << "] is empty (lo > hi)";
      diags.add("CDFG011", Severity::kError, op_loc(i), fmt_msg(os));
    }
  }
  return diags;
}

Diagnostics verify_roundtrip(const ir::Cdfg& cdfg) {
  // Serialization stability: a structurally sound kernel must survive a
  // text round trip with its content hash (the estimate-cache identity)
  // intact. A library-built kernel can carry a name the text format
  // cannot print (a space, an '='); its parse failure is the finding.
  Diagnostics diags;
  try {
    const ir::Cdfg reparsed = ir::cdfg_from_text(ir::to_text(cdfg));
    if (ir::content_hash(reparsed) != ir::content_hash(cdfg)) {
      diags.add("CDFG010", Severity::kError, kernel_loc(cdfg),
                "content hash changed across a serialize/deserialize "
                "round trip");
    }
  } catch (const Error& e) {
    diags.add("CDFG010", Severity::kError, kernel_loc(cdfg),
              std::string("serialized text does not parse back: ") +
                  e.what());
  }
  return diags;
}

Diagnostics verify_task_graph(const ir::TaskGraph& graph) {
  Diagnostics diags;
  const std::size_t n = graph.num_tasks();

  for (const ir::TaskId t : graph.task_ids()) {
    const ir::Task& task = graph.task(t);
    DiagLocation loc;
    loc.kind = "task";
    loc.id = static_cast<std::int64_t>(t.index());
    loc.name = task.name;
    const auto check_field = [&](double v, const char* field) {
      if (!finite_nonneg(v)) {
        std::ostringstream os;
        os << field << " = " << v << " must be finite and non-negative";
        diags.add("TG004", Severity::kError, loc, fmt_msg(os));
      }
    };
    check_field(task.costs.sw_cycles, "sw_cycles");
    check_field(task.costs.hw_cycles, "hw_cycles");
    check_field(task.costs.hw_area, "hw_area");
    check_field(task.costs.sw_size, "sw_size");
    check_field(task.period, "period");
    check_field(task.deadline, "deadline");
  }

  // Edge endpoints, before any traversal relies on them.
  bool endpoints_ok = true;
  for (const ir::EdgeId e : graph.edge_ids()) {
    const ir::Edge& edge = graph.edge(e);
    DiagLocation loc;
    loc.kind = "edge";
    loc.id = static_cast<std::int64_t>(e.index());
    bool edge_ok = true;
    for (const ir::TaskId endpoint : {edge.src, edge.dst}) {
      if (!endpoint.valid() || endpoint.index() >= n) {
        std::ostringstream os;
        os << "endpoint " << endpoint << " is not a defined task (graph has "
           << n << " tasks)";
        diags.add("TG001", Severity::kError, loc, fmt_msg(os));
        edge_ok = false;
        endpoints_ok = false;
      }
    }
    if (edge_ok && edge.src == edge.dst) {
      std::ostringstream os;
      os << "self-edge on task " << edge.src.index();
      diags.add("TG003", Severity::kError, loc, fmt_msg(os));
    }
  }

  // Cycle check (Kahn peeling over adjacency rebuilt from raw edges, so
  // it works even when the graph's own indexes were never built).
  if (endpoints_ok) {
    std::vector<std::size_t> in_degree(n, 0);
    for (const ir::EdgeId e : graph.edge_ids()) {
      ++in_degree[graph.edge(e).dst.index()];
    }
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < n; ++i) {
      if (in_degree[i] == 0) ready.push_back(i);
    }
    std::size_t peeled = 0;
    while (!ready.empty()) {
      const std::size_t t = ready.back();
      ready.pop_back();
      ++peeled;
      for (const ir::EdgeId e : graph.edge_ids()) {
        const ir::Edge& edge = graph.edge(e);
        if (edge.src.index() != t) continue;
        if (--in_degree[edge.dst.index()] == 0) {
          ready.push_back(edge.dst.index());
        }
      }
    }
    if (peeled != n) {
      DiagLocation loc;
      loc.kind = "graph";
      loc.name = graph.name();
      std::ostringstream os;
      os << "dependency cycle through " << (n - peeled) << " task(s)";
      diags.add("TG002", Severity::kError, loc, fmt_msg(os));
    }
  }
  return diags;
}

Diagnostics verify_network(const ir::ProcessNetwork& net) {
  Diagnostics diags;
  const std::size_t num_procs = net.num_processes();
  const std::size_t num_chans = net.num_channels();

  for (const ir::ChannelId c : net.channel_ids()) {
    const ir::Channel& ch = net.channel(c);
    DiagLocation loc;
    loc.kind = "channel";
    loc.id = static_cast<std::int64_t>(c.index());
    loc.name = ch.name;
    for (const ir::ProcessId endpoint : {ch.producer, ch.consumer}) {
      if (!endpoint.valid() || endpoint.index() >= num_procs) {
        std::ostringstream os;
        os << "endpoint " << endpoint
           << " is not a defined process (network has " << num_procs
           << " processes)";
        diags.add("PN003", Severity::kError, loc, fmt_msg(os));
      }
    }
    if (ch.capacity == 0) {
      diags.add("PN008", Severity::kError, loc,
                "FIFO capacity must be at least 1");
    }
  }

  for (const ir::ProcessId p : net.process_ids()) {
    const ir::Process& proc = net.process(p);
    DiagLocation loc;
    loc.kind = "process";
    loc.id = static_cast<std::int64_t>(p.index());
    loc.name = proc.name;
    const auto check_field = [&](double v, const char* field) {
      if (!finite_nonneg(v)) {
        std::ostringstream os;
        os << field << " = " << v << " must be finite and non-negative";
        diags.add("PN009", Severity::kError, loc, fmt_msg(os));
      }
    };
    check_field(proc.sw_cycles, "sw_cycles");
    check_field(proc.hw_cycles, "hw_cycles");
    check_field(proc.hw_area, "hw_area");

    for (std::size_t k = 0; k < proc.ops.size(); ++k) {
      const ir::ChannelOp& op = proc.ops[k];
      const bool is_send = op.kind == ir::ChannelOp::Kind::kSend;
      if (!op.channel.valid() || op.channel.index() >= num_chans) {
        std::ostringstream os;
        os << (is_send ? "send" : "receive") << " #" << k << " names channel "
           << op.channel << ", which does not exist (network has "
           << num_chans << " channels)";
        diags.add("PN001", Severity::kError, loc, fmt_msg(os));
        continue;
      }
      const ir::Channel& ch = net.channel(op.channel);
      const ir::ProcessId expected = is_send ? ch.producer : ch.consumer;
      if (expected != p) {
        std::ostringstream os;
        os << (is_send ? "send" : "receive") << " #" << k << " on channel '"
           << ch.name << "' whose registered "
           << (is_send ? "producer" : "consumer") << " is process "
           << expected.index();
        diags.add("PN002", Severity::kError, loc, fmt_msg(os));
      }
      if (!finite_nonneg(op.bytes)) {
        std::ostringstream os;
        os << (is_send ? "send" : "receive") << " #" << k << " moves "
           << op.bytes << " bytes; transfer sizes must be finite and "
           << "non-negative";
        diags.add("PN009", Severity::kError, loc, fmt_msg(os));
      }
    }
  }
  return diags;
}

Diagnostics verify_hls(const hw::HlsResult& impl) {
  Diagnostics diags;
  const ir::Cdfg& cdfg = impl.schedule.cdfg();
  const hw::ComponentLibrary& lib = impl.schedule.library();
  const std::size_t n = cdfg.num_ops();

  const auto sized = [&](const std::vector<std::size_t>& v) {
    return v.size() == n;
  };
  if (!sized(impl.binding.fu_instance) || !sized(impl.binding.register_of)) {
    DiagLocation loc;
    loc.kind = "binding";
    loc.name = cdfg.name();
    std::ostringstream os;
    os << "binding tables cover " << impl.binding.fu_instance.size() << "/"
       << impl.binding.register_of.size() << " ops, kernel has " << n;
    diags.add("HLS002", Severity::kError, loc, fmt_msg(os));
    return diags;  // per-op checks below would index out of range
  }

  for (std::size_t i = 0; i < n; ++i) {
    const ir::OpId id(static_cast<std::uint32_t>(i));
    const ir::Op& op = cdfg.op(id);

    // Values must be produced before they are read.
    for (const ir::OpId operand : op.operands) {
      if (!operand.valid() || operand.index() >= n) continue;  // CDFG001 turf
      const std::size_t avail = impl.schedule.end_of(operand);
      if (impl.schedule.start_of(id) < avail) {
        std::ostringstream os;
        os << "scheduled at step " << impl.schedule.start_of(id)
           << " but operand " << operand.index()
           << " is not available until step " << avail;
        diags.add("HLS001", Severity::kError, op_loc(i), fmt_msg(os));
      }
    }

    // Bound FU instances must exist in the allocation.
    if (ir::op_is_compute(op.kind)) {
      const hw::FuType type = hw::fu_for_op(op.kind);
      const std::size_t instance = impl.binding.fu_instance[i];
      if (instance == SIZE_MAX || instance >= impl.binding.fu_counts[type]) {
        std::ostringstream os;
        os << "bound to " << hw::fu_name(type) << " instance " << instance
           << " but only " << impl.binding.fu_counts[type]
           << " instance(s) are allocated";
        diags.add("HLS002", Severity::kError, op_loc(i), fmt_msg(os));
      }
    }

    // Register references must exist in the allocation.
    const std::size_t reg = impl.binding.register_of[i];
    if (reg != SIZE_MAX && reg >= impl.binding.num_registers) {
      std::ostringstream os;
      os << "stored in register " << reg << " but only "
         << impl.binding.num_registers << " register(s) are allocated";
      diags.add("HLS004", Severity::kError, op_loc(i), fmt_msg(os));
    }

    // Execution must fit inside the makespan.
    if (ir::op_is_compute(op.kind) &&
        impl.schedule.start_of(id) + lib.op_latency(op.kind) >
            impl.schedule.num_steps()) {
      std::ostringstream os;
      os << "still executing at step "
         << impl.schedule.start_of(id) + lib.op_latency(op.kind)
         << ", past the schedule's " << impl.schedule.num_steps()
         << " step(s)";
      diags.add("HLS005", Severity::kError, op_loc(i), fmt_msg(os));
    }
  }

  // FU exclusivity: no two ops on one instance in overlapping steps.
  // Sort the compute ops by (FU type, instance, start) and sweep each
  // instance forward from every op while later starts fall inside it;
  // the overlapping pairs are then reported in (lower id, higher id)
  // order, one HLS003 each, located at the lower id.
  struct Slot {
    std::size_t type, instance, start, end, op;
    auto key() const { return std::tie(type, instance, start, op); }
  };
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < n; ++i) {
    const ir::OpId id(static_cast<std::uint32_t>(i));
    const ir::OpKind kind = cdfg.op(id).kind;
    if (!ir::op_is_compute(kind)) continue;
    const std::size_t start = impl.schedule.start_of(id);
    slots.push_back({static_cast<std::size_t>(hw::fu_for_op(kind)),
                     impl.binding.fu_instance[i], start,
                     start + lib.op_latency(kind), i});
  }
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.key() < b.key(); });
  std::vector<std::pair<const Slot*, const Slot*>> overlaps;
  for (std::size_t p = 0; p < slots.size(); ++p) {
    const Slot& a = slots[p];
    for (std::size_t q = p + 1; q < slots.size(); ++q) {
      const Slot& b = slots[q];
      if (b.type != a.type || b.instance != a.instance || b.start >= a.end) {
        break;
      }
      if (a.start < b.end) {
        overlaps.push_back(a.op < b.op ? std::pair{&a, &b} : std::pair{&b, &a});
      }
    }
  }
  std::sort(overlaps.begin(), overlaps.end(), [](const auto& x, const auto& y) {
    return std::pair{x.first->op, x.second->op} <
           std::pair{y.first->op, y.second->op};
  });
  for (const auto& [a, b] : overlaps) {
    std::ostringstream os;
    os << "shares " << hw::fu_name(static_cast<hw::FuType>(a->type))
       << " instance " << a->instance << " with op " << b->op
       << " in overlapping steps [" << a->start << ',' << a->end << ") and ["
       << b->start << ',' << b->end << ")";
    diags.add("HLS003", Severity::kError, op_loc(a->op), fmt_msg(os));
  }
  return diags;
}

}  // namespace mhs::analysis
