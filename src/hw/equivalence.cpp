#include "hw/equivalence.h"

#include <limits>
#include <sstream>
#include <vector>

#include "base/rng.h"
#include "obs/obs.h"
#include "sw/codegen.h"
#include "sw/iss.h"

namespace mhs::hw {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::string render_outputs(const std::map<std::string, std::int64_t>& m) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, v] : m) {
    os << (first ? "" : ", ") << name << "=" << v;
    first = false;
  }
  return os.str();
}

}  // namespace

EquivResult check_equivalence(const HlsResult& impl,
                              const std::map<std::string, std::int64_t>& inputs,
                              const EquivOptions& options) {
  const Schedule& schedule = impl.schedule;
  const ir::Cdfg& cdfg = schedule.cdfg();
  EquivResult result;

  // Software reference, once per vector. CompiledEval is what the
  // co-simulator actually runs per sample, so the equivalence claim is
  // against it; its per-op form yields the outputs, the register-file
  // expectation and the trap screen in the same pass.
  ir::CompiledEval local;
  const ir::CompiledEval* ref = options.reference;
  if (ref == nullptr) {
    local = ir::CompiledEval(cdfg);
    ref = &local;
  }
  std::vector<std::int64_t> in(ref->num_inputs());
  for (std::size_t k = 0; k < in.size(); ++k) {
    const std::string& name = ref->input_names()[k];
    const auto it = inputs.find(name);
    MHS_CHECK(it != inputs.end(),
              "check_equivalence: missing input '" << name << "'");
    in[k] = it->second;
  }
  std::vector<std::int64_t> ref_value(ref->num_ops());
  if (!ref->run_ops(in, ref_value)) {
    result.trapped = true;
    return result;
  }
  for (const ir::OpId id : cdfg.outputs()) {
    result.ref_outputs[cdfg.op(id).name] = ref_value[id.index()];
  }

  const auto fail = [&](const std::string& what) {
    result.equivalent = false;
    if (result.detail.empty()) result.detail = what;
  };

  // Hardware: the RTL-level interpreter over FSM + datapath + binding.
  RtlTrace trace;
  try {
    const RtlSim sim(impl);
    trace = sim.run(inputs);
  } catch (const Error& e) {
    fail(std::string("RtlSim failed: ") + e.what());
    return result;
  }
  result.cycles = trace.cycles;
  result.rtl_outputs = trace.outputs;

  if (trace.outputs != result.ref_outputs) {
    fail("outputs diverge: rtl {" + render_outputs(trace.outputs) +
         "} vs reference {" + render_outputs(result.ref_outputs) + "}");
  }
  if (options.check_latency) {
    if (trace.cycles != schedule.num_steps() ||
        trace.cycles != impl.latency) {
      std::ostringstream os;
      os << "latency diverges: rtl ran " << trace.cycles
         << " cycles, schedule promises " << schedule.num_steps()
         << ", HlsResult reports " << impl.latency;
      fail(os.str());
    }
  }
  if (options.check_registers) {
    // Expected register file: the value of the last op latched into each
    // register (latest commit step wins; lifetimes never tie), wrapped
    // to that op's datapath width exactly as the hardware stores it.
    std::vector<std::size_t> last_op(impl.binding.num_registers, kNone);
    for (const ir::OpId id : cdfg.op_ids()) {
      const std::size_t r = impl.binding.register_of[id.index()];
      if (r == kNone) continue;
      if (last_op[r] == kNone ||
          schedule.end_of(ir::OpId(static_cast<std::uint32_t>(last_op[r]))) <
              schedule.end_of(id)) {
        last_op[r] = id.index();
      }
    }
    for (std::size_t r = 0; r < impl.binding.num_registers; ++r) {
      if (last_op[r] == kNone) continue;
      const auto id = ir::OpId(static_cast<std::uint32_t>(last_op[r]));
      const std::int64_t expected =
          wrap_to_width(ref_value[last_op[r]], schedule.width_of(id));
      if (trace.register_file[r] != expected) {
        std::ostringstream os;
        os << "register " << r << " final state diverges: rtl "
           << trace.register_file[r] << " vs reference " << expected
           << " (op " << last_op[r] << ")";
        fail(os.str());
      }
    }
  }
  if (options.check_iss) {
    // Second software leg: the compiled RISC program on the ISS.
    const sw::Program program = sw::compile(cdfg);
    sw::Iss iss;
    const auto iss_out = sw::run_program(iss, program, inputs);
    if (iss_out != result.ref_outputs) {
      fail("ISS outputs diverge from reference: iss {" +
           render_outputs(iss_out) + "} vs {" +
           render_outputs(result.ref_outputs) + "}");
    }
  }
  obs::count(result.equivalent ? "hw.equiv.vectors_ok"
                               : "hw.equiv.vectors_failed");
  return result;
}

EquivCampaign verify_synthesis(const HlsResult& impl, std::size_t vectors,
                               std::uint64_t seed,
                               const EquivOptions& options) {
  const ir::Cdfg& cdfg = impl.schedule.cdfg();
  // One compile amortized over the whole campaign unless the caller
  // already supplied a reference.
  ir::CompiledEval compiled;
  EquivOptions opts = options;
  if (opts.reference == nullptr) {
    compiled = ir::CompiledEval(cdfg);
    opts.reference = &compiled;
  }

  const std::vector<ir::OpId> input_ids = cdfg.inputs();
  Rng rng(seed);
  EquivCampaign campaign;
  for (std::size_t v = 0; v < vectors; ++v) {
    std::map<std::string, std::int64_t> inputs;
    for (const ir::OpId id : input_ids) {
      const ir::ValueRange r = cdfg.op(id).range.value_or(ir::ValueRange{});
      // Corner draws mixed with uniform draws inside the declared range.
      std::int64_t value;
      switch (rng.uniform_int(0, 3)) {
        case 0:  value = r.lo; break;
        case 1:  value = r.hi; break;
        default: value = draw_in_range(rng, r.lo, r.hi); break;
      }
      inputs[cdfg.op(id).name] = value;
    }
    const EquivResult result = check_equivalence(impl, inputs, opts);
    if (result.trapped) {
      ++campaign.trapped;
      continue;
    }
    ++campaign.vectors;
    if (!result.equivalent) {
      campaign.all_equivalent = false;
      std::ostringstream os;
      os << result.detail << "; inputs: ";
      bool first = true;
      for (const auto& [name, value] : inputs) {
        os << (first ? "" : ", ") << name << "=" << value;
        first = false;
      }
      campaign.first_failure = os.str();
      break;
    }
  }
  return campaign;
}

}  // namespace mhs::hw
