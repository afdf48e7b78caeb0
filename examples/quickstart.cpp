// Quickstart: one behavioural specification, two implementations.
//
// Builds a small dataflow kernel, then derives and cross-checks both of
// the paper's implementation styles from it:
//   software — compiled to the RISC ISA and executed on the cycle-counting
//              instruction-set simulator;
//   hardware — scheduled/bound by high-level synthesis and executed as a
//              datapath + FSM.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
//
// Set MHS_TRACE=/path/to/trace.json to record an observability trace of
// the run (Chrome trace_event JSON — load it in chrome://tracing or
// https://ui.perfetto.dev). The example validates the exported JSON and
// fails if it does not parse.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>

#include "analysis/lint.h"
#include "base/table.h"
#include "hw/rtl_sim.h"
#include "ir/cdfg.h"
#include "obs/obs.h"
#include "sw/estimate.h"
#include "sw/iss.h"

int main() {
  using namespace mhs;

  // Optional tracing: installing the registry turns every instrumented
  // layer on; leaving it out keeps the run at zero overhead.
  const char* trace_path = std::getenv("MHS_TRACE");
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::ScopedRegistry> scope;
  if (trace_path != nullptr) {
    registry = std::make_unique<obs::Registry>();
    scope = std::make_unique<obs::ScopedRegistry>(*registry);
  }

  // ---- 1. Specify: y = max(a*b + c, (a - c) << 2) ------------------------
  obs::Span specify_span("specify", "quickstart");
  ir::Cdfg kernel("quickstart");
  const ir::OpId a = kernel.input("a");
  const ir::OpId b = kernel.input("b");
  const ir::OpId c = kernel.input("c");
  const ir::OpId mac = kernel.add(kernel.mul(a, b), c);
  const ir::OpId shifted = kernel.shl(kernel.sub(a, c), kernel.constant(2));
  kernel.output("y", kernel.binary(ir::OpKind::kMax, mac, shifted));

  // Static analysis at the strict bar: the specification must carry no
  // errors AND no warnings (dead ops, unused inputs) before either
  // implementation is derived from it.
  const analysis::Diagnostics diags = analysis::analyze_cdfg(kernel);
  if (!diags.clean()) {
    std::cerr << "kernel is not lint-clean:\n" << diags.str();
    return 1;
  }
  std::cout << "analysis: kernel is lint-clean (strict)\n";

  const std::map<std::string, std::int64_t> inputs = {
      {"a", 7}, {"b", -3}, {"c", 100}};
  const auto reference = kernel.evaluate(inputs);
  std::cout << "reference result: y = " << reference.at("y") << "\n\n";
  specify_span = obs::Span();  // close the phase

  // ---- 2. Software implementation ----------------------------------------
  obs::Span sw_span("software", "quickstart");
  const sw::Program program = sw::compile(kernel);
  std::cout << "compiled software (" << program.code.size()
            << " instructions, " << program.code_bytes << " bytes):\n"
            << sw::disassemble(program.code) << "\n";
  sw::Iss iss;
  double sw_cycles = 0.0;
  const auto sw_result =
      sw::run_program(iss, program, inputs, 1'000'000, &sw_cycles);
  obs::count("quickstart.sw_instructions", program.code.size());
  sw_span = obs::Span();

  // ---- 3. Hardware implementation ----------------------------------------
  obs::Span hw_span("hardware", "quickstart");
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
  const hw::RtlTrace hw_run = hw::RtlSim(impl).run(inputs);
  const auto& hw_result = hw_run.outputs;
  const std::size_t hw_cycles = hw_run.cycles;
  obs::count("quickstart.hw_cycles", hw_cycles);
  hw_span = obs::Span();

  // ---- 4. Compare ---------------------------------------------------------
  TextTable table({"implementation", "y", "cycles", "cost"});
  table.add_row({"interpreter", std::to_string(reference.at("y")), "-",
                 "-"});
  table.add_row({"software (ISS)", std::to_string(sw_result.at("y")),
                 fmt(sw_cycles, 0),
                 fmt(program.code_bytes) + " B code"});
  table.add_row({"hardware (HLS)", std::to_string(hw_result.at("y")),
                 fmt(static_cast<std::size_t>(hw_cycles)),
                 fmt(impl.area.total(), 0) + " area"});
  std::cout << table;

  const bool agree = sw_result == reference && hw_result == reference;
  std::cout << (agree ? "all implementations agree\n"
                      : "IMPLEMENTATIONS DISAGREE\n");

  // ---- 5. Export + self-validate the trace (when enabled) ----------------
  if (registry != nullptr) {
    const std::string json = registry->chrome_trace_json();
    if (!obs::json_is_valid(json)) {
      std::cerr << "exported trace is not valid JSON\n";
      return 1;
    }
    std::ofstream out(trace_path);
    out << json;
    if (!out) {
      std::cerr << "failed to write trace to " << trace_path << "\n";
      return 1;
    }
    std::cout << "\n" << registry->summary().table();
    std::cout << "trace written to " << trace_path << "\n";
  }
  return agree ? 0 : 1;
}
