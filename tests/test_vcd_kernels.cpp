// Tests for the VCD tracer and the extended kernel library (matmul,
// Sobel, quantizer) including their SW/HW implementation equivalence.
#include <gtest/gtest.h>

#include "apps/kernels.h"
#include "base/rng.h"
#include "hw/rtl_sim.h"
#include "sim/bus.h"
#include "sim/vcd.h"
#include "sw/iss.h"

namespace mhs {
namespace {

// ------------------------------------------------------------------- VCD

TEST(Vcd, HeaderAndVarsWellFormed) {
  sim::Simulator sim;
  sim::Wire w(sim, "cpu.irq");
  sim::Bus64 addr(sim, "bus.addr");
  sim::VcdTracer vcd(sim);
  vcd.trace(w);
  vcd.trace(addr);
  const std::string doc = vcd.str();
  EXPECT_NE(doc.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(doc.find("$var wire 1 ! cpu_irq $end"), std::string::npos);
  EXPECT_NE(doc.find("$var wire 64 \" bus_addr $end"), std::string::npos);
  EXPECT_NE(doc.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(doc.find("$dumpvars"), std::string::npos);
}

TEST(Vcd, RecordsTimedTransitions) {
  sim::Simulator sim;
  sim::Wire w(sim, "strobe");
  sim::VcdTracer vcd(sim);
  vcd.trace(w);
  w.write_after(5, true);
  w.write_after(9, false);
  sim.run();
  EXPECT_EQ(vcd.changes_recorded(), 2u);
  const std::string doc = vcd.str();
  // Change at t=5 to 1, at t=9 to 0.
  const auto t5 = doc.find("#5\n1!");
  const auto t9 = doc.find("#9\n0!");
  EXPECT_NE(t5, std::string::npos);
  EXPECT_NE(t9, std::string::npos);
  EXPECT_LT(t5, t9);
}

TEST(Vcd, CapturesBusHandshakes) {
  sim::Simulator sim;
  sim::BusModel bus(sim, sim::BusConfig{}, sim::InterfaceLevel::kPin);
  sim::VcdTracer vcd(sim);
  vcd.trace(bus.strobe_pin());
  vcd.trace(bus.ack_pin());
  vcd.trace(bus.addr_pins());
  bus.access(0x1000, true);
  bus.access(0x2000, false);
  sim.run();
  // Two handshakes: strobe up/down twice, ack up/down twice, addr twice.
  EXPECT_GE(vcd.changes_recorded(), 8u);
  const std::string doc = vcd.str();
  EXPECT_NE(doc.find("b0000000000000000000000000000000000000000000000000001"
                     "000000000000 #"),
            std::string::npos);  // addr 0x1000
}

TEST(Vcd, MultiCharIdentifiersStayUnique) {
  sim::Simulator sim;
  sim::VcdTracer vcd(sim);
  std::vector<std::unique_ptr<sim::Wire>> wires;
  for (int i = 0; i < 100; ++i) {
    wires.push_back(std::make_unique<sim::Wire>(
        sim, "w" + std::to_string(i)));
    vcd.trace(*wires.back());
  }
  EXPECT_EQ(vcd.num_signals(), 100u);
  const std::string doc = vcd.str();
  // 100 $var lines.
  std::size_t vars = 0, pos = 0;
  while ((pos = doc.find("$var", pos)) != std::string::npos) {
    ++vars;
    pos += 4;
  }
  EXPECT_EQ(vars, 100u);
}

// --------------------------------------------------------------- kernels

TEST(NewKernels, MatmulMatchesReference) {
  const std::size_t n = 3;
  const ir::Cdfg c = apps::matmul_kernel(n);
  Rng rng(4);
  std::int64_t a[3][3], b[3][3];
  std::map<std::string, std::int64_t> in;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      a[r][k] = rng.uniform_int(-50, 50);
      b[r][k] = rng.uniform_int(-50, 50);
      in["a" + std::to_string(r) + std::to_string(k)] = a[r][k];
      in["b" + std::to_string(r) + std::to_string(k)] = b[r][k];
    }
  }
  const auto out = c.evaluate(in);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      std::int64_t expected = 0;
      for (std::size_t j = 0; j < n; ++j) expected += a[r][j] * b[j][k];
      EXPECT_EQ(out.at("c" + std::to_string(r) + std::to_string(k)),
                expected);
    }
  }
}

TEST(NewKernels, SobelDetectsEdges) {
  const ir::Cdfg c = apps::sobel3_kernel();
  // Flat patch: zero gradient.
  std::map<std::string, std::int64_t> flat;
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < 3; ++k) {
      flat["p" + std::to_string(r) + std::to_string(k)] = 7;
    }
  }
  EXPECT_EQ(c.evaluate(flat).at("mag"), 0);

  // Vertical step edge: |gx| = 4*step.
  std::map<std::string, std::int64_t> edge;
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < 3; ++k) {
      edge["p" + std::to_string(r) + std::to_string(k)] = k == 2 ? 10 : 0;
    }
  }
  EXPECT_EQ(c.evaluate(edge).at("mag"), 40);
}

TEST(NewKernels, QuantizerScalesAndClamps) {
  const ir::Cdfg c = apps::quantize_kernel(2);
  // Coefficient 0: step 8 -> 800/8 = 100. Coefficient 1: step 11.
  const auto out = c.evaluate({{"x0", 800}, {"x1", 1'000'000}});
  EXPECT_NEAR(static_cast<double>(out.at("q0")), 100.0, 1.0);
  EXPECT_EQ(out.at("q1"), 1023);  // clamped at the positive bound
  const auto neg = c.evaluate({{"x0", -800}, {"x1", -1'000'000}});
  EXPECT_NEAR(static_cast<double>(neg.at("q0")), -100.0, 1.0);
  EXPECT_EQ(neg.at("q1"), -1024);  // clamped at the negative bound
}

TEST(NewKernels, AllThreeImplementationsAgree) {
  const ir::Cdfg kernels[] = {apps::matmul_kernel(2), apps::sobel3_kernel(),
                              apps::quantize_kernel(4)};
  Rng rng(77);
  const hw::ComponentLibrary lib = hw::default_library();
  for (const ir::Cdfg& kernel : kernels) {
    std::map<std::string, std::int64_t> in;
    for (const ir::OpId id : kernel.inputs()) {
      in[kernel.op(id).name] = rng.uniform_int(-100, 100);
    }
    const auto reference = kernel.evaluate(in);
    sw::Iss iss;
    EXPECT_EQ(sw::run_program(iss, sw::compile(kernel), in), reference)
        << kernel.name() << " (sw)";
    hw::HlsConstraints constraints;
    constraints.goal = hw::HlsGoal::kMinArea;
    const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
    EXPECT_EQ(hw::RtlSim(impl).run(in).outputs, reference)
        << kernel.name() << " (hw)";
  }
}

}  // namespace
}  // namespace mhs
