// Unit tests for mhs::sw — ISA, CPU models, code generation, register
// allocation/spilling, the ISS, MMIO, interrupts, and estimation.
#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "apps/kernels.h"
#include "base/rng.h"
#include "base/stats.h"
#include "sw/codegen.h"
#include "sw/cpu_model.h"
#include "sw/estimate.h"
#include "sw/isa.h"
#include "sw/iss.h"

namespace mhs::sw {
namespace {

TEST(Isa, DisassemblyIsReadable) {
  EXPECT_EQ(disassemble(Instr{Opcode::kAdd, 3, 1, 2, 0}), "add x3, x1, x2");
  EXPECT_EQ(disassemble(Instr{Opcode::kLi, 5, 0, 0, -7}), "li x5, -7");
  EXPECT_EQ(disassemble(Instr{Opcode::kLd, 4, 2, 0, 16}), "ld x4, 16(x2)");
  EXPECT_EQ(disassemble(Instr{Opcode::kSt, 0, 2, 9, 8}), "st x9, 8(x2)");
  EXPECT_EQ(disassemble(Instr{Opcode::kBne, 0, 1, 0, 12}),
            "bne x1, x0, @12");
  EXPECT_EQ(disassemble(Instr{Opcode::kHalt, 0, 0, 0, 0}), "halt");
}

TEST(Isa, EncodedSizeModelsWideImmediates) {
  EXPECT_EQ(encoded_size(Instr{Opcode::kAdd, 1, 2, 3, 0}), 4u);
  EXPECT_EQ(encoded_size(Instr{Opcode::kLi, 1, 0, 0, 100}), 4u);
  EXPECT_EQ(encoded_size(Instr{Opcode::kLi, 1, 0, 0, 1 << 20}), 12u);
}

TEST(CpuModel, CatalogSpansSpeedAndCost) {
  const auto cpus = processor_catalog();
  ASSERT_GE(cpus.size(), 4u);
  double min_cost = 1e18, max_cost = 0;
  for (const CpuModel& cpu : cpus) {
    min_cost = std::min(min_cost, cpu.cost);
    max_cost = std::max(max_cost, cpu.cost);
  }
  EXPECT_GE(max_cost / min_cost, 8.0);
}

TEST(Iss, BasicArithmeticAndHalt) {
  Iss iss;
  iss.load_program({
      Instr{Opcode::kLi, 1, 0, 0, 21},
      Instr{Opcode::kLi, 2, 0, 0, 2},
      Instr{Opcode::kMul, 3, 1, 2, 0},
      Instr{Opcode::kHalt, 0, 0, 0, 0},
  });
  const RunResult r = iss.run();
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.instructions, 4u);
  EXPECT_EQ(iss.reg(3), 42);
  // li(1) + li(1) + mul(4) + halt(1) = 7 cycles on the reference CPU.
  EXPECT_EQ(iss.total_cycles(), 7u);
}

TEST(Iss, ZeroRegisterIsImmutable) {
  Iss iss;
  iss.load_program({
      Instr{Opcode::kLi, 0, 0, 0, 99},
      Instr{Opcode::kAddi, 1, 0, 0, 5},
      Instr{Opcode::kHalt, 0, 0, 0, 0},
  });
  iss.run();
  EXPECT_EQ(iss.reg(0), 0);
  EXPECT_EQ(iss.reg(1), 5);
}

TEST(Iss, BranchesAndLoops) {
  // Sum 1..10 with a countdown loop.
  Iss iss;
  iss.load_program({
      Instr{Opcode::kLi, 1, 0, 0, 10},   // i = 10
      Instr{Opcode::kLi, 2, 0, 0, 0},    // acc = 0
      Instr{Opcode::kAdd, 2, 2, 1, 0},   // 2: acc += i
      Instr{Opcode::kAddi, 1, 1, 0, -1}, // i -= 1
      Instr{Opcode::kBne, 0, 1, 0, 2},   // while i != 0
      Instr{Opcode::kHalt, 0, 0, 0, 0},
  });
  const RunResult r = iss.run();
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(iss.reg(2), 55);
}

TEST(Iss, MemoryReadWriteAndAlignment) {
  Iss iss;
  iss.write_word(0x1000, -12345);
  EXPECT_EQ(iss.read_word(0x1000), -12345);
  EXPECT_EQ(iss.read_word(0x2000), 0);  // untouched memory reads zero
  EXPECT_THROW(iss.read_word(0x1001), PreconditionError);
  EXPECT_THROW(iss.write_word(0x1004, 1), PreconditionError);
}

TEST(Iss, MmioHooksInterceptAccesses) {
  Iss iss;
  std::int64_t device_reg = 7;
  std::uint64_t last_write_addr = 0;
  iss.add_mmio(
      0x8000, 0x80FF,
      [&](std::uint64_t) { return device_reg; },
      [&](std::uint64_t addr, std::int64_t v) {
        last_write_addr = addr;
        device_reg = v;
      });
  iss.load_program({
      Instr{Opcode::kLd, 1, 0, 0, 0x8008},  // read device
      Instr{Opcode::kAddi, 1, 1, 0, 1},
      Instr{Opcode::kSt, 0, 0, 1, 0x8010},  // write device
      Instr{Opcode::kHalt, 0, 0, 0, 0},
  });
  iss.run();
  EXPECT_EQ(device_reg, 8);
  EXPECT_EQ(last_write_addr, 0x8010u);
}

TEST(Iss, OverlappingMmioRejected) {
  Iss iss;
  auto r = [](std::uint64_t) { return std::int64_t{0}; };
  auto w = [](std::uint64_t, std::int64_t) {};
  iss.add_mmio(0x100, 0x1FF, r, w);
  EXPECT_THROW(iss.add_mmio(0x180, 0x280, r, w), PreconditionError);
}

TEST(Iss, InterruptVectorsAndReturns) {
  // Main increments x1 forever; ISR sets x2 and returns; we stop after the
  // interrupt has been serviced.
  Iss iss;
  iss.load_program({
      Instr{Opcode::kAddi, 1, 1, 0, 1},   // 0: main loop
      Instr{Opcode::kBne, 0, 2, 0, 3},    // 1: exit when x2 set
      Instr{Opcode::kJmp, 0, 0, 0, 0},    // 2: loop
      Instr{Opcode::kHalt, 0, 0, 0, 0},   // 3:
      Instr{Opcode::kLi, 2, 0, 0, 1},     // 4: ISR
      Instr{Opcode::kIret, 0, 0, 0, 0},   // 5:
  });
  iss.set_isr(4);
  iss.run(50);  // let the main loop spin a little
  EXPECT_FALSE(iss.halted());
  iss.raise_irq();
  const RunResult r = iss.run();
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(iss.reg(2), 1);
  EXPECT_FALSE(iss.in_isr());
}

TEST(Iss, IretOutsideHandlerThrows) {
  Iss iss;
  iss.load_program({Instr{Opcode::kIret, 0, 0, 0, 0}});
  EXPECT_THROW(iss.step(), PreconditionError);
}

TEST(Iss, DivideByZeroTraps) {
  Iss iss;
  iss.load_program({
      Instr{Opcode::kLi, 1, 0, 0, 5},
      Instr{Opcode::kDiv, 2, 1, 3, 0},
      Instr{Opcode::kHalt, 0, 0, 0, 0},
  });
  EXPECT_THROW(iss.run(), PreconditionError);
}

TEST(Iss, ArithmeticWrapsLikeTheCdfg) {
  // At the i64 corners the ISS computes what ir::apply_op does:
  // two's-complement wraparound, and INT64_MIN / -1 == INT64_MIN.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t corners[] = {kMin, kMin + 1, -2, -1, 0,
                                  1,    2,        kMax - 1, kMax};
  const std::pair<Opcode, ir::OpKind> ops[] = {
      {Opcode::kAdd, ir::OpKind::kAdd},
      {Opcode::kSub, ir::OpKind::kSub},
      {Opcode::kMul, ir::OpKind::kMul},
      {Opcode::kDiv, ir::OpKind::kDiv}};
  Iss iss;
  for (const std::int64_t a : corners) {
    for (const std::int64_t b : corners) {
      const std::int64_t args[2] = {a, b};
      for (const auto& [opcode, kind] : ops) {
        if (kind == ir::OpKind::kDiv && b == 0) continue;
        iss.load_program({Instr{Opcode::kLi, 1, 0, 0, a},
                          Instr{Opcode::kLi, 2, 0, 0, b},
                          Instr{opcode, 3, 1, 2, 0},
                          Instr{Opcode::kHalt, 0, 0, 0, 0}});
        iss.run();
        EXPECT_EQ(iss.reg(3), ir::apply_op(kind, args))
            << ir::op_name(kind) << "(" << a << ", " << b << ")";
      }
      iss.load_program({Instr{Opcode::kLi, 1, 0, 0, a},
                        Instr{Opcode::kAddi, 3, 1, 0, b},
                        Instr{Opcode::kHalt, 0, 0, 0, 0}});
      iss.run();
      EXPECT_EQ(iss.reg(3), ir::apply_op(ir::OpKind::kAdd, args))
          << "addi(" << a << ", " << b << ")";
    }
  }
}

TEST(Codegen, StraightLineKernelMatchesEvaluator) {
  const ir::Cdfg kernels[] = {
      apps::fir_kernel(8),    apps::iir_biquad_kernel(),
      apps::dct8_kernel(),    apps::xtea_kernel(4),
      apps::median5_kernel(), apps::checksum_kernel(6),
      apps::sad_kernel(8),
  };
  Rng rng(5);
  for (const ir::Cdfg& c : kernels) {
    const Program p = compile(c);
    std::map<std::string, std::int64_t> in;
    for (const ir::OpId id : c.inputs()) {
      in[c.op(id).name] = rng.uniform_int(-5000, 5000);
    }
    Iss iss;
    const auto out = run_program(iss, p, in);
    EXPECT_EQ(out, c.evaluate(in)) << c.name();
  }
}

TEST(Codegen, SpillingPreservesSemantics) {
  // Compile the register-hungry DCT with progressively fewer registers;
  // results must not change while spills increase.
  const ir::Cdfg c = apps::dct8_kernel();
  std::map<std::string, std::int64_t> in;
  Rng rng(11);
  for (const ir::OpId id : c.inputs()) {
    in[c.op(id).name] = rng.uniform_int(-100, 100) << 16;
  }
  const auto reference = c.evaluate(in);

  std::size_t prev_spills = 0;
  bool spills_grew = false;
  for (const std::size_t regs : {26u, 12u, 6u, 3u}) {
    CodegenOptions opts;
    opts.allocatable_regs = regs;
    const Program p = compile(c, opts);
    Iss iss;
    EXPECT_EQ(run_program(iss, p, in), reference) << regs << " registers";
    if (p.num_spills > prev_spills) spills_grew = true;
    prev_spills = p.num_spills;
  }
  EXPECT_TRUE(spills_grew);
}

TEST(Codegen, FewerRegistersNeverFasterCode) {
  const ir::Cdfg c = apps::dct8_kernel();
  CodegenOptions many;
  many.allocatable_regs = 26;
  CodegenOptions few;
  few.allocatable_regs = 4;
  EXPECT_LE(compile(c, many).code.size(), compile(c, few).code.size());
}

TEST(Codegen, LoopWrapperRepeatsBody) {
  ir::Cdfg c("inc");
  c.output("y", c.add(c.input("x"), c.constant(1)));
  CodegenOptions opts;
  opts.iterations = 10;
  const Program p = compile(c, opts);
  Iss iss;
  const auto out = run_program(iss, p, {{"x", 41}});
  EXPECT_EQ(out.at("y"), 42);
  // The loop executed 10 times: at least 10 body loads retired.
  EXPECT_GE(iss.opcode_histogram()[static_cast<std::size_t>(Opcode::kLd)],
            10u);
}

TEST(Codegen, RejectsBadOptions) {
  ir::Cdfg c("k");
  c.output("y", c.input("x"));
  CodegenOptions zero_regs;
  zero_regs.allocatable_regs = 0;
  EXPECT_THROW(compile(c, zero_regs), PreconditionError);
  CodegenOptions zero_iters;
  zero_iters.iterations = 0;
  EXPECT_THROW(compile(c, zero_iters), PreconditionError);
}

TEST(Estimate, CompiledEstimateMatchesIssExactly) {
  // Branch-free code: the static sum must equal measured cycles.
  const ir::Cdfg kernels[] = {apps::fir_kernel(8), apps::median5_kernel()};
  for (const ir::Cdfg& c : kernels) {
    const CpuModel cpu = reference_cpu();
    const SwEstimate est = estimate_compiled(c, cpu);

    const Program p = compile(c);
    std::map<std::string, std::int64_t> in;
    for (const ir::OpId id : c.inputs()) in[c.op(id).name] = 1;
    Iss iss(cpu);
    double measured = 0.0;
    run_program(iss, p, in, 10'000'000, &measured);
    // The program includes the final halt (1 cycle) the estimate excludes.
    EXPECT_NEAR(est.cycles_per_iteration, measured - 1.0, 1e-9) << c.name();
  }
}

TEST(Estimate, QuickEstimateWithinTolerance) {
  const ir::Cdfg kernels[] = {apps::fir_kernel(16), apps::dct8_kernel(),
                              apps::xtea_kernel(8)};
  for (const ir::Cdfg& c : kernels) {
    const CpuModel cpu = reference_cpu();
    const double quick = estimate_quick(c, cpu).cycles_per_iteration;
    const double exact = estimate_compiled(c, cpu).cycles_per_iteration;
    EXPECT_LT(relative_error(quick, exact), 0.35) << c.name();
  }
}

TEST(Estimate, FasterCpuGivesFewerCycles) {
  const ir::Cdfg c = apps::dct8_kernel();
  const auto cpus = processor_catalog();
  // dsp64 has a 1-cycle multiplier: must beat the reference on DCT.
  const CpuModel& ref = cpus[2];
  const CpuModel& dsp = cpus[4];
  ASSERT_EQ(dsp.name, "dsp64");
  EXPECT_LT(estimate_compiled(c, dsp).cycles_per_iteration,
            estimate_compiled(c, ref).cycles_per_iteration);
}

class CodegenRandomKernels : public ::testing::TestWithParam<int> {};

TEST_P(CodegenRandomKernels, RandomDataAgreesWithEvaluator) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Random dataflow kernel over safe ops (no div to avoid trap tuning).
  ir::Cdfg c("rand" + std::to_string(GetParam()));
  std::vector<ir::OpId> vals;
  for (int i = 0; i < 3; ++i) {
    vals.push_back(c.input("x" + std::to_string(i)));
  }
  const ir::OpKind kinds[] = {ir::OpKind::kAdd, ir::OpKind::kSub,
                              ir::OpKind::kMul, ir::OpKind::kAnd,
                              ir::OpKind::kOr,  ir::OpKind::kXor,
                              ir::OpKind::kMin, ir::OpKind::kMax,
                              ir::OpKind::kCmpLt};
  for (int i = 0; i < 20; ++i) {
    const ir::OpId a = rng.pick(vals);
    const ir::OpId b = rng.pick(vals);
    vals.push_back(c.binary(kinds[rng.uniform_int(0, 8)], a, b));
  }
  c.output("y", vals.back());
  c.output("z", vals[vals.size() / 2]);

  CodegenOptions opts;
  opts.allocatable_regs =
      static_cast<std::size_t>(rng.uniform_int(3, 26));
  const Program p = compile(c, opts);
  for (int trial = 0; trial < 5; ++trial) {
    std::map<std::string, std::int64_t> in;
    for (const ir::OpId id : c.inputs()) {
      in[c.op(id).name] = rng.uniform_int(-1'000'000, 1'000'000);
    }
    Iss iss;
    EXPECT_EQ(run_program(iss, p, in), c.evaluate(in));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodegenRandomKernels,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace mhs::sw
