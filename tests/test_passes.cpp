// Tests for the CDFG optimizer (ir/optimize) and the Verilog RTL emitter
// (hw/rtl_emit).
#include <gtest/gtest.h>

#include "apps/kernels.h"
#include "base/rng.h"
#include "hw/rtl_emit.h"
#include "ir/optimize.h"
#include "sw/estimate.h"
#include "sw/iss.h"

namespace mhs {
namespace {

// ---------------------------------------------------------------- optimizer

TEST(Optimize, FoldsConstantExpressions) {
  ir::Cdfg c("fold");
  const ir::OpId k = c.add(c.constant(20), c.constant(22));
  c.output("y", c.mul(k, c.constant(1)));
  ir::OptimizeStats stats;
  const ir::Cdfg opt = optimize(c, &stats);
  EXPECT_GE(stats.constants_folded + stats.identities_applied, 1u);
  // Result collapses to const + output.
  EXPECT_LE(opt.num_ops(), 2u);
  EXPECT_EQ(opt.evaluate({}).at("y"), 42);
}

TEST(Optimize, AppliesIdentities) {
  ir::Cdfg c("ident");
  const ir::OpId x = c.input("x");
  const ir::OpId zero = c.constant(0);
  const ir::OpId one = c.constant(1);
  c.output("a", c.add(x, zero));                       // x + 0 -> x
  c.output("b", c.mul(x, one));                        // x * 1 -> x
  c.output("c", c.mul(x, zero));                       // x * 0 -> 0
  c.output("d", c.sub(x, x));                          // x - x -> 0
  c.output("e", c.bxor(x, x));                         // x ^ x -> 0
  c.output("f", c.binary(ir::OpKind::kMin, x, x));     // min(x,x) -> x
  ir::OptimizeStats stats;
  const ir::Cdfg opt = optimize(c, &stats);
  EXPECT_GE(stats.identities_applied, 5u);
  // Only input, const 0, and the six outputs should remain.
  EXPECT_LE(opt.num_ops(), 8u);
  const auto out = opt.evaluate({{"x", 123}});
  EXPECT_EQ(out.at("a"), 123);
  EXPECT_EQ(out.at("b"), 123);
  EXPECT_EQ(out.at("c"), 0);
  EXPECT_EQ(out.at("d"), 0);
  EXPECT_EQ(out.at("e"), 0);
  EXPECT_EQ(out.at("f"), 123);
}

TEST(Optimize, MergesCommonSubexpressions) {
  ir::Cdfg c("cse");
  const ir::OpId a = c.input("a");
  const ir::OpId b = c.input("b");
  const ir::OpId s1 = c.add(a, b);
  const ir::OpId s2 = c.add(a, b);  // identical
  c.output("y", c.mul(s1, s2));
  ir::OptimizeStats stats;
  const ir::Cdfg opt = optimize(c, &stats);
  EXPECT_EQ(stats.subexpressions_merged, 1u);
  EXPECT_EQ(opt.evaluate({{"a", 3}, {"b", 4}}).at("y"), 49);
}

TEST(Optimize, RemovesDeadCode) {
  ir::Cdfg c("dce");
  const ir::OpId a = c.input("a");
  c.mul(a, a);  // dead: no path to an output
  c.add(a, c.constant(5));  // dead
  c.output("y", a);
  ir::OptimizeStats stats;
  const ir::Cdfg opt = optimize(c, &stats);
  EXPECT_GE(stats.dead_ops_removed, 2u);
  EXPECT_EQ(opt.num_ops(), 2u);  // input + output
}

TEST(Optimize, CascadesToFixpoint) {
  // (x * 0) feeds an add; after folding the mul, the add folds too, and
  // the stranded operands disappear.
  ir::Cdfg c("cascade");
  const ir::OpId x = c.input("x");
  const ir::OpId m = c.mul(x, c.constant(0));
  const ir::OpId s = c.add(m, c.constant(7));
  c.output("y", s);
  const ir::Cdfg opt = optimize(c);
  EXPECT_EQ(opt.evaluate({{"x", 999}}).at("y"), 7);
  EXPECT_LE(opt.num_ops(), 2u);  // const 7 + output (input dead)
}

TEST(Optimize, KeepsConstantDivisionByZero) {
  // An op that traps on its folded constants stays, so the optimized
  // kernel still traps: a zero divisor, and a shift amount outside
  // [0,64) whether it is a constant or folds to one.
  ir::Cdfg div("trap");
  div.output("y",
             div.binary(ir::OpKind::kDiv, div.constant(5), div.constant(0)));
  ir::Cdfg shl("shl_trap");
  shl.output("y", shl.shl(shl.constant(1), shl.constant(100)));
  ir::Cdfg folded("folded_shl_trap");
  folded.output("y", folded.shl(folded.constant(1),
                                folded.add(folded.constant(50),
                                           folded.constant(50))));
  for (const ir::Cdfg* c : {&div, &shl, &folded}) {
    ir::Cdfg opt;
    ASSERT_NO_THROW(opt = optimize(*c)) << c->name();
    EXPECT_THROW(opt.evaluate({}), PreconditionError) << c->name();
  }
}

TEST(Optimize, SelectWithConstantCondition) {
  ir::Cdfg c("sel");
  const ir::OpId a = c.input("a");
  const ir::OpId b = c.input("b");
  c.output("t", c.select(c.constant(1), a, b));
  c.output("f", c.select(c.constant(0), a, b));
  const ir::Cdfg opt = optimize(c);
  const auto out = opt.evaluate({{"a", 10}, {"b", 20}});
  EXPECT_EQ(out.at("t"), 10);
  EXPECT_EQ(out.at("f"), 20);
}

TEST(Optimize, ShrinksRealKernelsWithoutChangingSemantics) {
  Rng rng(3);
  const ir::Cdfg kernels[] = {apps::fir_kernel(12), apps::dct8_kernel(),
                              apps::xtea_kernel(6),
                              apps::checksum_kernel(8)};
  for (const ir::Cdfg& kernel : kernels) {
    ir::OptimizeStats stats;
    const ir::Cdfg opt = optimize(kernel, &stats);
    EXPECT_LE(opt.num_ops(), kernel.num_ops()) << kernel.name();
    for (int trial = 0; trial < 4; ++trial) {
      std::map<std::string, std::int64_t> in;
      for (const ir::OpId id : kernel.inputs()) {
        in[kernel.op(id).name] = rng.uniform_int(-10000, 10000);
      }
      EXPECT_EQ(opt.evaluate(in), kernel.evaluate(in)) << kernel.name();
    }
  }
}

TEST(Optimize, ReducesBothSwCyclesAndHwArea) {
  // The DCT has shared coefficient constants and shift chains the
  // optimizer can merge — one optimization, two implementation savings.
  const ir::Cdfg kernel = apps::dct8_kernel();
  const ir::Cdfg opt = optimize(kernel);
  const sw::CpuModel cpu = sw::reference_cpu();
  EXPECT_LE(sw::estimate_compiled(opt, cpu).cycles_per_iteration,
            sw::estimate_compiled(kernel, cpu).cycles_per_iteration);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinLatency;
  EXPECT_LE(hw::synthesize(opt, lib, constraints).area.total(),
            hw::synthesize(kernel, lib, constraints).area.total() * 1.05);
}

class OptimizeSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizeSeeded, RandomKernelEquivalence) {
  Rng rng(GetParam());
  ir::Cdfg c("rand");
  std::vector<ir::OpId> vals;
  for (int i = 0; i < 3; ++i) {
    vals.push_back(c.input("x" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    vals.push_back(c.constant(rng.uniform_int(-2, 2)));
  }
  // No shifts: a random operand is not a legal shift amount.
  const ir::OpKind kinds[] = {ir::OpKind::kAdd, ir::OpKind::kSub,
                              ir::OpKind::kMul, ir::OpKind::kAnd,
                              ir::OpKind::kOr,  ir::OpKind::kXor,
                              ir::OpKind::kMin, ir::OpKind::kMax,
                              ir::OpKind::kCmpLt};
  for (int i = 0; i < 30; ++i) {
    vals.push_back(c.binary(kinds[rng.uniform_int(0, 8)], rng.pick(vals),
                            rng.pick(vals)));
  }
  c.output("y", vals.back());
  c.output("z", vals[vals.size() / 2]);

  const ir::Cdfg opt = optimize(c);
  EXPECT_LE(opt.num_ops(), c.num_ops());
  for (int trial = 0; trial < 6; ++trial) {
    std::map<std::string, std::int64_t> in;
    for (const ir::OpId id : c.inputs()) {
      in[c.op(id).name] = rng.uniform_int(-10000, 10000);
    }
    EXPECT_EQ(opt.evaluate(in), c.evaluate(in)) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizeSeeded,
    ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------- RTL emit

hw::HlsResult synth(const ir::Cdfg& kernel, hw::HlsGoal goal) {
  static hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = goal;
  return hw::synthesize(kernel, lib, constraints);
}

TEST(RtlEmit, SanitizesIdentifiers) {
  EXPECT_EQ(hw::sanitize_identifier("fir-8.q"), "fir_8_q");
  EXPECT_EQ(hw::sanitize_identifier("8tap"), "m8tap");
  EXPECT_EQ(hw::sanitize_identifier(""), "m");
}

TEST(RtlEmit, ModuleStructure) {
  ir::Cdfg c("two_mul");
  const ir::OpId a = c.input("a");
  const ir::OpId b = c.input("b");
  c.output("y", c.mul(c.add(a, b), a));
  const hw::HlsResult impl = synth(c, hw::HlsGoal::kMinLatency);
  const std::string rtl = hw::emit_verilog(impl);

  EXPECT_NE(rtl.find("module two_mul ("), std::string::npos);
  EXPECT_NE(rtl.find("input  wire clk"), std::string::npos);
  EXPECT_NE(rtl.find("input  wire signed [63:0] in_a"), std::string::npos);
  EXPECT_NE(rtl.find("output reg  signed [63:0] out_y"), std::string::npos);
  EXPECT_NE(rtl.find("in_a + in_b"), std::string::npos);
  EXPECT_NE(rtl.find("done  <= 1'b1;"), std::string::npos);
  EXPECT_NE(rtl.find("endmodule"), std::string::npos);
  // One case arm per control step plus idle.
  for (std::size_t s = 1; s <= impl.schedule.num_steps(); ++s) {
    EXPECT_NE(rtl.find("        " + std::to_string(s) + ": begin"),
              std::string::npos)
        << "missing state " << s;
  }
}

TEST(RtlEmit, DeterministicOutput) {
  const ir::Cdfg c = apps::fir_kernel(4);
  const hw::HlsResult impl = synth(c, hw::HlsGoal::kMinArea);
  EXPECT_EQ(hw::emit_verilog(impl), hw::emit_verilog(impl));
}

TEST(RtlEmit, NegativeConstantsParenthesized) {
  ir::Cdfg c("neg");
  const ir::OpId a = c.input("a");
  c.output("y", c.unary(ir::OpKind::kNeg,
                        c.add(a, c.constant(-5))));
  const hw::HlsResult impl = synth(c, hw::HlsGoal::kMinLatency);
  const std::string rtl = hw::emit_verilog(impl);
  EXPECT_NE(rtl.find("-64'sd5"), std::string::npos);
  // Unary minus always wraps its operand.
  EXPECT_EQ(rtl.find("--"), std::string::npos);
}

TEST(RtlEmit, CoversEveryOpKindUsedByTheKernels) {
  const ir::Cdfg kernels[] = {apps::dct8_kernel(), apps::median5_kernel(),
                              apps::xtea_kernel(2), apps::sad_kernel(3)};
  for (const ir::Cdfg& kernel : kernels) {
    const hw::HlsResult impl = synth(kernel, hw::HlsGoal::kMinArea);
    const std::string rtl = hw::emit_verilog(impl);
    EXPECT_NE(rtl.find("endmodule"), std::string::npos) << kernel.name();
    // Every output port materializes.
    for (const ir::OpId id : kernel.outputs()) {
      EXPECT_NE(rtl.find("out_" +
                         hw::sanitize_identifier(kernel.op(id).name)),
                std::string::npos)
          << kernel.name();
    }
  }
}

TEST(RtlEmit, WidthOptionRespected) {
  ir::Cdfg c("w32");
  c.output("y", c.add(c.input("a"), c.input("b")));
  const hw::HlsResult impl = synth(c, hw::HlsGoal::kMinLatency);
  hw::RtlOptions options;
  options.width = 32;
  const std::string rtl = hw::emit_verilog(impl, options);
  EXPECT_NE(rtl.find("[31:0]"), std::string::npos);
  EXPECT_EQ(rtl.find("[63:0]"), std::string::npos);
  hw::RtlOptions bad;
  bad.width = 128;
  EXPECT_THROW(hw::emit_verilog(impl, bad), PreconditionError);
}

}  // namespace
}  // namespace mhs
