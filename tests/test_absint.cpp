// Unit tests for mhs::analysis::absint — the value-range / known-bits
// abstract interpretation — and its three consumers: the CDFG2xx range
// lints, proven-safe HLS datapath narrowing, and the range-aware
// ir::optimize overload.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/lint.h"
#include "analysis/verify.h"
#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "core/flow.h"
#include "core/report.h"
#include "hw/equivalence.h"
#include "ir/optimize.h"
#include "ir/serialize.h"
#include "sim/run.h"

namespace mhs::analysis {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// ------------------------------------------------------------- domains

TEST(AbsintDomain, IntervalBasics) {
  EXPECT_TRUE(Interval::top().is_top());
  EXPECT_TRUE(Interval::constant(7).is_constant());
  EXPECT_TRUE(Interval::constant(7).contains(7));
  EXPECT_FALSE(Interval::constant(7).contains(8));
  EXPECT_TRUE((Interval{1, 5}.excludes_zero()));
  EXPECT_TRUE((Interval{-5, -1}.excludes_zero()));
  EXPECT_FALSE((Interval{-1, 1}.excludes_zero()));
  EXPECT_FALSE(Interval::top().excludes_zero());
}

TEST(AbsintDomain, KnownBitsBasics) {
  const KnownBits c = KnownBits::constant(-2);
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(c.contains(-2));
  EXPECT_FALSE(c.contains(-1));
  EXPECT_FALSE(KnownBits::top().is_constant());
  EXPECT_TRUE(KnownBits::top().contains(123456789));
}

TEST(AbsintDomain, NeededBits) {
  EXPECT_EQ(needed_bits(Interval::constant(0)), 1u);
  EXPECT_EQ(needed_bits(Interval::constant(-1)), 1u);
  EXPECT_EQ(needed_bits(Interval::constant(1)), 2u);
  EXPECT_EQ(needed_bits({-128, 127}), 8u);
  EXPECT_EQ(needed_bits({0, 255}), 9u);  // signed width needs the sign bit
  EXPECT_EQ(needed_bits({-1, 0}), 1u);
  EXPECT_EQ(needed_bits(Interval::top()), 64u);
  EXPECT_EQ(needed_bits(Interval::constant(kMin)), 64u);
}

TEST(AbsintDomain, TrapProofPredicates) {
  EXPECT_TRUE(proves_divide_trap(Interval::constant(0)));
  EXPECT_FALSE(proves_divide_trap({0, 1}));
  EXPECT_FALSE(proves_divide_trap(Interval::top()));
  EXPECT_TRUE(proves_shift_trap(Interval::constant(64)));
  EXPECT_TRUE(proves_shift_trap(Interval::constant(-1)));
  EXPECT_TRUE(proves_shift_trap({64, 100}));
  EXPECT_FALSE(proves_shift_trap({0, 63}));
  EXPECT_FALSE(proves_shift_trap({63, 64}));  // 63 is still legal
}

// ------------------------------------------------------- transfer fns

TEST(Absint, ConstantExpressionsFoldToExactValues) {
  ir::Cdfg k("consts");
  const ir::OpId a = k.constant(6);
  const ir::OpId b = k.constant(-7);
  const ir::OpId sum = k.add(a, b);
  const ir::OpId prod = k.mul(a, b);
  k.output("s", sum);
  k.output("p", prod);
  const AbsintResult r = absint_cdfg(k);
  EXPECT_EQ(r.value(sum).range, Interval::constant(-1));
  EXPECT_TRUE(r.value(sum).bits.is_constant());
  EXPECT_EQ(r.value(prod).range, Interval::constant(-42));
  EXPECT_FALSE(r.value(sum).may_overflow);
}

TEST(Absint, SeededRangesPropagateThroughArithmetic) {
  ir::Cdfg k("seeded");
  const ir::OpId x = k.input("x", {-128, 127});
  const ir::OpId y = k.input("y", {0, 10});
  const ir::OpId sum = k.add(x, y);
  const ir::OpId m = k.mul(x, y);
  k.output("s", sum);
  k.output("m", m);
  const AbsintResult r = absint_cdfg(k);
  EXPECT_EQ(r.value(x).range, (Interval{-128, 127}));
  EXPECT_EQ(r.value(sum).range, (Interval{-128, 137}));
  EXPECT_EQ(r.value(m).range, (Interval{-1280, 1270}));
  EXPECT_FALSE(r.value(sum).may_overflow);
}

TEST(Absint, OverflowOnlyWhenTheMathExceedsI64) {
  ir::Cdfg k("ovf");
  const ir::OpId a = k.input("a");  // unannotated: top
  const ir::OpId b = k.input("b");
  const ir::OpId sum = k.add(a, b);
  k.output("s", sum);
  const AbsintResult r = absint_cdfg(k);
  EXPECT_TRUE(r.value(sum).may_overflow);
  EXPECT_TRUE(r.value(sum).range.is_top());
}

TEST(Absint, KnownBitsThroughMaskingAndShifts) {
  ir::Cdfg k("bits");
  const ir::OpId x = k.input("x");
  const ir::OpId mask = k.constant(0xFF);
  const ir::OpId low = k.band(x, mask);   // high 56 bits proven zero
  const ir::OpId sh = k.shl(low, k.constant(4));
  k.output("y", sh);
  const AbsintResult r = absint_cdfg(k);
  EXPECT_EQ(r.value(low).bits.zeros & ~std::uint64_t{0xFF},
            ~std::uint64_t{0xFF});
  // Masked to 8 bits, the interval refines to [0,255].
  EXPECT_EQ(r.value(low).range, (Interval{0, 255}));
  // Shifted left by 4: low 4 bits proven zero, range [0, 255<<4].
  EXPECT_EQ(r.value(sh).bits.zeros & 0xF, 0xFu);
  EXPECT_EQ(r.value(sh).range, (Interval{0, 255 << 4}));
}

TEST(Absint, DivAndSelectPrecision) {
  ir::Cdfg k("divsel");
  const ir::OpId x = k.input("x", {0, 100});
  const ir::OpId d = k.input("d", {2, 4});
  const ir::OpId q = k.binary(ir::OpKind::kDiv, x, d);
  const ir::OpId c = k.binary(ir::OpKind::kCmpLt, x, k.constant(200));  // provably true
  const ir::OpId s = k.select(c, q, k.constant(-1));
  k.output("y", s);
  const AbsintResult r = absint_cdfg(k);
  EXPECT_EQ(r.value(q).range, (Interval{0, 50}));
  EXPECT_EQ(r.value(c).range, Interval::constant(1));
  // Condition pinned true: the select is exactly the true arm.
  EXPECT_EQ(r.value(s).range, (Interval{0, 50}));
}

// A quick inline membership check over a real kernel: every concrete
// value must sit inside its op's abstract value (the tier-2 fuzzer does
// this at scale over random graphs).
TEST(Absint, ConcreteValuesStayInsideAbstractValues) {
  const ir::Cdfg base = apps::sobel3_kernel();
  const ir::Cdfg k = ir::with_input_ranges(base, {-128, 127});
  const AbsintResult r = absint_cdfg(k);
  const ir::CompiledEval eval(k);
  Rng rng(2024);
  std::vector<std::int64_t> value(k.num_ops());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::int64_t> in(eval.num_inputs());
    for (std::int64_t& v : in) v = rng.uniform_int(-128, 127);
    ASSERT_TRUE(eval.run_ops(in, value));
    for (const ir::OpId id : k.op_ids()) {
      EXPECT_TRUE(r.value(id).contains(value[id.index()]))
          << "op " << id.index() << " value " << value[id.index()]
          << " escapes [" << r.value(id).range.lo << ","
          << r.value(id).range.hi << "]";
      // The width contract: the value fits in the proven width.
      const std::size_t w = r.width_of(id);
      if (w < 64) {
        const std::int64_t wlo = -(std::int64_t{1} << (w - 1));
        const std::int64_t whi = (std::int64_t{1} << (w - 1)) - 1;
        EXPECT_GE(value[id.index()], wlo);
        EXPECT_LE(value[id.index()], whi);
      }
    }
  }
}

// ------------------------------------------------------------ lints

TEST(AbsintLint, RangedAnalyzeMatchesClassicWhenDisabled) {
  const ir::Cdfg k = apps::fir_kernel(8);
  const Diagnostics classic = analyze_cdfg(k);
  const Diagnostics ranged_off = analyze_cdfg(k, /*with_ranges=*/false);
  EXPECT_EQ(classic.str(), ranged_off.str());
}

TEST(AbsintLint, StockKernelsStayErrorAndWarnFreeWithRanges) {
  // Range lints on unannotated stock kernels may add CDFG202 notes but
  // never errors or warnings — the flow's strict gate must stay green.
  for (const ir::Cdfg& k :
       {apps::fir_kernel(8), apps::dct8_kernel(), apps::sobel3_kernel(),
        apps::median5_kernel(), apps::checksum_kernel(4)}) {
    const Diagnostics d = analyze_cdfg(k, /*with_ranges=*/true);
    EXPECT_FALSE(d.has_errors()) << k.name() << "\n" << d.str();
    EXPECT_EQ(d.warn_count(), 0u) << k.name() << "\n" << d.str();
  }
}

TEST(AbsintLint, ProvenDivideByZeroIsCdfg200) {
  ir::Cdfg k("dz");
  const ir::OpId x = k.input("x");
  const ir::OpId d = k.input("d", {0, 0});
  k.output("y", k.binary(ir::OpKind::kDiv, x, d));
  const Diagnostics diags = lint_ranges(k);
  ASSERT_EQ(diags.error_count(), 1u) << diags.str();
  EXPECT_EQ(diags.items().front().code, "CDFG200");
}

TEST(AbsintLint, ProvenShiftOutOfRangeIsCdfg201) {
  ir::Cdfg k("so");
  const ir::OpId x = k.input("x");
  const ir::OpId amt = k.binary(ir::OpKind::kMax, x, k.constant(64));
  k.output("y", k.shr(x, amt));
  const Diagnostics diags = lint_ranges(k);
  ASSERT_EQ(diags.error_count(), 1u) << diags.str();
  EXPECT_EQ(diags.items().front().code, "CDFG201");
}

TEST(AbsintLint, ConstantOutputIsCdfg203AndDeadArmIsCdfg204) {
  ir::Cdfg k("cw");
  const ir::OpId x = k.input("x", {3, 3});
  const ir::OpId y = k.input("y", {0, 10});
  const ir::OpId c = k.binary(ir::OpKind::kCmpLt, y, k.constant(100));  // provably true
  const ir::OpId s = k.select(c, y, x);
  k.output("doubled", k.mul(x, k.constant(2)));  // provably 6
  k.output("sel", s);
  const Diagnostics diags = lint_ranges(k);
  bool saw203 = false, saw204 = false;
  for (const auto& d : diags.items()) {
    saw203 = saw203 || d.code == "CDFG203";
    saw204 = saw204 || d.code == "CDFG204";
    EXPECT_EQ(severity_name(d.severity), std::string("warn")) << d.code;
  }
  EXPECT_TRUE(saw203) << diags.str();
  EXPECT_TRUE(saw204) << diags.str();
}

// ------------------------------------------------------ serialization

TEST(AbsintSerialize, RangesRoundTripThroughText) {
  const ir::Cdfg k =
      ir::with_input_ranges(apps::fir_kernel(4), {-128, 127});
  const std::string text = ir::to_text(k);
  EXPECT_NE(text.find("range x0 -128 127"), std::string::npos) << text;
  const ir::Cdfg back = ir::cdfg_from_text(text);
  EXPECT_EQ(ir::content_hash(back), ir::content_hash(k));
  for (const ir::OpId id : back.inputs()) {
    ASSERT_TRUE(back.op(id).range.has_value());
    EXPECT_EQ(*back.op(id).range, (ir::ValueRange{-128, 127}));
  }
}

TEST(AbsintSerialize, FullRangeAnnotationIsTheUnannotatedKernel) {
  const ir::Cdfg plain = apps::fir_kernel(4);
  const ir::Cdfg full =
      ir::with_input_ranges(plain, {kMin, kMax});
  // A full-range annotation promises nothing: same content hash, same
  // serialized text as the historical unannotated form.
  EXPECT_EQ(ir::content_hash(full), ir::content_hash(plain));
  EXPECT_EQ(ir::to_text(full), ir::to_text(plain));
  // A real annotation changes the hash (the promise is load-bearing).
  const ir::Cdfg narrow = ir::with_input_ranges(plain, {-128, 127});
  EXPECT_NE(ir::content_hash(narrow), ir::content_hash(plain));
}

TEST(AbsintSerialize, InvertedRangeIsCdfg011) {
  const std::string text =
      "cdfg bad\n"
      "op input x\n"
      "op output y 0\n"
      "range x 5 -5\n"
      "end\n";
  const ir::Cdfg k = ir::cdfg_from_text(text);
  const Diagnostics diags = verify_cdfg(k);
  ASSERT_TRUE(diags.has_errors()) << diags.str();
  EXPECT_EQ(diags.items().front().code, "CDFG011");
}

// -------------------------------------------------- range-aware optimize

TEST(AbsintOptimize, FactsFoldProvablyDeadSelectArms) {
  ir::Cdfg k("selfold");
  const ir::OpId a = k.input("a", {0, 10});
  const ir::OpId b = k.input("b");
  const ir::OpId c = k.binary(ir::OpKind::kCmpLt, a, k.constant(100));  // provably 1
  k.output("y", k.select(c, a, b));
  const auto facts = absint_cdfg(k).interval_facts();
  ir::OptimizeStats stats;
  const ir::Cdfg opt = ir::optimize(k, facts, &stats);
  EXPECT_GE(stats.range_rewrites, 1u);
  EXPECT_LT(opt.num_ops(), k.num_ops());
  // Equivalence on in-range inputs.
  Rng rng(7);
  for (int t = 0; t < 32; ++t) {
    const std::map<std::string, std::int64_t> in = {
        {"a", rng.uniform_int(0, 10)},
        {"b", rng.uniform_int(-1000, 1000)}};
    EXPECT_EQ(k.evaluate(in).at("y"), opt.evaluate(in).at("y"));
  }
}

TEST(AbsintOptimize, NonNegativeDivByPow2BecomesShift) {
  ir::Cdfg k("divshift");
  const ir::OpId x = k.input("x", {0, 1000});
  k.output("y", k.binary(ir::OpKind::kDiv, x, k.constant(4)));
  const auto facts = absint_cdfg(k).interval_facts();
  ir::OptimizeStats stats;
  const ir::Cdfg opt = ir::optimize(k, facts, &stats);
  EXPECT_GE(stats.range_rewrites, 1u);
  bool has_div = false, has_shr = false;
  for (const ir::OpId id : opt.op_ids()) {
    has_div = has_div || opt.op(id).kind == ir::OpKind::kDiv;
    has_shr = has_shr || opt.op(id).kind == ir::OpKind::kShr;
  }
  EXPECT_FALSE(has_div);
  EXPECT_TRUE(has_shr);
  Rng rng(11);
  for (int t = 0; t < 32; ++t) {
    const std::map<std::string, std::int64_t> in = {
        {"x", rng.uniform_int(0, 1000)}};
    EXPECT_EQ(k.evaluate(in).at("y"), opt.evaluate(in).at("y"));
  }
  // Without the range fact the rewrite is unsound for negative x (trunc
  // vs floor) and must not fire.
  ir::OptimizeStats nofacts;
  ir::optimize(ir::Cdfg(k), {}, &nofacts);
  EXPECT_EQ(nofacts.range_rewrites, 0u);
}

TEST(AbsintOptimize, StatsSurfaceInTheCoreReport) {
  core::Report report;
  report.title = "t";
  report.optimize_stats.ops_before = 10;
  report.optimize_stats.ops_after = 7;
  report.optimize_stats.range_rewrites = 2;
  const std::string s = report.str();
  EXPECT_NE(s.find("optimize: 10 -> 7 ops"), std::string::npos) << s;
  EXPECT_NE(s.find("2 range rewrites"), std::string::npos) << s;
}

// -------------------------------------------------------- HLS narrowing

hw::HlsResult synth_wide(const ir::Cdfg& k, const hw::ComponentLibrary& lib) {
  hw::HlsConstraints c;
  c.goal = hw::HlsGoal::kMinArea;
  return hw::synthesize(k, lib, c);
}

hw::HlsResult synth_narrow(const ir::Cdfg& annotated,
                           const hw::ComponentLibrary& lib) {
  hw::HlsConstraints c;
  c.goal = hw::HlsGoal::kMinArea;
  c.op_width = absint_cdfg(annotated).width;
  return hw::synthesize(annotated, lib, c);
}

TEST(AbsintNarrow, NarrowingShrinksAreaOnExampleKernels) {
  const hw::ComponentLibrary lib = hw::default_library();
  const std::vector<ir::Cdfg> kernels = {
      apps::sobel3_kernel(), apps::fir_kernel(8), apps::dct8_kernel()};
  for (const ir::Cdfg& base : kernels) {
    const ir::Cdfg annotated = ir::with_input_ranges(base, {-128, 127});
    const hw::HlsResult wide = synth_wide(base, lib);
    const hw::HlsResult narrow = synth_narrow(annotated, lib);
    EXPECT_LT(narrow.area.total(), wide.area.total()) << base.name();
    // Same schedule length — narrowing touches widths, not timing.
    EXPECT_EQ(narrow.latency, wide.latency) << base.name();
    // The narrowed binding carries per-instance widths, all proven < 64
    // somewhere (the whole point for 8-bit inputs).
    ASSERT_FALSE(narrow.binding.register_width.empty()) << base.name();
    bool any_narrow = false;
    for (const std::size_t w : narrow.binding.register_width) {
      EXPECT_GE(w, 1u);
      EXPECT_LE(w, 64u);
      any_narrow = any_narrow || w < 64;
    }
    EXPECT_TRUE(any_narrow) << base.name();
  }
}

TEST(AbsintNarrow, NarrowedDatapathIsBitIdenticalOnInRangeInputs) {
  const hw::ComponentLibrary lib = hw::default_library();
  for (const ir::Cdfg& base :
       {apps::sobel3_kernel(), apps::fir_kernel(8), apps::dct8_kernel()}) {
    const ir::Cdfg annotated = ir::with_input_ranges(base, {-128, 127});
    const hw::HlsResult wide = synth_wide(base, lib);
    const hw::HlsResult narrow = synth_narrow(annotated, lib);
    // RtlSim wraps every committed value to its op's width, so a width
    // absint got wrong shows up here as different output bits.
    const hw::RtlSim wide_rtl(wide);
    const hw::RtlSim narrow_rtl(narrow);
    Rng rng(99);
    for (int t = 0; t < 16; ++t) {
      std::map<std::string, std::int64_t> in;
      for (const ir::OpId id : base.inputs()) {
        in[base.op(id).name] = rng.uniform_int(-128, 127);
      }
      EXPECT_EQ(narrow_rtl.run(in).outputs, wide_rtl.run(in).outputs)
          << base.name();
    }
  }
}

TEST(AbsintNarrow, UnsoundWidthsAreReportedDivergent) {
  // The flow's narrowing check (hw::check_equivalence on every cosim
  // sample) must reject widths that absint did not prove: dct8 with
  // every op forced to 4 bits.
  const hw::ComponentLibrary lib = hw::default_library();
  const ir::Cdfg kernel = apps::dct8_kernel();
  hw::HlsConstraints c;
  c.goal = hw::HlsGoal::kMinArea;
  c.op_width.assign(kernel.num_ops(), 4);
  const hw::HlsResult impl = hw::synthesize(kernel, lib, c);
  const std::vector<ir::OpId> inputs = kernel.inputs();
  const auto samples = core::cosim_samples(
      kernel, 64, core::FlowConfig::defaults().cosim_seed);
  std::size_t divergent = 0;
  for (const std::vector<std::int64_t>& sample : samples) {
    std::map<std::string, std::int64_t> in;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      in[kernel.op(inputs[k]).name] = sample[k];
    }
    if (!hw::check_equivalence(impl, in).equivalent) ++divergent;
  }
  EXPECT_GT(divergent, samples.size() / 2);
}

TEST(AbsintNarrow, CosimChecksumsMatchAtEveryInterfaceLevel) {
  const hw::ComponentLibrary lib = hw::default_library();
  const ir::Cdfg base = apps::sobel3_kernel();
  const ir::Cdfg annotated = ir::with_input_ranges(base, {-128, 127});
  const hw::HlsResult wide = synth_wide(base, lib);
  const hw::HlsResult narrow = synth_narrow(annotated, lib);
  Rng rng(5);
  std::vector<std::vector<std::int64_t>> samples;
  for (int s = 0; s < 4; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < base.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-128, 127));
    }
    samples.push_back(std::move(in));
  }
  for (const sim::InterfaceLevel level : sim::kAllInterfaceLevels) {
    sim::CosimConfig cfg;
    cfg.level = level;
    sim::SimRequest wreq;
    wreq.impl = &wide;
    wreq.samples = &samples;
    wreq.cosim = cfg;
    sim::SimRequest nreq = wreq;
    nreq.impl = &narrow;
    const sim::CosimReport wrep = std::move(sim::run(wreq).cosim).value();
    const sim::CosimReport nrep = std::move(sim::run(nreq).cosim).value();
    EXPECT_EQ(wrep.checksum, nrep.checksum)
        << sim::interface_level_name(level);
  }
}

TEST(AbsintNarrow, FlowWithNarrowingRunsAndReportsStats) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  const core::FlowConfig cfg = core::FlowConfig::defaults().with_narrowing();
  const core::FlowReport report =
      core::run_codesign_flow(w.graph, w.kernels, cfg);
  ASSERT_TRUE(report.cosim.has_value());
  // The flow optimized kernels, so the report records what happened.
  EXPECT_GT(report.report.optimize_stats.ops_before, 0u);
  // Same functional results as the unnarrowed flow (bit-identical cosim).
  const core::FlowReport plain =
      core::run_codesign_flow(w.graph, w.kernels, core::FlowConfig::defaults());
  ASSERT_TRUE(plain.cosim.has_value());
  EXPECT_EQ(report.cosim->checksum, plain.cosim->checksum);
}

}  // namespace
}  // namespace mhs::analysis
