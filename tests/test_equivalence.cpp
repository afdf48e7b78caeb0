// Tier-1 coverage for the differential HW/SW co-verification stack:
// hw::RtlSim (the cycle-accurate RTL-level interpreter),
// hw::check_equivalence / hw::verify_synthesis (the differential
// checkers), the PR-9 narrowing end-to-end differential (narrowed and
// word-wide syntheses must be bit-identical under RtlSim), and the
// round-trip between the emitted Verilog text and the structures RtlSim
// executes.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "apps/kernels.h"
#include "base/error.h"
#include "base/rng.h"
#include "hw/equivalence.h"
#include "hw/hls.h"
#include "hw/rtl_emit.h"
#include "ir/cdfg.h"

namespace mhs::hw {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// The HlsResult's schedule keeps a pointer to the library, so the
// library must outlive every implementation synthesized from it.
const ComponentLibrary& shared_library() {
  static const ComponentLibrary lib = default_library();
  return lib;
}

HlsResult synth(const ir::Cdfg& k, HlsGoal goal,
                std::vector<std::size_t> widths = {}) {
  HlsConstraints constraints;
  constraints.goal = goal;
  constraints.op_width = std::move(widths);
  return synthesize(k, shared_library(), constraints);
}

std::map<std::string, std::int64_t> sample_inputs(const ir::Cdfg& k, Rng& rng,
                                                  std::int64_t lo = -128,
                                                  std::int64_t hi = 127) {
  std::map<std::string, std::int64_t> in;
  for (const ir::OpId id : k.inputs()) {
    in[k.op(id).name] = rng.uniform_int(lo, hi);
  }
  return in;
}

std::vector<ir::Cdfg> example_kernels() {
  std::vector<ir::Cdfg> kernels;
  kernels.push_back(apps::fir_kernel(8));
  kernels.push_back(apps::dct8_kernel());
  kernels.push_back(apps::median5_kernel());
  kernels.push_back(apps::checksum_kernel(8));
  kernels.push_back(apps::sobel3_kernel());
  kernels.push_back(apps::xtea_kernel(2));
  kernels.push_back(apps::iir_biquad_kernel());
  return kernels;
}

// ------------------------------------------------------------ wrap_to_width

TEST(WrapToWidth, SignExtendsFromTheSlicedBit) {
  EXPECT_EQ(wrap_to_width(127, 8), 127);
  EXPECT_EQ(wrap_to_width(128, 8), -128);
  EXPECT_EQ(wrap_to_width(255, 8), -1);
  EXPECT_EQ(wrap_to_width(-129, 8), 127);
  EXPECT_EQ(wrap_to_width(0, 1), 0);
  EXPECT_EQ(wrap_to_width(1, 1), -1);  // 1-bit two's complement: {-1, 0}
  const std::int64_t x = 0x7fff'abcd'1234'5678;
  EXPECT_EQ(wrap_to_width(x, 64), x);
  EXPECT_EQ(wrap_to_width(x, 100), x);
}

// ------------------------------------------------------------------ RtlSim

TEST(RtlSim, MatchesEvaluatorOnExampleKernels) {
  for (const ir::Cdfg& k : example_kernels()) {
    for (const HlsGoal goal : {HlsGoal::kMinLatency, HlsGoal::kMinArea}) {
      const HlsResult impl = synth(k, goal);
      const RtlSim sim(impl);
      Rng rng(2024);
      for (int s = 0; s < 4; ++s) {
        const auto in = sample_inputs(k, rng);
        const RtlTrace trace = sim.run(in);
        EXPECT_EQ(trace.outputs, k.evaluate(in)) << k.name();
        EXPECT_EQ(trace.cycles, impl.schedule.num_steps()) << k.name();
        EXPECT_EQ(trace.cycles, impl.latency) << k.name();
      }
    }
  }
}

TEST(RtlSim, StructuralAccessorsAgreeWithScheduleAndBinding) {
  const ir::Cdfg k = apps::fir_kernel(6);
  const HlsResult impl = synth(k, HlsGoal::kMinArea);
  const RtlSim sim(impl);
  EXPECT_EQ(sim.num_states(), impl.schedule.num_steps());
  EXPECT_EQ(sim.num_registers(), impl.binding.num_registers);
  std::size_t fus = 0;
  for (std::size_t t = 0; t < kNumFuTypes; ++t) {
    fus += impl.binding.fu_counts.count[t];
  }
  EXPECT_EQ(sim.num_fu_instances(), fus);
  std::size_t compute = 0;
  for (const ir::OpId id : k.op_ids()) {
    compute += ir::op_is_compute(k.op(id).kind) ? 1 : 0;
  }
  EXPECT_EQ(sim.num_compute_ops(), compute);
}

TEST(RtlSim, CountsFuFiresAndRegisterWrites) {
  const ir::Cdfg k = apps::median5_kernel();
  const HlsResult impl = synth(k, HlsGoal::kMinArea);
  const RtlSim sim(impl);
  Rng rng(7);
  const RtlTrace trace = sim.run(sample_inputs(k, rng));
  EXPECT_EQ(trace.fu_fires, sim.num_compute_ops());
  std::size_t registered = 0;
  for (const ir::OpId id : k.op_ids()) {
    registered += impl.binding.register_of[id.index()] != kNone ? 1 : 0;
  }
  EXPECT_EQ(trace.register_writes, registered);
}

TEST(RtlSim, RejectsATamperedBinding) {
  // Cross-validation: dropping a register allocation the controller's
  // load bits still reflect must be caught at construction, before any
  // vector runs — this is the structural power Cdfg::evaluate lacks.
  const ir::Cdfg k = apps::fir_kernel(4);
  HlsResult impl = synth(k, HlsGoal::kMinArea);
  std::size_t victim = kNone;
  for (const ir::OpId id : k.op_ids()) {
    if (impl.binding.register_of[id.index()] != kNone) {
      victim = id.index();
      break;
    }
  }
  ASSERT_NE(victim, kNone) << "expected at least one registered value";
  impl.binding.register_of[victim] = kNone;
  EXPECT_THROW((RtlSim(impl)), InternalError);
}

TEST(RtlSim, MissingInputIsAPreconditionError) {
  const ir::Cdfg k = apps::fir_kernel(4);
  const HlsResult impl = synth(k, HlsGoal::kMinLatency);
  const RtlSim sim(impl);
  EXPECT_THROW(sim.run({}), PreconditionError);
}

// ------------------------------------------------------- check_equivalence

TEST(CheckEquivalence, CleanOnExampleKernelsUnderEveryGoal) {
  for (const ir::Cdfg& k : example_kernels()) {
    for (const HlsGoal goal : {HlsGoal::kMinLatency, HlsGoal::kMinArea}) {
      const HlsResult impl = synth(k, goal);
      Rng rng(11);
      for (int s = 0; s < 3; ++s) {
        const EquivResult r = check_equivalence(impl, sample_inputs(k, rng));
        ASSERT_FALSE(r.trapped) << k.name();
        EXPECT_TRUE(r.equivalent) << k.name() << ": " << r.detail;
        EXPECT_EQ(r.cycles, impl.latency) << k.name();
        EXPECT_EQ(r.rtl_outputs, r.ref_outputs) << k.name();
      }
    }
  }
}

TEST(CheckEquivalence, IssLegAgrees) {
  const ir::Cdfg k = apps::checksum_kernel(4);
  const HlsResult impl = synth(k, HlsGoal::kMinArea);
  EquivOptions options;
  options.check_iss = true;
  Rng rng(3);
  const EquivResult r = check_equivalence(impl, sample_inputs(k, rng), options);
  ASSERT_FALSE(r.trapped);
  EXPECT_TRUE(r.equivalent) << r.detail;
}

TEST(CheckEquivalence, TrappingVectorsAreScreenedNotCompared) {
  ir::Cdfg k("trapdiv");
  const ir::OpId a = k.input("a");
  const ir::OpId b = k.input("b");
  k.output("y", k.binary(ir::OpKind::kDiv, a, b));
  const HlsResult impl = synth(k, HlsGoal::kMinArea);
  const EquivResult r = check_equivalence(impl, {{"a", 10}, {"b", 0}});
  EXPECT_TRUE(r.trapped);
  EXPECT_TRUE(r.equivalent);  // vacuously: nothing was compared
  const EquivResult ok = check_equivalence(impl, {{"a", 10}, {"b", 3}});
  EXPECT_FALSE(ok.trapped);
  EXPECT_TRUE(ok.equivalent) << ok.detail;

  // A shift amount outside [0,64) traps both ways.
  ir::Cdfg s("trapshift");
  const ir::OpId x = s.input("x");
  const ir::OpId n = s.input("n");
  s.output("l", s.shl(x, n));
  s.output("r", s.shr(x, n));
  const HlsResult shifter = synth(s, HlsGoal::kMinArea);
  for (const std::int64_t amount : {-1, 64}) {
    const EquivResult t = check_equivalence(shifter, {{"x", 5}, {"n", amount}});
    EXPECT_TRUE(t.trapped) << amount;
    EXPECT_TRUE(t.equivalent) << amount;
    EXPECT_TRUE(t.ref_outputs.empty()) << amount;
  }
  const EquivResult shifted =
      check_equivalence(shifter, {{"x", 5}, {"n", 63}});
  EXPECT_FALSE(shifted.trapped);
  EXPECT_TRUE(shifted.equivalent) << shifted.detail;
}

TEST(CheckEquivalence, ReportsTamperedImplementationAsNonEquivalent) {
  const ir::Cdfg k = apps::fir_kernel(4);
  HlsResult impl = synth(k, HlsGoal::kMinArea);
  std::size_t victim = kNone;
  for (const ir::OpId id : k.op_ids()) {
    if (impl.binding.register_of[id.index()] != kNone) {
      victim = id.index();
      break;
    }
  }
  ASSERT_NE(victim, kNone);
  impl.binding.register_of[victim] = kNone;
  Rng rng(5);
  const EquivResult r = check_equivalence(impl, sample_inputs(k, rng));
  EXPECT_FALSE(r.equivalent);
  EXPECT_FALSE(r.detail.empty());
}

// -------------------------------------------------------- verify_synthesis

TEST(VerifySynthesis, CampaignIsCleanAndDeterministic) {
  const ir::Cdfg k = ir::with_input_ranges(apps::sad_kernel(4), {-128, 127});
  const HlsResult impl = synth(k, HlsGoal::kMinArea);
  const EquivCampaign a = verify_synthesis(impl, 32, 99);
  EXPECT_TRUE(a.all_equivalent) << a.first_failure;
  EXPECT_EQ(a.vectors + a.trapped, 32u);
  EXPECT_GT(a.vectors, 0u);
  const EquivCampaign b = verify_synthesis(impl, 32, 99);
  EXPECT_EQ(a.vectors, b.vectors);
  EXPECT_EQ(a.trapped, b.trapped);
}

// ------------------------------------------- narrowing end-to-end (PR 9)

TEST(NarrowingDifferential, NarrowedAndWordWideAreBitIdenticalUnderRtlSim) {
  for (const ir::Cdfg& base : example_kernels()) {
    const ir::Cdfg k = ir::with_input_ranges(base, {-128, 127});
    const std::vector<std::size_t> widths = analysis::absint_cdfg(k).width;
    const HlsResult narrowed = synth(k, HlsGoal::kMinArea, widths);
    const HlsResult wide = synth(k, HlsGoal::kMinArea);
    ASSERT_TRUE(narrowed.schedule.has_op_widths()) << k.name();
    const RtlSim narrow_sim(narrowed);
    const RtlSim wide_sim(wide);
    Rng rng(0xbeef);
    for (int s = 0; s < 6; ++s) {
      const auto in = sample_inputs(k, rng);
      const RtlTrace nt = narrow_sim.run(in);
      const RtlTrace wt = wide_sim.run(in);
      EXPECT_EQ(nt.outputs, wt.outputs) << k.name();
      EXPECT_EQ(nt.cycles, wt.cycles) << k.name();
      // And both agree with the behavioural reference.
      EXPECT_EQ(nt.outputs, k.evaluate(in)) << k.name();
    }
    // The differential checker holds on the narrowed implementation too.
    const EquivCampaign campaign = verify_synthesis(narrowed, 16, 0xa11);
    EXPECT_TRUE(campaign.all_equivalent)
        << k.name() << ": " << campaign.first_failure;
  }
}

// ------------------------------------------------- RTL text round-trip

/// Parses "key=<number>" occurrences after `marker` on the line
/// containing it.
std::size_t parse_after(const std::string& text, const std::string& marker) {
  const std::size_t pos = text.find(marker);
  EXPECT_NE(pos, std::string::npos) << "marker '" << marker << "' not found";
  if (pos == std::string::npos) return 0;
  std::size_t value = 0;
  std::size_t i = pos + marker.size();
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  return value;
}

std::size_t count_lines_starting(const std::string& text,
                                 const std::string& prefix) {
  std::size_t n = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(RtlRoundTrip, EmittedTextAgreesWithRtlSimStructures) {
  for (const ir::Cdfg& k :
       {apps::fir_kernel(6), apps::median5_kernel(), apps::dct8_kernel()}) {
    for (const HlsGoal goal : {HlsGoal::kMinLatency, HlsGoal::kMinArea}) {
      const HlsResult impl = synth(k, goal);
      const RtlSim sim(impl);
      const std::string rtl = emit_verilog(impl);
      // Header latency comment == FSM state count executed by RtlSim.
      EXPECT_EQ(parse_after(rtl, "latency "), sim.num_states()) << k.name();
      // "// 0 = idle, 1..N = control steps" — same state space.
      EXPECT_EQ(parse_after(rtl, "// 0 = idle, 1.."), sim.num_states())
          << k.name();
      // FU allocation header == the binding's instance counts RtlSim
      // sizes its output latches from.
      std::size_t emitted_fus = 0;
      for (std::size_t t = 0; t < kNumFuTypes; ++t) {
        const std::string key = std::string(fu_name(all_fu_types()[t])) + "=";
        const std::size_t n = parse_after(rtl, key);
        EXPECT_EQ(n, impl.binding.fu_counts.count[t]) << k.name();
        emitted_fus += n;
      }
      EXPECT_EQ(emitted_fus, sim.num_fu_instances()) << k.name();
      // One value register declaration per compute op.
      EXPECT_EQ(count_lines_starting(rtl, "  reg  signed ["),
                sim.num_compute_ops())
          << k.name();
    }
  }
}

}  // namespace
}  // namespace mhs::hw
