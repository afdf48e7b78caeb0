// Unit tests for mhs::analysis — the diagnostics engine, the CDFG /
// task-graph / process-network / HLS verifiers, the dataflow lint
// passes, and the flow-integrated gates.
#include <gtest/gtest.h>

#include <set>

#include "analysis/diag.h"
#include "analysis/lint.h"
#include "analysis/verify.h"
#include "apps/kernels.h"
#include "apps/workloads.h"
#include "core/flow.h"
#include "cosynth/run.h"
#include "hw/hls.h"
#include "ir/serialize.h"
#include "obs/json.h"

namespace mhs::analysis {
namespace {

// ---------------------------------------------------------------- Diag

TEST(Diag, RendersSeverityCodeLocationAndMessage) {
  Diag d;
  d.code = "CDFG001";
  d.severity = Severity::kError;
  d.location = {"op", 5, ""};
  d.message = "operand references missing value";
  EXPECT_EQ(d.str(), "error[CDFG001] op 5: operand references missing value");

  Diag named;
  named.code = "TG101";
  named.severity = Severity::kWarn;
  named.location = {"task", 2, "dct"};
  named.message = "duplicate name";
  EXPECT_EQ(named.str(), "warn[TG101] task 2 (dct): duplicate name");
}

TEST(Diag, CountsAndCleanliness) {
  Diagnostics diags;
  EXPECT_TRUE(diags.empty());
  EXPECT_TRUE(diags.clean());
  diags.add("CDFG100", Severity::kWarn, {"op", 1, ""}, "dead");
  EXPECT_FALSE(diags.clean());
  EXPECT_FALSE(diags.has_errors());
  diags.add("CDFG001", Severity::kError, {"op", 2, ""}, "dangling");
  diags.add("TG103", Severity::kNote, {"edge", 0, ""}, "zero bytes");
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.warn_count(), 1u);
  EXPECT_EQ(diags.note_count(), 1u);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_TRUE(diags.has_code("CDFG001"));
  EXPECT_FALSE(diags.has_code("CDFG002"));
}

TEST(Diag, MergePreservesOrder) {
  Diagnostics a;
  a.add("CDFG001", Severity::kError, {"op", 0, ""}, "first");
  Diagnostics b;
  b.add("CDFG003", Severity::kError, {"op", 1, ""}, "second");
  a.merge(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.items()[0].code, "CDFG001");
  EXPECT_EQ(a.items()[1].code, "CDFG003");
}

TEST(Diag, JsonRendersAndParses) {
  Diagnostics diags;
  diags.add("CDFG001", Severity::kError, {"op", 5, "alpha \"q\""},
            "a \"quoted\" message");
  diags.add("TG100", Severity::kWarn, {"task", -1, ""}, "whole graph");
  const std::string json = obs::json_render(diags.to_json());
  const auto parsed = obs::json_parse(json);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->as_array().size(), 2u);
  const obs::JsonValue& first = parsed->as_array()[0];
  EXPECT_EQ(first.find("code")->as_string(), "CDFG001");
  EXPECT_EQ(first.find("severity")->as_string(), "error");
  EXPECT_EQ(first.find("kind")->as_string(), "op");
  EXPECT_DOUBLE_EQ(first.find("id")->as_number(), 5.0);
  EXPECT_EQ(first.find("message")->as_string(), "a \"quoted\" message");
}

TEST(Diag, SeverityAndLintLevelNames) {
  EXPECT_STREQ(severity_name(Severity::kError), "error");
  EXPECT_STREQ(severity_name(Severity::kWarn), "warn");
  EXPECT_STREQ(severity_name(Severity::kNote), "note");
  EXPECT_STREQ(lint_level_name(LintLevel::kOff), "off");
  EXPECT_STREQ(lint_level_name(LintLevel::kWarn), "warn");
  EXPECT_STREQ(lint_level_name(LintLevel::kStrict), "strict");
}

// -------------------------------------------------------- CDFG verifier

/// A minimal well-formed kernel: y = (a + b) << 1.
ir::Cdfg good_kernel() {
  ir::Cdfg k("good");
  const ir::OpId a = k.input("a");
  const ir::OpId b = k.input("b");
  const ir::OpId one = k.constant(1);
  const ir::OpId sum = k.add(a, b);
  k.output("y", k.shl(sum, one));
  return k;
}

TEST(VerifyCdfg, CleanKernelHasNoFindings) {
  const Diagnostics diags = verify_cdfg(good_kernel());
  EXPECT_TRUE(diags.clean()) << diags.str();
}

TEST(VerifyCdfg, DanglingOperandIsCdfg001) {
  std::vector<ir::Op> ops;
  ops.push_back({ir::OpKind::kInput, {}, 0, "a", {}});
  ops.push_back(
      {ir::OpKind::kAdd, {ir::OpId(0), ir::OpId(17)}, 0, "", {}});
  ops.push_back({ir::OpKind::kOutput, {ir::OpId(1)}, 0, "y", {}});
  const ir::Cdfg bad = ir::Cdfg::from_ops("bad", std::move(ops));
  const Diagnostics diags = verify_cdfg(bad);
  EXPECT_TRUE(diags.has_code("CDFG001")) << diags.str();
  EXPECT_TRUE(diags.has_errors());
}

TEST(VerifyCdfg, ForwardReferenceIsCdfg002) {
  std::vector<ir::Op> ops;
  ops.push_back({ir::OpKind::kInput, {}, 0, "a", {}});
  // Op 1 consumes op 2's value, defined after it.
  ops.push_back({ir::OpKind::kAdd, {ir::OpId(0), ir::OpId(2)}, 0, "", {}});
  ops.push_back({ir::OpKind::kConst, {}, 3, "", {}});
  const ir::Cdfg bad = ir::Cdfg::from_ops("fwd", std::move(ops));
  EXPECT_TRUE(verify_cdfg(bad).has_code("CDFG002"));
}

TEST(VerifyCdfg, WrongArityIsCdfg003) {
  std::vector<ir::Op> ops;
  ops.push_back({ir::OpKind::kInput, {}, 0, "a", {}});
  ops.push_back({ir::OpKind::kAdd, {ir::OpId(0)}, 0, "", {}});  // add wants 2
  const ir::Cdfg bad = ir::Cdfg::from_ops("arity", std::move(ops));
  EXPECT_TRUE(verify_cdfg(bad).has_code("CDFG003"));
}

TEST(VerifyCdfg, MissingPortNameIsCdfg004) {
  std::vector<ir::Op> ops;
  ops.push_back({ir::OpKind::kInput, {}, 0, "", {}});  // unnamed input
  const ir::Cdfg bad = ir::Cdfg::from_ops("noname", std::move(ops));
  EXPECT_TRUE(verify_cdfg(bad).has_code("CDFG004"));
}

TEST(VerifyCdfg, DuplicatePortNameIsCdfg005) {
  std::vector<ir::Op> ops;
  ops.push_back({ir::OpKind::kInput, {}, 0, "a", {}});
  ops.push_back({ir::OpKind::kInput, {}, 0, "a", {}});
  const ir::Cdfg bad = ir::Cdfg::from_ops("dup", std::move(ops));
  EXPECT_TRUE(verify_cdfg(bad).has_code("CDFG005"));
}

TEST(VerifyCdfg, OperandReferencingOutputIsCdfg006) {
  std::vector<ir::Op> ops;
  ops.push_back({ir::OpKind::kInput, {}, 0, "a", {}});
  ops.push_back({ir::OpKind::kOutput, {ir::OpId(0)}, 0, "y", {}});
  // Op 2 consumes the *output* op's "value" — outputs produce none.
  ops.push_back({ir::OpKind::kNeg, {ir::OpId(1)}, 0, "", {}});
  ops.push_back({ir::OpKind::kOutput, {ir::OpId(2)}, 0, "z", {}});
  const ir::Cdfg bad = ir::Cdfg::from_ops("useout", std::move(ops));
  EXPECT_TRUE(verify_cdfg(bad).has_code("CDFG006"));
}

TEST(VerifyCdfg, ShiftAmountOutOfRangeIsCdfg008) {
  ir::Cdfg k("shift");
  const ir::OpId a = k.input("a");
  const ir::OpId big = k.constant(64);  // one past the 64-bit width
  k.output("y", k.shl(a, big));
  EXPECT_TRUE(verify_cdfg(k).has_code("CDFG008"));
}

TEST(VerifyCdfg, ConstantZeroDivisorIsCdfg009) {
  ir::Cdfg k("div0");
  const ir::OpId a = k.input("a");
  const ir::OpId zero = k.constant(0);
  k.output("y", k.binary(ir::OpKind::kDiv, a, zero));
  EXPECT_TRUE(verify_cdfg(k).has_code("CDFG009"));
}

TEST(VerifyCdfg, VerifierNeverThrowsOnCorruptIr) {
  // The whole point of the verifier: IR that would crash the consumers
  // must be diagnosable without crashing the diagnoser.
  std::vector<ir::Op> ops;
  ops.push_back({ir::OpKind::kSelect, {ir::OpId(9), ir::OpId(8)}, 0, "x", {}});
  ops.push_back({ir::OpKind::kOutput, {}, 0, "", {}});
  const ir::Cdfg bad = ir::Cdfg::from_ops("mess", std::move(ops));
  Diagnostics diags;
  EXPECT_NO_THROW(diags = verify_cdfg(bad));
  EXPECT_TRUE(diags.has_errors());
}

// ---------------------------------------------- serializer round trip

/// y = x + 1 under the given kernel and port names.
ir::Cdfg named_kernel(const std::string& name, const std::string& input,
                      const std::string& output) {
  ir::Cdfg k(name);
  k.output(output, k.add(k.input(input), k.constant(1)));
  return k;
}

TEST(VerifyRoundtrip, UnprintableNamesAreCdfg010AndNothingThrows) {
  // A library-built kernel can carry a name the text format cannot
  // print. The structural verifier has nothing against it; the round
  // trip reports CDFG010, with the parser's message when the printed
  // text does not parse back, and never throws that message.
  const struct {
    ir::Cdfg kernel;
    const char* message;
  } cases[] = {
      {named_kernel("two words", "x", "y"),
       "text must start with 'cdfg <name>'"},
      {named_kernel("k", "x y", "y"), "bad value id 'y'"},
      {named_kernel("k", "x", "y=1"), "unknown key y"},
      // '#' starts a comment, so the port reads back as "x".
      {named_kernel("k", "x#c", "y"), "content hash changed"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    Diagnostics structural;
    Diagnostics roundtrip;
    EXPECT_NO_THROW(structural = verify_cdfg(c.kernel));
    EXPECT_NO_THROW(roundtrip = verify_roundtrip(c.kernel));
    EXPECT_TRUE(structural.clean()) << structural.str();
    ASSERT_EQ(roundtrip.size(), 1u) << roundtrip.str();
    EXPECT_EQ(roundtrip.items()[0].code, "CDFG010");
    EXPECT_NE(roundtrip.items()[0].message.find(c.message),
              std::string::npos)
        << roundtrip.str();
  }
}

// -------------------------------------------------- task-graph verifier

TEST(VerifyTaskGraph, CleanGraphHasNoErrors) {
  const Diagnostics diags = verify_task_graph(apps::jpeg_pipeline_graph());
  EXPECT_FALSE(diags.has_errors()) << diags.str();
}

TEST(VerifyTaskGraph, CycleIsTg002) {
  ir::TaskGraph g("loop");
  const ir::TaskId a = g.add_task("a", {});
  const ir::TaskId b = g.add_task("b", {});
  g.add_edge(a, b, 16.0);
  g.add_edge(b, a, 16.0);
  EXPECT_TRUE(verify_task_graph(g).has_code("TG002"));
}

TEST(VerifyTaskGraph, NonFiniteAnnotationIsTg004) {
  ir::TaskGraph g("nan");
  ir::TaskCosts costs;
  costs.sw_cycles = -100.0;
  g.add_task("neg", costs);
  EXPECT_TRUE(verify_task_graph(g).has_code("TG004"));
}

// ----------------------------------------------------- network verifier

TEST(VerifyNetwork, CleanNetworksHaveNoErrors) {
  EXPECT_FALSE(verify_network(apps::ekg_monitor_network()).has_errors());
  EXPECT_FALSE(verify_network(apps::packet_pipeline_network()).has_errors());
}

TEST(VerifyNetwork, DanglingChannelOpIsPn001) {
  ir::ProcessNetwork net("bad");
  const ir::ProcessId p = net.add_process({"p", 100.0, 10.0, 50.0, {}});
  ir::ChannelOp op;
  op.kind = ir::ChannelOp::Kind::kSend;
  op.channel = ir::ChannelId(7);  // no such channel
  op.bytes = 8.0;
  net.process(p).ops.push_back(op);
  EXPECT_TRUE(verify_network(net).has_code("PN001"));
}

TEST(VerifyNetwork, WrongEndpointProcessIsPn002) {
  ir::ProcessNetwork net("bad");
  const ir::ProcessId a = net.add_process({"a", 100.0, 10.0, 50.0, {}});
  const ir::ProcessId b = net.add_process({"b", 100.0, 10.0, 50.0, {}});
  const ir::ChannelId ch = net.add_channel("ab", a, b, 4);
  // b (the consumer) performs a *send* on the channel.
  ir::ChannelOp op;
  op.kind = ir::ChannelOp::Kind::kSend;
  op.channel = ch;
  op.bytes = 8.0;
  net.process(b).ops.push_back(op);
  EXPECT_TRUE(verify_network(net).has_code("PN002"));
}

TEST(VerifyNetwork, ZeroCapacityChannelIsPn008) {
  // Builder and parser both reject capacity 0, so corrupt the channel
  // in place: the verifier must catch rot regardless of how it arose.
  ir::ProcessNetwork net("cap0");
  const ir::ProcessId a = net.add_process({"a", 100.0, 10.0, 50.0, {}});
  const ir::ProcessId b = net.add_process({"b", 100.0, 10.0, 50.0, {}});
  const ir::ChannelId ch = net.add_channel("ab", a, b, 1);
  const_cast<ir::Channel&>(net.channel(ch)).capacity = 0;
  EXPECT_TRUE(verify_network(net).has_code("PN008"));
}

// --------------------------------------------------------- HLS verifier

TEST(VerifyHls, SynthesizedImplementationIsClean) {
  // The schedule inside HlsResult points at the caller's Cdfg and library,
  // so both must outlive the implementation (same contract as
  // hw::RtlSim).
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
  const Diagnostics diags = verify_hls(impl);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
}

TEST(VerifyHls, CorruptedBindingIsReported) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
  // Point one compute op at an FU instance beyond the allocation.
  for (const ir::OpId id : impl.schedule.cdfg().op_ids()) {
    if (ir::op_is_compute(impl.schedule.cdfg().op(id).kind)) {
      impl.binding.fu_instance[id.index()] = 1000;
      break;
    }
  }
  EXPECT_TRUE(verify_hls(impl).has_code("HLS002"));
}

TEST(VerifyHls, OverlappingFuShareIsHls003) {
  // Force two ops of the same FU type onto the same instance; with the
  // min-latency (ASAP) schedule, independent adds overlap in time.
  ir::Cdfg k("share");
  const ir::OpId a = k.input("a");
  const ir::OpId b = k.input("b");
  const ir::OpId c = k.input("c");
  const ir::OpId d = k.input("d");
  const ir::OpId s1 = k.add(a, b);
  const ir::OpId s2 = k.add(c, d);
  k.output("y", k.add(s1, s2));
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinLatency;
  hw::HlsResult impl = hw::synthesize(k, lib, constraints);
  impl.binding.fu_instance[s1.index()] = 0;
  impl.binding.fu_instance[s2.index()] = 0;
  EXPECT_TRUE(verify_hls(impl).has_code("HLS003"));
}

TEST(VerifyHls, Hls003ListsEveryOverlappingPairInOpOrder) {
  // Three 3-cycle ALU ops started at steps 2, 0, 1 (in id order) all
  // overlap pairwise; two 2-cycle multiplies started at 0 and 1 overlap
  // once. Tampering each group onto one instance must report every
  // overlapping pair exactly once, ordered by (lower id, higher id) —
  // not by start step or by FU type.
  ir::Cdfg k("overlap3");
  const ir::OpId a = k.input("a");
  const ir::OpId b = k.input("b");
  const ir::OpId m = k.mul(a, b);                    // op 2
  const ir::OpId x = k.add(a, b);                    // op 3
  const ir::OpId c = k.constant(3);                  // op 4
  const ir::OpId y = k.sub(a, c);                    // op 5
  const ir::OpId m2 = k.mul(b, c);                   // op 6
  const ir::OpId z = k.bxor(a, b);                   // op 7
  for (const ir::OpId v : {x, y, z, m, m2}) {
    k.output("o" + std::to_string(v.index()), v);
  }
  hw::ComponentLibrary lib = hw::default_library();
  lib.spec(hw::FuType::kAlu).latency = 3;
  std::vector<std::size_t> start(k.num_ops(), 0);
  start[x.index()] = 2;
  start[z.index()] = 1;
  start[m2.index()] = 1;
  std::size_t out = 8;
  for (const std::size_t end : {5, 3, 4, 2, 3}) start[out++] = end;
  const hw::Schedule schedule(k, lib, start);
  hw::Binding binding = hw::bind(schedule);
  const hw::Controller controller(schedule, binding);
  hw::HlsResult impl{schedule, binding, controller, {}, schedule.num_steps()};
  for (const ir::OpId v : {x, y, z}) impl.binding.fu_instance[v.index()] = 1;
  for (const ir::OpId v : {m, m2}) impl.binding.fu_instance[v.index()] = 0;

  const Diagnostics diags = verify_hls(impl);
  std::vector<std::string> lines;
  for (const Diag& d : diags.items()) lines.push_back(d.str());
  const std::vector<std::string> expected = {
      "error[HLS003] op 2: shares mul instance 0 with op 6 in overlapping "
      "steps [0,2) and [1,3)",
      "error[HLS003] op 3: shares alu instance 1 with op 5 in overlapping "
      "steps [2,5) and [0,3)",
      "error[HLS003] op 3: shares alu instance 1 with op 7 in overlapping "
      "steps [2,5) and [1,4)",
      "error[HLS003] op 5: shares alu instance 1 with op 7 in overlapping "
      "steps [0,3) and [1,4)",
  };
  EXPECT_EQ(lines, expected);
}

TEST(VerifyHls, RegisterOutOfRangeIsHls004) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);
  for (std::size_t i = 0; i < impl.binding.register_of.size(); ++i) {
    if (impl.binding.register_of[i] != SIZE_MAX) {
      impl.binding.register_of[i] = impl.binding.num_registers + 5;
      break;
    }
  }
  EXPECT_TRUE(verify_hls(impl).has_code("HLS004"));
}

// ------------------------------------------------------------ lint pass

TEST(LintCdfg, DeadOpIsCdfg100) {
  ir::Cdfg k("dead");
  const ir::OpId a = k.input("a");
  const ir::OpId b = k.input("b");
  k.add(a, b);  // result reaches no output
  k.output("y", k.sub(a, b));
  const Diagnostics diags = lint_cdfg(k);
  EXPECT_TRUE(diags.has_code("CDFG100")) << diags.str();
  EXPECT_FALSE(diags.has_code("CDFG101"));
}

TEST(LintCdfg, UnusedInputIsCdfg101) {
  ir::Cdfg k("unused");
  const ir::OpId a = k.input("a");
  k.input("b");  // never consumed
  k.output("y", k.unary(ir::OpKind::kNeg, a));
  EXPECT_TRUE(lint_cdfg(k).has_code("CDFG101"));
}

TEST(LintCdfg, OutputFreeKernelIsCdfg102) {
  ir::Cdfg k("silent");
  k.input("a");
  EXPECT_TRUE(lint_cdfg(k).has_code("CDFG102"));
}

TEST(LintTaskGraph, DisconnectedTaskIsTg100) {
  ir::TaskGraph g("islands");
  const ir::TaskId a = g.add_task("a", {});
  const ir::TaskId b = g.add_task("b", {});
  g.add_task("lonely", {});
  g.add_edge(a, b, 64.0);
  EXPECT_TRUE(lint_task_graph(g).has_code("TG100"));
}

TEST(LintTaskGraph, DuplicateTaskNameIsTg101) {
  ir::TaskGraph g("dups");
  g.add_task("stage", {});
  g.add_task("stage", {});
  EXPECT_TRUE(lint_task_graph(g).has_code("TG101"));
}

TEST(LintNetwork, UnreadChannelIsPn100) {
  ir::ProcessNetwork net("oneway");
  const ir::ProcessId a = net.add_process({"a", 100.0, 10.0, 50.0, {}});
  const ir::ProcessId b = net.add_process({"b", 100.0, 10.0, 50.0, {}});
  const ir::ChannelId ch = net.add_channel("ab", a, b, 4);
  ir::ChannelOp op;
  op.kind = ir::ChannelOp::Kind::kSend;
  op.channel = ch;
  op.bytes = 8.0;
  net.process(a).ops.push_back(op);  // send without matching receive
  EXPECT_TRUE(lint_network(net).has_code("PN100"));
}

TEST(LintNetwork, UnconnectedChannelIsPn102) {
  ir::ProcessNetwork net("unused");
  const ir::ProcessId a = net.add_process({"a", 100.0, 10.0, 50.0, {}});
  const ir::ProcessId b = net.add_process({"b", 100.0, 10.0, 50.0, {}});
  net.add_channel("ab", a, b, 4);
  EXPECT_TRUE(lint_network(net).has_code("PN102"));
}

// --------------------------------------- shipped artifacts are clean

TEST(LintClean, AllStockKernelsAreLintCleanAtStrict) {
  const std::vector<std::pair<const char*, ir::Cdfg>> kernels = {
      {"fir8", apps::fir_kernel(8)},
      {"iir_biquad", apps::iir_biquad_kernel()},
      {"dct8", apps::dct8_kernel()},
      {"xtea8", apps::xtea_kernel(8)},
      {"median5", apps::median5_kernel()},
      {"checksum16", apps::checksum_kernel(16)},
      {"sad8", apps::sad_kernel(8)},
      {"matmul3", apps::matmul_kernel(3)},
      {"sobel3", apps::sobel3_kernel()},
      {"quantize8", apps::quantize_kernel(8)},
  };
  for (const auto& [name, kernel] : kernels) {
    const Diagnostics diags = analyze_cdfg(kernel);
    EXPECT_TRUE(diags.clean()) << name << ":\n" << diags.str();
  }
}

TEST(LintClean, StockWorkloadsAreLintCleanAtStrict) {
  EXPECT_TRUE(analyze_task_graph(apps::jpeg_pipeline_graph()).clean());
  EXPECT_TRUE(analyze_network(apps::ekg_monitor_network()).clean());
  EXPECT_TRUE(analyze_network(apps::packet_pipeline_network()).clean());
}

// ------------------------------------------------------------ the gates

TEST(Gates, ApplyGateThrowsOnlyAtStrict) {
  Diagnostics errors;
  errors.add("CDFG001", Severity::kError, {"op", 0, ""}, "dangling");
  EXPECT_FALSE(apply_gate("stage", LintLevel::kWarn, Diagnostics{}));
  EXPECT_TRUE(apply_gate("stage", LintLevel::kWarn, errors));
  EXPECT_THROW(apply_gate("stage", LintLevel::kStrict, errors),
               VerifyFailure);
  try {
    apply_gate("hls", LintLevel::kStrict, errors);
    FAIL() << "expected VerifyFailure";
  } catch (const VerifyFailure& e) {
    EXPECT_EQ(e.stage(), "hls");
    EXPECT_TRUE(e.diagnostics().has_code("CDFG001"));
    EXPECT_NE(std::string(e.what()).find("CDFG001"), std::string::npos);
  }
}

/// The dsp-chain workload with one kernel slot replaced by a corrupt
/// kernel (dangling operand).
apps::KernelBackedWorkload corrupted_workload() {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  std::vector<ir::Op> ops;
  ops.push_back({ir::OpKind::kInput, {}, 0, "a", {}});
  ops.push_back({ir::OpKind::kAdd, {ir::OpId(0), ir::OpId(42)}, 0, "", {}});
  ops.push_back({ir::OpKind::kOutput, {ir::OpId(1)}, 0, "y", {}});
  w.kernel_storage.push_back(
      ir::Cdfg::from_ops("corrupt", std::move(ops)));
  for (std::size_t i = 0; i < w.kernels.size(); ++i) {
    if (w.kernels[i] != nullptr) {
      w.kernels[i] = &w.kernel_storage.back();
      break;
    }
  }
  return w;
}

core::FlowConfig fast_flow_config() {
  core::FlowConfig config;
  config.validate_with_hls = false;
  config.cosimulate = false;
  return config;
}

TEST(Gates, FlowStrictFailsOnInjectedDanglingValue) {
  const apps::KernelBackedWorkload w = corrupted_workload();
  try {
    core::run_codesign_flow(
        w.graph, w.kernels,
        fast_flow_config().with_lint_level(LintLevel::kStrict));
    FAIL() << "expected VerifyFailure";
  } catch (const VerifyFailure& e) {
    EXPECT_EQ(e.stage(), "compile");
    EXPECT_TRUE(e.diagnostics().has_code("CDFG001"))
        << e.diagnostics().str();
  }
}

TEST(Gates, FlowWarnDropsCorruptKernelAndRecordsDiagnostics) {
  const apps::KernelBackedWorkload w = corrupted_workload();
  const core::FlowReport report = core::run_codesign_flow(
      w.graph, w.kernels,
      fast_flow_config().with_lint_level(LintLevel::kWarn));
  EXPECT_TRUE(report.report.diagnostics.has_code("CDFG001"));
  EXPECT_TRUE(report.report.diagnostics.has_errors());
}

TEST(Gates, FlowOffSkipsVerification) {
  // At kOff a *structurally sound* flow must carry zero diagnostics.
  const apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  const core::FlowReport report = core::run_codesign_flow(
      w.graph, w.kernels,
      fast_flow_config().with_lint_level(LintLevel::kOff));
  EXPECT_TRUE(report.report.diagnostics.empty());
}

TEST(Gates, FlowAlwaysRejectsCyclicGraphWhenGated) {
  ir::TaskGraph g("loop");
  const ir::TaskId a = g.add_task("a", {});
  const ir::TaskId b = g.add_task("b", {});
  g.add_edge(a, b, 8.0);
  g.add_edge(b, a, 8.0);
  const std::vector<const ir::Cdfg*> kernels(g.num_tasks(), nullptr);
  EXPECT_THROW(core::run_codesign_flow(
                   g, kernels,
                   fast_flow_config().with_lint_level(LintLevel::kWarn)),
               VerifyFailure);
}

TEST(Gates, CleanFlowIsLintCleanAtStrict) {
  const apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  const core::FlowReport report = core::run_codesign_flow(
      w.graph, w.kernels,
      fast_flow_config().with_lint_level(LintLevel::kStrict));
  EXPECT_FALSE(report.report.diagnostics.has_errors())
      << report.report.diagnostics.str();
}

/// dsp_chain with every kernel rebuilt from its ops, renamed "k <i>" when
/// `spaced_names` is set and with `port_suffix` appended to every port.
apps::KernelBackedWorkload renamed_dsp_chain(bool spaced_names,
                                             const std::string& port_suffix) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  for (std::size_t i = 0; i < w.kernel_storage.size(); ++i) {
    const ir::Cdfg& k = w.kernel_storage[i];
    std::vector<ir::Op> ops;
    for (const ir::OpId id : k.op_ids()) {
      ir::Op op = k.op(id);
      if (!op.name.empty()) op.name += port_suffix;
      ops.push_back(std::move(op));
    }
    // Assigned in place: w.kernels points at these elements.
    w.kernel_storage[i] = ir::Cdfg::from_ops(
        spaced_names ? "k " + std::to_string(i) : k.name(), std::move(ops));
  }
  return w;
}

TEST(Gates, UnprintableKernelNamesPassTheFlowAndCosynthGates) {
  // The gates verify kernels, not the serializer (CDFG010 is lint's):
  // kernels whose names the text format cannot print run exactly like
  // their plainly named twins.
  const struct {
    bool spaced_names;
    const char* port_suffix;
  } cases[] = {{true, ""}, {false, "=1"}, {false, "#c"}};
  const apps::KernelBackedWorkload plain = apps::dsp_chain_workload();
  for (const LintLevel level : {LintLevel::kWarn, LintLevel::kStrict}) {
    const core::FlowConfig config =
        core::FlowConfig::defaults().with_lint_level(level);
    const core::FlowReport want =
        core::run_codesign_flow(plain.graph, plain.kernels, config);
    ASSERT_TRUE(want.cosim.has_value());
    for (const auto& c : cases) {
      SCOPED_TRACE(std::string(lint_level_name(level)) + " spaced=" +
                   std::to_string(c.spaced_names) + " suffix=" +
                   c.port_suffix);
      const apps::KernelBackedWorkload w =
          renamed_dsp_chain(c.spaced_names, c.port_suffix);
      core::FlowReport got;
      ASSERT_NO_THROW(got = core::run_codesign_flow(w.graph, w.kernels,
                                                    config));
      const Diagnostics& diags = got.report.diagnostics;
      EXPECT_FALSE(diags.has_code("CDFG010")) << diags.str();
      EXPECT_FALSE(diags.has_errors()) << diags.str();
      EXPECT_EQ(got.design.partition.mapping,
                want.design.partition.mapping);
      const partition::Metrics& gm = got.design.partition.metrics;
      const partition::Metrics& wm = want.design.partition.metrics;
      EXPECT_EQ(gm.latency_cycles, wm.latency_cycles);
      EXPECT_EQ(gm.hw_area, wm.hw_area);
      EXPECT_EQ(gm.sw_code_bytes, wm.sw_code_bytes);
      EXPECT_EQ(gm.cross_comm_cycles, wm.cross_comm_cycles);
      EXPECT_EQ(gm.modifiability_penalty, wm.modifiability_penalty);
      EXPECT_EQ(gm.tasks_in_hw, wm.tasks_in_hw);
      EXPECT_EQ(gm.energy, wm.energy);
      EXPECT_EQ(got.validated_hw_area, want.validated_hw_area);
      ASSERT_TRUE(got.cosim.has_value());
      EXPECT_EQ(got.cosim->checksum, want.cosim->checksum);
    }
  }

  // cosynth::run gates every kernel of a kMixed request.
  const auto mixed = [](const apps::KernelBackedWorkload& w) {
    cosynth::Request req;
    req.graph = &w.graph;
    req.kernels = &w.kernels;
    req.area_budget = 4000.0;
    req.lint_level = LintLevel::kStrict;
    return cosynth::run(cosynth::Target::kMixed, req);
  };
  const cosynth::Result want = mixed(plain);
  for (const auto& c : cases) {
    const apps::KernelBackedWorkload w =
        renamed_dsp_chain(c.spaced_names, c.port_suffix);
    cosynth::Result got;
    ASSERT_NO_THROW(got = mixed(w)) << c.port_suffix;
    EXPECT_FALSE(got.diagnostics.has_code("CDFG010"));
    EXPECT_EQ(got.mixed->mapping, want.mixed->mapping);
    EXPECT_EQ(got.mixed->latency_cycles, want.mixed->latency_cycles);
    EXPECT_EQ(got.mixed->isa_area, want.mixed->isa_area);
    EXPECT_EQ(got.mixed->coproc_area, want.mixed->coproc_area);
  }
}

TEST(Gates, CosynthRunThrowsOnCorruptKernelInput) {
  std::vector<ir::Op> ops;
  ops.push_back({ir::OpKind::kInput, {}, 0, "a", {}});
  ops.push_back({ir::OpKind::kAdd, {ir::OpId(0), ir::OpId(9)}, 0, "", {}});
  ops.push_back({ir::OpKind::kOutput, {ir::OpId(1)}, 0, "y", {}});
  const ir::Cdfg bad = ir::Cdfg::from_ops("bad", std::move(ops));
  cosynth::Request req;
  req.apps = {{&bad, 1.0, "bad"}};
  EXPECT_THROW(cosynth::run(cosynth::Target::kAsip, req), VerifyFailure);
  // At kOff the gate is skipped and synthesis crashes are the caller's
  // problem — but we must not throw VerifyFailure.
  req.lint_level = LintLevel::kOff;
  Diagnostics none;
  EXPECT_NO_THROW(none = verify_cdfg(good_kernel()));
}

TEST(Gates, CosynthRunRecordsDiagnosticsOnCleanInputs) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const partition::CostModel model(g, hw::default_library());
  cosynth::Request req;
  req.model = &model;
  req.lint_level = LintLevel::kStrict;
  const cosynth::Result r = cosynth::run(cosynth::Target::kCoprocessor, req);
  EXPECT_FALSE(r.diagnostics.has_errors()) << r.diagnostics.str();
}

}  // namespace
}  // namespace mhs::analysis
