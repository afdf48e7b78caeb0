// Tier-1 corpus replay: every committed fuzzer reproducer in
// tests/fixtures/corpus/*.cdfg is a past (or representative) fuzz find
// frozen as a permanent regression. Each file must parse, pass the
// structural verifier and the full analysis gates cleanly, and — the
// point of the corpus — hold up under differential HW/SW
// co-verification: synthesized under both min-area and min-latency
// goals, word-wide and narrowed, RtlSim must agree with the compiled
// reference on a seeded vector campaign (hw::verify_synthesis).
//
// To grow the corpus: take the "shrunk reproducer" block an equiv_fuzz
// or absint_fuzz failure prints, save it as a new .cdfg file here, fix
// the bug, and this test keeps it fixed.
//
// It also holds the serializer's round-trip property (CDFG010, which
// only mhs_lint and /v1/lint run) over every kernel family the
// benchmark draws, the examples/ir kernels, this corpus and seeded
// random kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/lint.h"
#include "analysis/verify.h"
#include "apps/kernels.h"
#include "base/rng.h"
#include "core/flow.h"
#include "fuzz_env.h"
#include "fuzz_kernels.h"
#include "hw/equivalence.h"
#include "hw/hls.h"
#include "ir/cdfg.h"
#include "ir/optimize.h"
#include "ir/serialize.h"

namespace mhs {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> cdfg_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".cdfg") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<fs::path> corpus_files() {
  return cdfg_files(fs::path(MHS_FIXTURE_DIR) / "corpus");
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Corpus, IsNonEmpty) {
  EXPECT_GE(corpus_files().size(), 1u)
      << "the reproducer corpus must never regress to empty";
}

TEST(Corpus, EveryReproducerParsesVerifiesAndLintsClean) {
  for (const fs::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const ir::Cdfg k = ir::cdfg_from_text(slurp(path));
    const analysis::Diagnostics verify = analysis::verify_cdfg(k);
    EXPECT_FALSE(verify.has_errors()) << verify.str();
    // Full gate stack (verify + lint + range lints), as the flow runs it.
    const analysis::Diagnostics diags =
        analysis::analyze_cdfg(k, /*with_ranges=*/true);
    EXPECT_FALSE(diags.has_errors()) << diags.str();
    // Round-trip stability: a committed reproducer re-serializes to
    // itself, so corpus files stay in canonical form.
    EXPECT_EQ(ir::to_text(k), slurp(path));
  }
}

TEST(Corpus, EveryReproducerIsEquivalentUnderDifferentialCheck) {
  // The schedule inside each HlsResult points at this library; it must
  // stay alive for as long as the implementations are exercised.
  const hw::ComponentLibrary lib = hw::default_library();
  for (const fs::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const ir::Cdfg k = ir::cdfg_from_text(slurp(path));
    ASSERT_FALSE(analysis::verify_cdfg(k).has_errors());
    const std::vector<std::size_t> widths = analysis::absint_cdfg(k).width;
    for (const hw::HlsGoal goal :
         {hw::HlsGoal::kMinArea, hw::HlsGoal::kMinLatency}) {
      for (const bool narrowed : {false, true}) {
        hw::HlsConstraints constraints;
        constraints.goal = goal;
        if (narrowed) constraints.op_width = widths;
        const hw::HlsResult impl = hw::synthesize(k, lib, constraints);
        const hw::EquivCampaign campaign =
            hw::verify_synthesis(impl, 16, 0xc02b05);
        EXPECT_TRUE(campaign.all_equivalent)
            << (narrowed ? "narrowed" : "word-wide") << ": "
            << campaign.first_failure;
        EXPECT_EQ(campaign.vectors + campaign.trapped, 16u);
      }
    }
  }
}

/// The round-trip property of one verified kernel: the serializer's
/// check reports nothing (ir::content_hash survives print and parse),
/// and the printed text is a fixed point of parse-then-print.
void expect_round_trips(const ir::Cdfg& k) {
  const analysis::Diagnostics diags = analysis::verify_roundtrip(k);
  EXPECT_TRUE(diags.empty()) << k.name() << ":\n" << diags.str();
  const std::string text = ir::to_text(k);
  EXPECT_EQ(ir::to_text(ir::cdfg_from_text(text)), text) << k.name();
}

TEST(RoundTrip, EveryBenchmarkKernelFamilyRoundTrips) {
  // The kernel families and parameters perfbench draws, each as built,
  // with its inputs range-annotated (as flow narrowing does), and in
  // its optimized forms.
  std::vector<ir::Cdfg> kernels;
  for (const std::size_t taps : {4, 8, 12, 16}) {
    kernels.push_back(apps::fir_kernel(taps));
  }
  for (const std::size_t n : {2, 4, 8}) kernels.push_back(apps::xtea_kernel(n));
  for (const std::size_t n : {4, 8, 16}) {
    kernels.push_back(apps::checksum_kernel(n));
  }
  for (const std::size_t n : {4, 8}) kernels.push_back(apps::sad_kernel(n));
  for (const std::size_t n : {2, 3}) kernels.push_back(apps::matmul_kernel(n));
  for (const std::size_t n : {4, 8}) {
    kernels.push_back(apps::quantize_kernel(n));
  }
  kernels.push_back(apps::dct8_kernel());
  kernels.push_back(apps::median5_kernel());
  kernels.push_back(apps::sobel3_kernel());
  kernels.push_back(apps::iir_biquad_kernel());
  ASSERT_EQ(kernels.size(), 20u);
  for (const ir::Cdfg& k : kernels) {
    const ir::Cdfg ranged = ir::with_input_ranges(k, {-128, 127});
    for (const ir::Cdfg& form :
         {k, ranged, ir::optimize(k),
          core::optimize_kernel(ranged, analysis::absint_cdfg(ranged))}) {
      ASSERT_FALSE(analysis::verify_cdfg(form).has_errors()) << form.name();
      expect_round_trips(form);
    }
  }
}

TEST(RoundTrip, EveryExampleAndCorpusKernelRoundTrips) {
  std::vector<fs::path> files = cdfg_files(MHS_EXAMPLES_IR_DIR);
  ASSERT_GE(files.size(), 3u);
  for (const fs::path& path : corpus_files()) files.push_back(path);
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    const ir::Cdfg k = ir::cdfg_from_text(slurp(path));
    ASSERT_FALSE(analysis::verify_cdfg(k).has_errors());
    expect_round_trips(k);
  }
}

TEST(RoundTrip, EveryVerifiedRandomKernelRoundTrips) {
  // Seeds base..base+N-1 under the fuzz_env.h contract (MHS_FUZZ_ITERS,
  // MHS_ROUNDTRIP_SEED); about nine in ten random kernels verify.
  const std::size_t iters = fuzz::fuzz_iters(3000);
  const std::uint64_t base = fuzz::fuzz_seed_base("MHS_ROUNDTRIP_SEED", 1);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    const ir::Cdfg k = fuzz::random_kernel(base + i);
    if (analysis::verify_cdfg(k).has_errors()) continue;
    ++checked;
    expect_round_trips(k);
    if (::testing::Test::HasFailure()) {
      FAIL() << "seed " << base + i << ":\n" << ir::to_text(k);
    }
  }
  EXPECT_GT(checked, iters / 2);
}

TEST(CompiledEvalDifferential, AgreesWithEvaluateOpByOp) {
  // ir::CompiledEval, the production evaluator, against the independent
  // oracle Cdfg::evaluate on random kernels (seeds as RoundTrip's, under
  // the fuzz_env.h contract) with range-corner inputs: run() returns
  // evaluate's outputs whenever evaluate returns, the per-op form traps
  // exactly when evaluate throws, and each op's value is evaluate of
  // that op's cone. Kernels the verifier rejects for a constant trap
  // (CDFG008/009) stay in: they are the sure traps.
  const std::size_t iters = fuzz::fuzz_iters(3000);
  const std::uint64_t base = fuzz::fuzz_seed_base("MHS_ROUNDTRIP_SEED", 1);
  std::size_t returned = 0;
  std::size_t trapped = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = base + i;
    const ir::Cdfg k = fuzz::random_kernel(seed);
    const ir::CompiledEval eval(k);
    std::vector<ir::Cdfg> cones;
    for (const ir::OpId id : k.op_ids()) {
      cones.push_back(ir::extract_cone(k, id));
    }
    const std::vector<ir::OpId> inputs = k.inputs();
    Rng rng(seed ^ 0xc0de'e7a1ull);
    for (int sample = 0; sample < 4; ++sample) {
      std::vector<std::int64_t> in;
      std::map<std::string, std::int64_t> named;
      for (const ir::OpId id : inputs) {
        const ir::ValueRange r = k.op(id).range.value_or(ir::ValueRange{});
        std::int64_t v;
        switch (rng.uniform_int(0, 3)) {
          case 0:  v = r.lo; break;
          case 1:  v = r.hi; break;
          default: v = draw_in_range(rng, r.lo, r.hi); break;
        }
        in.push_back(v);
        named[k.op(id).name] = v;
      }
      std::optional<std::map<std::string, std::int64_t>> want;
      try {
        want = k.evaluate(named);
      } catch (const PreconditionError&) {
      }
      std::vector<std::int64_t> values(k.num_ops());
      std::vector<std::int64_t> out(eval.num_outputs());
      const bool ok = eval.run_ops(in, values);
      ASSERT_EQ(ok, want.has_value())
          << "seed " << seed << " sample " << sample << ":\n"
          << ir::to_text(k);
      if (!ok) {
        EXPECT_THROW(eval.run(in, out), PreconditionError) << "seed " << seed;
        ++trapped;
        continue;
      }
      ++returned;
      eval.run(in, out);
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0], want->at("y")) << "seed " << seed;
      for (const ir::OpId id : k.op_ids()) {
        ASSERT_EQ(values[id.index()], cones[id.index()].evaluate(named).at("y"))
            << "seed " << seed << " sample " << sample << " op " << id.index()
            << ":\n" << ir::to_text(k);
      }
    }
  }
  EXPECT_GT(returned, iters);
  EXPECT_GT(trapped, iters / 20);
}

}  // namespace
}  // namespace mhs
