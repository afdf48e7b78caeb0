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
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/lint.h"
#include "analysis/verify.h"
#include "apps/kernels.h"
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

}  // namespace
}  // namespace mhs
