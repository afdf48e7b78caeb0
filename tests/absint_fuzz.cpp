// Tier-2 soundness fuzzer for mhs::analysis::absint (built with the
// tree's sanitizer presets in the sanitize gate; see
// cmake/run_sanitized.cmake).
//
// The contract under attack: for every randomly generated CDFG and every
// random input assignment inside the declared input ranges on which the
// kernel does not trap, the concrete value ir::CompiledEval computes for
// an op must lie inside the interval AND match the known-bits masks
// absint_cdfg derived for that op — and fit in the proven bitwidth.
//
// Kernels are seeded deterministically (kernel i uses seed base+i, base
// overridable via MHS_ABSINT_SEED; see tests/fuzz_env.h), so any escape
// reproduces from the printed seed alone. On an escape the harness
// shrinks to the smallest offending op chain (the transitive operand
// cone of the first escaping op, via ir::extract_cone), re-checks the
// cone on the same inputs, and prints it in serialized form.
//
// Iteration counts honor MHS_FUZZ_ITERS; the default is 10000 kernels
// (ISSUE acceptance floor), each evaluated on several input samples.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/verify.h"
#include "base/rng.h"
#include "fuzz_env.h"
#include "fuzz_kernels.h"
#include "ir/cdfg.h"
#include "ir/serialize.h"

namespace mhs::analysis {
namespace {

using fuzz::random_kernel;

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kSeedBase = 0xab51'f022ull;

bool fits_width(std::int64_t v, std::size_t w) {
  if (w >= 64) return true;
  const std::int64_t lo = -(std::int64_t{1} << (w - 1));
  const std::int64_t hi = (std::int64_t{1} << (w - 1)) - 1;
  return lo <= v && v <= hi;
}

/// Checks one kernel/sample pair, given every op's concrete `value` on
/// the sample; on the first escaping op, shrinks to its cone and reports
/// both forms. Returns false on escape.
bool check_sample(const ir::Cdfg& k, const AbsintResult& result,
                  const std::vector<std::int64_t>& input_values,
                  const std::vector<std::int64_t>& value, std::uint64_t seed) {
  for (const ir::OpId id : k.op_ids()) {
    const std::int64_t v = value[id.index()];
    const AbsValue& abs = result.value(id);
    const bool in_interval = abs.range.contains(v);
    const bool in_bits = abs.bits.contains(v);
    const bool in_width = fits_width(v, result.width_of(id));
    if (in_interval && in_bits && in_width) continue;
    // Escape: shrink to the offending op chain and report.
    const ir::Cdfg cone = ir::extract_cone(k, id);
    std::string inputs_text;
    for (std::size_t i = 0; i < input_values.size(); ++i) {
      inputs_text += (i == 0 ? "" : ", ") + std::to_string(input_values[i]);
    }
    ADD_FAILURE() << "soundness escape (seed " << seed << "): op "
                  << id.index() << " ("
                  << ir::op_name(k.op(id).kind) << ") concrete value "
                  << v << "\n  interval [" << abs.range.lo << ","
                  << abs.range.hi << "] contains=" << in_interval
                  << "\n  known zeros=" << std::hex << abs.bits.zeros
                  << " ones=" << abs.bits.ones << std::dec
                  << " contains=" << in_bits
                  << "\n  width=" << result.width_of(id)
                  << " fits=" << in_width
                  << "\n  full inputs (x0..): " << inputs_text
                  << "\nshrunk reproducer (op chain of the escape):\n"
                  << ir::to_text(cone);
    return false;
  }
  return true;
}

TEST(AbsintFuzz, NoIntervalOrKnownBitsEscapes) {
  const std::size_t kernels = fuzz::fuzz_iters(10000);
  const std::uint64_t base = fuzz::fuzz_seed_base("MHS_ABSINT_SEED", kSeedBase);
  constexpr std::size_t kSamplesPerKernel = 6;
  std::size_t checked_samples = 0;
  std::size_t trapped_samples = 0;
  std::size_t analyzed = 0;
  // Seeds advance until `kernels` verify-clean kernels have been
  // analyzed: a random kernel may trip the structural verifier (e.g. a
  // constant shift amount outside [0,63] is CDFG008), and absint's
  // precondition excludes those. The 8x attempt cap only guards against
  // a generator regression starving the loop.
  for (std::uint64_t i = 0; analyzed < kernels; ++i) {
    ASSERT_LT(i, kernels * 8) << "generator yields too few valid kernels";
    const std::uint64_t seed = base + i;
    const ir::Cdfg k = random_kernel(seed);
    if (verify_cdfg(k).has_errors()) continue;
    ++analyzed;
    const AbsintResult result = absint_cdfg(k);
    ASSERT_EQ(result.values.size(), k.num_ops());
    ASSERT_EQ(result.width.size(), k.num_ops());
    Rng rng(seed ^ 0x5eed5a3e11ull);
    const ir::CompiledEval eval(k);
    std::vector<std::int64_t> value(k.num_ops());
    const std::vector<ir::OpId> inputs = k.inputs();
    for (std::size_t s = 0; s < kSamplesPerKernel; ++s) {
      std::vector<std::int64_t> input_values;
      for (const ir::OpId id : inputs) {
        const ir::ValueRange r =
            k.op(id).range.value_or(ir::ValueRange{kI64Min, kI64Max});
        // Mix corner draws with uniform draws inside the declared range.
        std::int64_t v;
        switch (rng.uniform_int(0, 3)) {
          case 0:  v = r.lo; break;
          case 1:  v = r.hi; break;
          default: v = draw_in_range(rng, r.lo, r.hi); break;
        }
        input_values.push_back(v);
      }
      if (!eval.run_ops(input_values, value)) {
        ++trapped_samples;
        continue;
      }
      ++checked_samples;
      if (!check_sample(k, result, input_values, value, seed)) {
        return;  // first escape fully reported; stop the campaign
      }
    }
  }
  // The campaign must have exercised the contract at scale: most random
  // samples do not trap.
  EXPECT_GT(checked_samples, kernels);
  EXPECT_EQ(analyzed, kernels);
  RecordProperty("kernels", static_cast<int>(kernels));
  RecordProperty("checked_samples", static_cast<int>(checked_samples));
  RecordProperty("trapped_samples", static_cast<int>(trapped_samples));
}

// Determinism of the harness itself: the same seed regenerates the same
// kernel (a prerequisite for the printed-seed reproducer contract).
TEST(AbsintFuzz, KernelGenerationIsDeterministic) {
  for (std::uint64_t seed : {kSeedBase, kSeedBase + 123, kSeedBase + 9999}) {
    EXPECT_EQ(ir::to_text(random_kernel(seed)),
              ir::to_text(random_kernel(seed)));
    EXPECT_EQ(ir::content_hash(random_kernel(seed)),
              ir::content_hash(random_kernel(seed)));
  }
}

}  // namespace
}  // namespace mhs::analysis
