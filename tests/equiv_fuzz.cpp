// Tier-2 differential HW/SW co-verification fuzzer (built with the
// tree's sanitizer presets in the sanitize gate; see
// cmake/run_sanitized.cmake).
//
// The contract under attack: for every randomly generated CDFG, every
// synthesis goal, narrowed or word-wide datapath, and every input vector
// inside the declared ranges on which the reference does not trap, the
// synthesized implementation — executed cycle-by-cycle by hw::RtlSim
// through its FSM controller, FU binding, and register file — computes
// bit-identical outputs to ir::CompiledEval, in exactly the schedule's
// promised number of cycles, with the reference-predicted register-file
// final state (hw::check_equivalence).
//
// Kernels come from the shared generator (tests/fuzz_kernels.h): kernel
// i uses seed base+i (base overridable via MHS_EQUIV_SEED), so any
// mismatch reproduces from the printed seed alone. On a mismatch the
// harness shrinks twice — first to the smallest op cone that still
// fails under re-synthesis, then the inputs toward zero — and prints an
// ir::to_text reproducer ready for tests/fixtures/corpus/.
//
// Iteration counts honor MHS_FUZZ_ITERS; the default is 2500 kernels x
// 4 input vectors x (goal, narrowing) drawn per kernel = 10000 cases
// (ISSUE acceptance floor).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/verify.h"
#include "base/rng.h"
#include "fuzz_env.h"
#include "fuzz_kernels.h"
#include "hw/equivalence.h"
#include "hw/hls.h"
#include "ir/cdfg.h"
#include "ir/serialize.h"

namespace mhs::hw {
namespace {

constexpr std::uint64_t kSeedBase = 0x0e91f00dull;
constexpr std::size_t kSamplesPerKernel = 4;

/// One synthesis configuration drawn per kernel: a goal (with feasible
/// bounds derived from the kernel itself) plus optional PR-9 narrowing.
struct SynthPlan {
  HlsConstraints constraints;
  bool narrowed = false;
};

SynthPlan draw_plan(Rng& rng, const ir::Cdfg& k, const ComponentLibrary& lib) {
  SynthPlan plan;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      plan.constraints.goal = HlsGoal::kMinLatency;
      break;
    case 1:
      plan.constraints.goal = HlsGoal::kMinArea;
      break;
    case 2: {
      plan.constraints.goal = HlsGoal::kLatencyConstrained;
      const std::size_t asap = asap_schedule(k, lib).num_steps();
      plan.constraints.latency_bound =
          asap + static_cast<std::size_t>(rng.uniform_int(0, 8));
      break;
    }
    default: {
      plan.constraints.goal = HlsGoal::kResourceConstrained;
      for (std::size_t t = 0; t < kNumFuTypes; ++t) {
        plan.constraints.resources[all_fu_types()[t]] =
            1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
      }
      break;
    }
  }
  if (rng.bernoulli(0.5)) {
    plan.narrowed = true;
    plan.constraints.op_width = analysis::absint_cdfg(k).width;
  }
  return plan;
}

/// Re-derives the plan's constraints for a shrunk kernel (bounds and
/// widths are per-kernel, so they cannot be reused verbatim).
HlsConstraints refit(const SynthPlan& plan, const ir::Cdfg& k,
                     const ComponentLibrary& lib) {
  HlsConstraints c = plan.constraints;
  if (c.goal == HlsGoal::kLatencyConstrained) {
    // Keep the original slack over the (new) ASAP latency.
    c.latency_bound = asap_schedule(k, lib).num_steps() +
                      (plan.constraints.latency_bound > 0 ? 2 : 0);
  }
  if (plan.narrowed) {
    c.op_width = analysis::absint_cdfg(k).width;
  }
  return c;
}

/// Restricts a named input map to the inputs `k` actually has.
std::map<std::string, std::int64_t> restrict_inputs(
    const ir::Cdfg& k, const std::map<std::string, std::int64_t>& inputs) {
  std::map<std::string, std::int64_t> out;
  for (const ir::OpId id : k.inputs()) {
    const auto it = inputs.find(k.op(id).name);
    if (it != inputs.end()) out.insert(*it);
  }
  return out;
}

/// True when `k` synthesized under `plan` fails equivalence on `inputs`.
/// Trapping or infeasible configurations do not count as failures.
bool fails(const ir::Cdfg& k, const SynthPlan& plan,
           const ComponentLibrary& lib,
           const std::map<std::string, std::int64_t>& inputs,
           EquivResult* result = nullptr) {
  if (analysis::verify_cdfg(k).has_errors()) return false;
  try {
    const HlsResult impl = synthesize(k, lib, refit(plan, k, lib));
    const EquivResult r = check_equivalence(impl, inputs);
    if (result != nullptr) *result = r;
    return !r.trapped && !r.equivalent;
  } catch (const Error&) {
    return false;
  }
}

/// Two-stage minimization: smallest failing op cone, then inputs toward
/// zero. Returns the shrunk kernel and rewrites `inputs` in place.
ir::Cdfg shrink(const ir::Cdfg& k, const SynthPlan& plan,
                const ComponentLibrary& lib,
                std::map<std::string, std::int64_t>* inputs) {
  // Stage 1 — cone shrink: of all op cones that still fail (after
  // re-synthesis under refitted constraints), keep the smallest.
  ir::Cdfg best = k;
  std::map<std::string, std::int64_t> best_inputs = *inputs;
  for (const ir::OpId id : k.op_ids()) {
    if (!ir::op_is_compute(k.op(id).kind)) continue;
    const ir::Cdfg cone = ir::extract_cone(k, id);
    if (cone.num_ops() >= best.num_ops()) continue;
    const auto cone_inputs = restrict_inputs(cone, *inputs);
    if (fails(cone, plan, lib, cone_inputs)) {
      best = cone;
      best_inputs = cone_inputs;
    }
  }
  // Stage 2 — input shrink: push each input toward zero (then toward
  // its range's nearest bound) while the failure persists.
  for (const ir::OpId id : best.inputs()) {
    const std::string& name = best.op(id).name;
    const ir::ValueRange r =
        best.op(id).range.value_or(ir::ValueRange{});
    for (const std::int64_t candidate :
         {std::int64_t{0}, std::int64_t{1}, r.lo, r.hi}) {
      if (candidate < r.lo || candidate > r.hi) continue;
      if (best_inputs[name] == candidate) continue;
      std::map<std::string, std::int64_t> trial = best_inputs;
      trial[name] = candidate;
      if (fails(best, plan, lib, trial)) {
        best_inputs = trial;
        break;
      }
    }
  }
  *inputs = best_inputs;
  return best;
}

std::string describe_plan(const SynthPlan& plan) {
  std::string s;
  switch (plan.constraints.goal) {
    case HlsGoal::kMinLatency:          s = "min-latency"; break;
    case HlsGoal::kMinArea:             s = "min-area"; break;
    case HlsGoal::kLatencyConstrained:  s = "latency-constrained"; break;
    case HlsGoal::kResourceConstrained: s = "resource-constrained"; break;
  }
  return s + (plan.narrowed ? ", narrowed" : ", word-wide");
}

TEST(EquivFuzz, RtlSimMatchesCompiledReferenceAtScale) {
  const std::size_t kernels = fuzz::fuzz_iters(2500);
  const std::uint64_t base = fuzz::fuzz_seed_base("MHS_EQUIV_SEED", kSeedBase);
  const ComponentLibrary lib = default_library();
  std::size_t checked = 0;
  std::size_t trapped = 0;
  std::size_t synthesized = 0;
  // Seeds advance until `kernels` verify-clean kernels have been
  // synthesized (a random kernel may trip the structural verifier, e.g.
  // a constant shift amount outside [0,63]); the attempt cap only
  // guards against a generator regression starving the loop.
  for (std::uint64_t i = 0; synthesized < kernels; ++i) {
    ASSERT_LT(i, kernels * 8) << "generator yields too few valid kernels";
    const std::uint64_t seed = base + i;
    const ir::Cdfg k = fuzz::random_kernel(seed);
    if (analysis::verify_cdfg(k).has_errors()) continue;
    ++synthesized;
    Rng rng(seed ^ 0xd1ffe2e4ce5ull);
    const SynthPlan plan = draw_plan(rng, k, lib);
    std::optional<HlsResult> impl;
    try {
      impl.emplace(synthesize(k, lib, plan.constraints));
    } catch (const Error&) {
      // Infeasible bound draws are not failures of the contract.
      continue;
    }
    const ir::CompiledEval reference(k);
    EquivOptions options;
    options.reference = &reference;
    const std::vector<ir::OpId> input_ids = k.inputs();
    for (std::size_t s = 0; s < kSamplesPerKernel; ++s) {
      std::map<std::string, std::int64_t> inputs;
      for (const ir::OpId id : input_ids) {
        const ir::ValueRange r =
            k.op(id).range.value_or(ir::ValueRange{});
        std::int64_t v;
        switch (rng.uniform_int(0, 3)) {
          case 0:  v = r.lo; break;
          case 1:  v = r.hi; break;
          default: v = draw_in_range(rng, r.lo, r.hi); break;
        }
        inputs[k.op(id).name] = v;
      }
      const EquivResult result = check_equivalence(*impl, inputs, options);
      if (result.trapped) {
        ++trapped;
        continue;
      }
      ++checked;
      if (result.equivalent) continue;
      // Mismatch: shrink to the smallest failing cone + inputs, print
      // the full reproducer, and stop the campaign (first escape only).
      auto shrunk_inputs = inputs;
      const ir::Cdfg reproducer = shrink(k, plan, lib, &shrunk_inputs);
      std::string inputs_text;
      for (const auto& [name, value] : shrunk_inputs) {
        inputs_text +=
            (inputs_text.empty() ? "" : ", ") + name + "=" +
            std::to_string(value);
      }
      ADD_FAILURE() << "equivalence mismatch (seed " << seed << "; "
                    << describe_plan(plan) << "): " << result.detail
                    << "\n  shrunk inputs: " << inputs_text
                    << "\nshrunk reproducer:\n" << ir::to_text(reproducer);
      return;
    }
  }
  // The campaign must have compared at scale: most vectors do not trap.
  EXPECT_GT(checked, kernels);
  EXPECT_EQ(synthesized, kernels);
  RecordProperty("kernels", static_cast<int>(kernels));
  RecordProperty("checked_vectors", static_cast<int>(checked));
  RecordProperty("trapped_vectors", static_cast<int>(trapped));
}

// Determinism of the campaign inputs: the same seed regenerates the
// same kernel and the same synthesis plan — the printed-seed reproducer
// contract.
TEST(EquivFuzz, CampaignIsDeterministic) {
  const ComponentLibrary lib = default_library();
  for (const std::uint64_t seed :
       {kSeedBase, kSeedBase + 77, kSeedBase + 4242}) {
    const ir::Cdfg a = fuzz::random_kernel(seed);
    const ir::Cdfg b = fuzz::random_kernel(seed);
    EXPECT_EQ(ir::to_text(a), ir::to_text(b));
    if (analysis::verify_cdfg(a).has_errors()) continue;
    Rng ra(seed ^ 0xd1ffe2e4ce5ull);
    Rng rb(seed ^ 0xd1ffe2e4ce5ull);
    const SynthPlan pa = draw_plan(ra, a, lib);
    const SynthPlan pb = draw_plan(rb, b, lib);
    EXPECT_EQ(describe_plan(pa), describe_plan(pb));
    EXPECT_EQ(pa.constraints.op_width, pb.constraints.op_width);
  }
}

}  // namespace
}  // namespace mhs::hw
