// Application-specific instruction-set processor synthesis
// (the paper's §4.3 and §4.4; PEAS-I [14] and PRISM-style [15]).
//
// A base processor can be extended with optional hardware features, each
// with a silicon cost: a fast multiplier, a fast divider, a single-cycle
// memory port, a barrel shifter, native select/min/max/abs instructions,
// and a fused multiply-accumulate. Given a weighted set of application
// kernels and an area budget, the synthesizer measures each feature's
// cycle savings on the applications and picks the best subset (exact
// knapsack) — moving the HW/SW boundary "by adding new instructions to
// the instruction set architecture", including the modifiability story:
// everything still runs without the features, just slower.
//
// Two special-purpose-FU deployment styles (Figure 7) are also provided:
// a static FU set shared by all applications, and a field-reprogrammable
// slot that is reconfigured per application (PRISM-style [15]).
#pragma once

#include <string>
#include <vector>

#include "ir/cdfg.h"
#include "sw/cpu_model.h"
#include "sw/estimate.h"

namespace mhs::cosynth {

/// Optional ISA/datapath features.
enum class IsaFeature {
  kFastMul,       ///< 1-cycle multiplier
  kFastDiv,       ///< 6-cycle divider
  kFastMem,       ///< single-cycle load/store port
  kBarrelShift,   ///< (base already 1-cycle; models wide shifts) cheap
  kNativeSelect,  ///< select/min/max/abs as single instructions
  kMacFusion,     ///< fused multiply-accumulate
};

inline constexpr IsaFeature kAllIsaFeatures[] = {
    IsaFeature::kFastMul,  IsaFeature::kFastDiv,      IsaFeature::kFastMem,
    IsaFeature::kBarrelShift, IsaFeature::kNativeSelect,
    IsaFeature::kMacFusion};

const char* isa_feature_name(IsaFeature f);

/// Default silicon cost of each feature (area units).
double isa_feature_area(IsaFeature f);

/// One application kernel with its importance (e.g. invocation rate).
struct WeightedKernel {
  const ir::Cdfg* kernel = nullptr;
  double weight = 1.0;
  std::string name;
};

/// Estimated cycles for `kernel` on `base` extended with `features`
/// (reference-clock cycles per invocation).
double cycles_with_features(const ir::Cdfg& kernel, const sw::CpuModel& base,
                            const std::vector<IsaFeature>& features);

/// Counts fusable multiply-accumulate patterns (a*b+c with the multiply's
/// only consumer being the add) in a kernel.
std::size_t count_mac_patterns(const ir::Cdfg& kernel);

/// A synthesized ASIP.
struct AsipDesign {
  std::vector<IsaFeature> features;
  double area_used = 0.0;
  /// Weighted cycles before/after over the application set.
  double base_cycles = 0.0;
  double asip_cycles = 0.0;
  double speedup() const {
    return asip_cycles > 0.0 ? base_cycles / asip_cycles : 1.0;
  }

  // Common *Design shape (see core/report.h).
  double latency() const { return asip_cycles; }
  double area() const { return area_used; }
  std::string summary() const;
};

/// Figure 7, reconfigurable style: one programmable FU slot whose
/// configuration is swapped per application — each app gets its best
/// single feature; the slot's area is the max over chosen features plus a
/// reconfiguration overhead factor. (The static style, one feature set
/// shared by all applications, is cosynth::run(Target::kAsip).)
struct ReconfigSfuDesign {
  /// Per-application chosen feature (parallel to apps).
  std::vector<IsaFeature> per_app_feature;
  double area_used = 0.0;
  double base_cycles = 0.0;
  double sfu_cycles = 0.0;
  double speedup() const {
    return sfu_cycles > 0.0 ? base_cycles / sfu_cycles : 1.0;
  }

  // Common *Design shape (see core/report.h).
  double latency() const { return sfu_cycles; }
  double area() const { return area_used; }
  std::string summary() const;
};
ReconfigSfuDesign synthesize_sfu_reconfigurable(
    const std::vector<WeightedKernel>& apps, const sw::CpuModel& base,
    double area_budget, double reconfig_area_overhead = 1.25);

}  // namespace mhs::cosynth
