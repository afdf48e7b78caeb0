// The one enum-driven entry point of mhs::cosynth.
//
// Mirrors partition::run(Strategy, ...): every co-synthesis target the
// paper's §4 surveys is selectable through a single dispatcher,
//
//   cosynth::run(Target::kCoprocessor, request)   — §4.5 HW/SW partition
//   cosynth::run(Target::kAsip, request)          — §4.3/4.4 ISA features
//   cosynth::run(Target::kMixed, request)         — §2 Type I+II mixture
//   cosynth::run(Target::kInterface, request)     — §4.1 driver/interface
//   cosynth::run(Target::kImplSelect, request)    — module selection
//   cosynth::run(Target::kMultiprocPeriodic, request) — §4.2 periodic MP
//
// and returns a Result exposing the common *Design shape (latency(),
// area(), summary()), so core::Report can aggregate any target
// uniformly. run() is the only way in: the targets behind it are
// declared in the private header cosynth/targets.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diag.h"
#include "cosynth/asip.h"
#include "cosynth/coproc.h"
#include "cosynth/impl_select.h"
#include "cosynth/interface_synth.h"
#include "cosynth/mixed.h"
#include "cosynth/mtcoproc.h"
#include "cosynth/multiproc.h"
#include "cosynth/periodic.h"

namespace mhs::cosynth {

/// Every co-synthesis target selectable through run().
enum class Target {
  kCoprocessor,        ///< HW/SW partition onto a co-processor (§4.5)
  kAsip,               ///< ISA feature selection (§4.3/4.4)
  kMixed,              ///< joint Type I / Type II synthesis (§2)
  kInterface,          ///< driver + address-map synthesis (§4.1)
  kImplSelect,         ///< per-task implementation selection
  kMultiprocPeriodic,  ///< periodic heterogeneous multiprocessor (§4.2)
};

inline constexpr Target kAllTargets[] = {
    Target::kCoprocessor, Target::kAsip,       Target::kMixed,
    Target::kInterface,   Target::kImplSelect, Target::kMultiprocPeriodic};

/// Stable lower_snake name of a target.
const char* target_name(Target target);

/// Union of every target's inputs; fill the group your target reads
/// (run() checks the required pointers). Unrelated fields are ignored.
struct Request {
  // -- kCoprocessor: model + objective + strategy.
  const partition::CostModel* model = nullptr;
  partition::Objective objective;
  CoprocStrategy strategy = CoprocStrategy::kKl;

  // -- kAsip: apps + cpu + area_budget.
  std::vector<WeightedKernel> apps;
  sw::CpuModel cpu = sw::reference_cpu();

  // -- kMixed: graph + kernels + cpu + library + area_budget (+ comm).
  // -- kMultiprocPeriodic: graph (+ catalog).
  const ir::TaskGraph* graph = nullptr;
  const std::vector<const ir::Cdfg*>* kernels = nullptr;
  hw::ComponentLibrary library = hw::default_library();
  partition::CommModel comm;

  /// Silicon budget shared by kAsip, kMixed, and kImplSelect.
  double area_budget = 0.0;

  // -- kInterface: impl + samples + allocator (+ interface_reqs).
  const hw::HlsResult* impl = nullptr;
  InterfaceRequirements interface_reqs;
  const std::vector<std::vector<std::int64_t>>* samples = nullptr;
  AddressMapAllocator* allocator = nullptr;

  // -- kImplSelect: menus + area_budget.
  std::vector<ImplMenu> menus;

  // -- kMultiprocPeriodic: empty catalog = default_pe_catalog().
  std::vector<PeType> catalog;

  /// Analysis gate over the request's IR inputs (graphs, kernels, HLS
  /// implementations), run before dispatching to the target. At kOff the
  /// gate is skipped; otherwise findings land in Result::diagnostics and
  /// any ERROR finding aborts with analysis::VerifyFailure — unlike the
  /// flow, cosynth::run cannot skip a broken input, so warn and strict
  /// differ only in whether *this* dispatcher or a later consumer fails.
  analysis::LintLevel lint_level = analysis::LintLevel::kWarn;
};

/// Outcome of run(): exactly the member matching `target` is engaged.
/// The Result itself exposes the common *Design shape by forwarding to
/// the engaged design, so callers (and core::Report::add_design) need
/// not switch on the target.
struct Result {
  Target target = Target::kCoprocessor;
  /// Findings of the pre-dispatch analysis gate (warnings only: errors
  /// throw instead).
  analysis::Diagnostics diagnostics;
  std::optional<CoprocDesign> coprocessor;
  std::optional<AsipDesign> asip;
  std::optional<MixedDesign> mixed;
  std::optional<InterfaceDesign> iface;
  std::optional<ImplSelectDesign> impl_select;
  std::optional<MultiprocDesign> multiproc;

  double latency() const;
  double area() const;
  std::string summary() const;
};

/// Runs the chosen co-synthesis target over `request`.
Result run(Target target, const Request& request);

}  // namespace mhs::cosynth
