// The unified report every flow/explorer entry point returns.
//
// Before this API, each layer reported an ad-hoc struct with its own
// field names (FlowReport, ExploreReport, CoprocDesign, AsipDesign, ...),
// so runs could not be compared or audited uniformly. Report is the one
// envelope: a title, the designs the run produced — each flattened
// through the common *Design shape (latency() / area() / summary()) —
// and the observability summary (per-phase span timings and counter
// totals) captured from the current obs::Registry.
//
// FlowReport and ExploreReport embed a Report; any cosynth target's
// design can be added via add_design() because every design struct now
// exposes the same three accessors.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/diag.h"
#include "fault/fault.h"
#include "ir/optimize.h"
#include "obs/obs.h"

namespace mhs::core {

/// One design flattened to the common shape.
struct DesignSummary {
  std::string target;  ///< "coprocessor", "asip", "point#3 (kl)", ...
  double latency = 0.0;
  double area = 0.0;
  std::string detail;  ///< the design's own summary() text
};

/// The unified report envelope.
struct Report {
  std::string title;
  std::vector<DesignSummary> designs;
  /// Aggregated span timings and counter totals observed during the run
  /// (empty when no obs::Registry was installed).
  obs::Summary obs;
  /// Cycle-attribution breakdowns from any co-simulations the run
  /// performed (filled registry or not; rendered as self-normalizing
  /// tables by str()).
  std::vector<obs::Profile> profiles;
  /// Fault-injection scoreboards from any co-simulations that ran with
  /// an enabled FaultPlan (empty on fault-free runs).
  std::vector<fault::ResilienceReport> resilience;
  /// Findings of the analysis gates the run passed through (empty when
  /// FlowConfig.lint_level / Request.lint_level is kOff). At kStrict a
  /// gate throws analysis::VerifyFailure instead of returning a Report
  /// with error diagnostics.
  analysis::Diagnostics diagnostics;
  /// What the kernel optimizer did, summed across every kernel the run
  /// optimized (all-zero when optimization was disabled or the run had
  /// no kernels).
  ir::OptimizeStats optimize_stats;
  double wall_ms = 0.0;

  /// Adds any design exposing the common latency()/area()/summary()
  /// shape (every cosynth *Design, and cosynth::Result itself).
  template <typename Design>
  void add_design(std::string target, const Design& design) {
    designs.push_back({std::move(target), design.latency(), design.area(),
                       design.summary()});
  }

  /// Snapshots the current registry's aggregates (obs::registry(): the
  /// request's own inside a request scope) into `obs` (no-op when tracing
  /// is disabled).
  void capture_obs();

  /// Renders the whole report: banner, designs table, obs tables.
  std::string str() const;
};

}  // namespace mhs::core
