// Reader, aggregator, and baseline comparator for the BENCH_<name>.json
// documents bench::Reporter writes.
//
// The library half of the bench_report CLI, split out so the regression
// logic (schema checking, direction-aware deltas, thresholding) is unit
// testable without spawning the binary. The CLI maps the outcomes to
// exit codes: 0 clean, 1 usage/IO error, 2 schema violation, 3
// regression past the threshold.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mhs::apps {

/// One metric from a bench document. `direction` is "lower", "higher",
/// or "info" — which way improvement points.
struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string direction = "info";
};

struct BenchClaim {
  std::string text;
  bool held = false;
};

/// One parsed BENCH_<name>.json document.
struct BenchDoc {
  std::string name;
  std::string title;
  std::string git_rev;
  double wall_ms = 0.0;
  std::vector<BenchMetric> metrics;
  std::vector<BenchClaim> claims;
  /// The `machine` block's fields, values as text, in document order;
  /// nullopt when the document has no machine block.
  std::optional<std::vector<std::pair<std::string, std::string>>> machine;
  /// The original document text (re-embedded verbatim by aggregate_json,
  /// so aggregation is lossless).
  std::string raw;
};

/// Parses and schema-checks one bench document. On failure returns
/// nullopt and, when `error` is non-null, a description of the first
/// violation (invalid JSON, wrong schema_version, missing/ill-typed
/// fields).
std::optional<BenchDoc> parse_bench_doc(const std::string& text,
                                        std::string* error);

/// Expands a list of files and directories into the BENCH_*.json files
/// they contain (a directory contributes every BENCH_*.json directly
/// inside it; a file is taken as-is). Sorted, deduplicated. Returns
/// nullopt on a nonexistent path (described in `error`).
std::optional<std::vector<std::string>> collect_inputs(
    const std::vector<std::string>& paths, std::string* error);

/// Parses a baseline file: either a single bench document or an
/// aggregate ({"schema_version":1,"benches":[...]}) as written by
/// aggregate_json.
std::optional<std::vector<BenchDoc>> parse_baseline(const std::string& text,
                                                    std::string* error);

/// The aggregate document: {"schema_version":1,"benches":[<docs>]}.
std::string aggregate_json(const std::vector<BenchDoc>& docs);

/// Plain-text overview of the aggregated benches (name, wall, metric
/// count, claims held).
std::string summary_table(const std::vector<BenchDoc>& docs);

/// One metric whose current value is worse than the baseline by more
/// than the threshold, judged by the metric's direction ("info" metrics
/// never regress).
struct Regression {
  std::string bench;
  std::string metric;
  std::string direction;
  double baseline = 0.0;
  double current = 0.0;
  /// Signed percent change, positive = value went up.
  double change_pct = 0.0;
};

/// Compares current docs against a baseline by (bench, metric) name.
/// `threshold_pct` is the allowed relative slack in percent (e.g. 10.0
/// lets a lower-is-better metric grow up to 10% before it counts).
/// Metrics or benches absent from either side are skipped.
std::vector<Regression> compare_to_baseline(
    const std::vector<BenchDoc>& current,
    const std::vector<BenchDoc>& baseline, double threshold_pct);

/// One line flagging that the run's machine differs from the baseline's:
/// "machine differs: <field> (baseline <b>, run <r>), ..." over every
/// (bench, baseline) pair matched by name, or "machine: baseline has no
/// machine block" when a matched baseline lacks one. Empty when the
/// machines agree or nothing matched. Informational: a mismatch never
/// counts as a regression.
std::string machine_note(const std::vector<BenchDoc>& current,
                         const std::vector<BenchDoc>& baseline);

/// Plain-text rendering of a comparison (all matched metrics, with the
/// regressions flagged); empty when nothing matched.
std::string comparison_table(const std::vector<BenchDoc>& current,
                             const std::vector<BenchDoc>& baseline,
                             double threshold_pct);

}  // namespace mhs::apps
