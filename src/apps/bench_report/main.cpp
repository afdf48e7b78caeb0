// bench_report — aggregate and compare BENCH_<name>.json documents.
//
// Usage:
//   bench_report [--check] [--baseline FILE] [--threshold PCT]
//                [--out FILE] <files-or-dirs>...
//
// Inputs are BENCH_*.json files (directories are scanned for them).
// Modes compose:
//   default          print a summary table of every document;
//   --check          additionally stop at the first schema violation;
//   --out FILE       write the aggregate {"benches":[...]} document;
//   --baseline FILE  compare against an earlier run (a single document
//                    or an aggregate) and flag direction-aware metric
//                    regressions past --threshold (default 10%); a
//                    `machine differs:` line flags a baseline measured
//                    on another machine (without changing the exit code).
//
// Exit codes: 0 clean, 1 usage or I/O error, 2 schema violation,
// 3 regression detected.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bench_report/report_lib.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitSchema = 2;
constexpr int kExitRegression = 3;

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int usage() {
  std::cerr << "usage: bench_report [--check] [--baseline FILE] "
               "[--threshold PCT] [--out FILE] <files-or-dirs>...\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mhs::apps;
  std::vector<std::string> inputs;
  std::string baseline_path;
  std::string out_path;
  double threshold_pct = 10.0;
  bool check_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check_only = true;
    } else if (arg == "--baseline") {
      if (++i >= argc) return usage();
      baseline_path = argv[i];
    } else if (arg == "--threshold") {
      if (++i >= argc) return usage();
      try {
        threshold_pct = std::stod(argv[i]);
      } catch (const std::exception&) {
        return usage();
      }
    } else if (arg == "--out") {
      if (++i >= argc) return usage();
      out_path = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return kExitOk;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  std::string error;
  const std::optional<std::vector<std::string>> files =
      collect_inputs(inputs, &error);
  if (!files.has_value()) {
    std::cerr << "bench_report: " << error << "\n";
    return kExitUsage;
  }
  if (files->empty()) {
    std::cerr << "bench_report: no BENCH_*.json files found\n";
    return kExitUsage;
  }

  std::vector<BenchDoc> docs;
  for (const std::string& path : *files) {
    const std::optional<std::string> text = read_file(path);
    if (!text.has_value()) {
      std::cerr << "bench_report: cannot read " << path << "\n";
      return kExitUsage;
    }
    std::optional<BenchDoc> doc = parse_bench_doc(*text, &error);
    if (!doc.has_value()) {
      std::cerr << "bench_report: " << path << ": " << error << "\n";
      return kExitSchema;
    }
    docs.push_back(std::move(*doc));
  }

  std::cout << summary_table(docs);
  if (check_only) {
    std::cout << docs.size() << " document(s) valid\n";
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_report: cannot write " << out_path << "\n";
      return kExitUsage;
    }
    out << aggregate_json(docs);
    std::cout << "aggregate: " << out_path << "\n";
  }

  if (!baseline_path.empty()) {
    const std::optional<std::string> text = read_file(baseline_path);
    if (!text.has_value()) {
      std::cerr << "bench_report: cannot read baseline " << baseline_path
                << "\n";
      return kExitUsage;
    }
    const std::optional<std::vector<BenchDoc>> baseline =
        parse_baseline(*text, &error);
    if (!baseline.has_value()) {
      std::cerr << "bench_report: " << baseline_path << ": " << error << "\n";
      return kExitSchema;
    }
    std::cout << machine_note(docs, *baseline);
    const std::string table = comparison_table(docs, *baseline, threshold_pct);
    if (table.empty()) {
      std::cout << "baseline: no matching (bench, metric) pairs\n";
    } else {
      std::cout << "baseline comparison (threshold " << threshold_pct
                << "%):\n" << table;
    }
    const std::vector<Regression> regressions =
        compare_to_baseline(docs, *baseline, threshold_pct);
    if (!regressions.empty()) {
      std::cerr << "bench_report: " << regressions.size()
                << " metric(s) regressed past " << threshold_pct << "%\n";
      return kExitRegression;
    }
  }
  return kExitOk;
}
