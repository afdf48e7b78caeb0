#include "apps/bench_report/report_lib.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>

#include "base/table.h"
#include "obs/json.h"

namespace mhs::apps {

namespace {

bool is_direction(const std::string& d) {
  return d == "lower" || d == "higher" || d == "info";
}

/// Extracts one bench document from an already-parsed JSON value.
/// `raw` is the document's own text (for lossless re-aggregation).
std::optional<BenchDoc> doc_from_value(const obs::JsonValue& value,
                                       std::string raw, std::string* error) {
  const auto fail = [error](const std::string& why) -> std::optional<BenchDoc> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!value.is_object()) return fail("document is not a JSON object");

  const obs::JsonValue* version = value.find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return fail("missing numeric schema_version");
  }
  if (version->as_number() != 1.0) {
    std::ostringstream os;
    os << "unsupported schema_version " << version->as_number();
    return fail(os.str());
  }

  BenchDoc doc;
  doc.raw = std::move(raw);
  const obs::JsonValue* name = value.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return fail("missing non-empty string name");
  }
  doc.name = name->as_string();
  if (const obs::JsonValue* title = value.find("title")) {
    doc.title = title->string_or("");
  }
  if (const obs::JsonValue* rev = value.find("git_rev")) {
    doc.git_rev = rev->string_or("");
  }
  if (const obs::JsonValue* wall = value.find("wall_ms")) {
    if (!wall->is_number()) return fail(doc.name + ": wall_ms not a number");
    doc.wall_ms = wall->as_number();
  }

  if (const obs::JsonValue* machine = value.find("machine")) {
    if (!machine->is_object()) {
      return fail(doc.name + ": machine is not an object");
    }
    doc.machine.emplace();
    for (const auto& [field, v] : machine->as_object()) {
      doc.machine->emplace_back(
          field, v.is_string() ? v.as_string() : obs::json_render(v));
    }
  }

  const obs::JsonValue* metrics = value.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    return fail(doc.name + ": missing metrics array");
  }
  for (const obs::JsonValue& entry : metrics->as_array()) {
    const obs::JsonValue* mname = entry.find("name");
    const obs::JsonValue* mvalue = entry.find("value");
    if (mname == nullptr || !mname->is_string() || mvalue == nullptr ||
        !mvalue->is_number()) {
      return fail(doc.name + ": metric without string name / numeric value");
    }
    BenchMetric metric;
    metric.name = mname->as_string();
    metric.value = mvalue->as_number();
    if (const obs::JsonValue* unit = entry.find("unit")) {
      metric.unit = unit->string_or("");
    }
    if (const obs::JsonValue* dir = entry.find("direction")) {
      metric.direction = dir->string_or("info");
    }
    if (!is_direction(metric.direction)) {
      return fail(doc.name + ": metric " + metric.name +
                  " has unknown direction '" + metric.direction + "'");
    }
    doc.metrics.push_back(std::move(metric));
  }

  const obs::JsonValue* claims = value.find("claims");
  if (claims == nullptr || !claims->is_array()) {
    return fail(doc.name + ": missing claims array");
  }
  for (const obs::JsonValue& entry : claims->as_array()) {
    const obs::JsonValue* text = entry.find("text");
    const obs::JsonValue* held = entry.find("held");
    if (text == nullptr || !text->is_string() || held == nullptr ||
        !held->is_bool()) {
      return fail(doc.name + ": claim without string text / boolean held");
    }
    doc.claims.push_back({text->as_string(), held->as_bool()});
  }
  return doc;
}

const BenchMetric* find_metric(const BenchDoc& doc, const std::string& name) {
  for (const BenchMetric& m : doc.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const BenchDoc* find_doc(const std::vector<BenchDoc>& docs,
                         const std::string& name) {
  for (const BenchDoc& d : docs) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

}  // namespace

std::optional<BenchDoc> parse_bench_doc(const std::string& text,
                                        std::string* error) {
  const std::optional<obs::JsonValue> value = obs::json_parse(text);
  if (!value.has_value()) {
    if (error != nullptr) *error = "invalid JSON";
    return std::nullopt;
  }
  return doc_from_value(*value, text, error);
}

std::optional<std::vector<std::string>> collect_inputs(
    const std::vector<std::string>& paths, std::string* error) {
  namespace fs = std::filesystem;
  std::set<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (const fs::directory_entry& entry : fs::directory_iterator(path, ec)) {
        const std::string base = entry.path().filename().string();
        if (entry.is_regular_file() && base.rfind("BENCH_", 0) == 0 &&
            base.size() > 5 &&
            base.compare(base.size() - 5, 5, ".json") == 0) {
          files.insert(entry.path().string());
        }
      }
      if (ec) {
        if (error != nullptr) *error = "cannot list " + path;
        return std::nullopt;
      }
    } else if (fs::is_regular_file(path, ec)) {
      files.insert(path);
    } else {
      if (error != nullptr) *error = "no such file or directory: " + path;
      return std::nullopt;
    }
  }
  return std::vector<std::string>(files.begin(), files.end());
}

std::optional<std::vector<BenchDoc>> parse_baseline(const std::string& text,
                                                    std::string* error) {
  const std::optional<obs::JsonValue> value = obs::json_parse(text);
  if (!value.has_value()) {
    if (error != nullptr) *error = "baseline is not valid JSON";
    return std::nullopt;
  }
  std::vector<BenchDoc> docs;
  if (const obs::JsonValue* benches = value->find("benches")) {
    if (!benches->is_array()) {
      if (error != nullptr) *error = "baseline 'benches' is not an array";
      return std::nullopt;
    }
    for (const obs::JsonValue& entry : benches->as_array()) {
      std::optional<BenchDoc> doc = doc_from_value(entry, "", error);
      if (!doc.has_value()) return std::nullopt;
      docs.push_back(std::move(*doc));
    }
    return docs;
  }
  std::optional<BenchDoc> doc = doc_from_value(*value, text, error);
  if (!doc.has_value()) return std::nullopt;
  docs.push_back(std::move(*doc));
  return docs;
}

std::string aggregate_json(const std::vector<BenchDoc>& docs) {
  std::ostringstream os;
  os << "{\"schema_version\": 1, \"benches\": [";
  for (std::size_t i = 0; i < docs.size(); ++i) {
    // Strip the document's trailing newline so the array reads cleanly.
    std::string body = docs[i].raw;
    while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
      body.pop_back();
    }
    os << (i == 0 ? "\n" : ",\n") << body;
  }
  os << (docs.empty() ? "]}" : "\n]}") << "\n";
  return os.str();
}

std::string summary_table(const std::vector<BenchDoc>& docs) {
  TextTable table({"bench", "wall ms", "metrics", "claims held", "git rev"});
  for (const BenchDoc& doc : docs) {
    std::size_t held = 0;
    for (const BenchClaim& c : doc.claims) held += c.held ? 1 : 0;
    table.add_row({doc.name, fmt(doc.wall_ms, 1), fmt(doc.metrics.size()),
                   fmt(held) + "/" + fmt(doc.claims.size()),
                   doc.git_rev.empty() ? "-" : doc.git_rev});
  }
  return table.str();
}

std::vector<Regression> compare_to_baseline(
    const std::vector<BenchDoc>& current,
    const std::vector<BenchDoc>& baseline, double threshold_pct) {
  std::vector<Regression> regressions;
  const double slack = threshold_pct / 100.0;
  for (const BenchDoc& doc : current) {
    const BenchDoc* base_doc = find_doc(baseline, doc.name);
    if (base_doc == nullptr) continue;
    for (const BenchMetric& metric : doc.metrics) {
      if (metric.direction == "info") continue;
      const BenchMetric* base = find_metric(*base_doc, metric.name);
      if (base == nullptr || !std::isfinite(base->value) ||
          base->value == 0.0) {
        continue;
      }
      const double change = (metric.value - base->value) / base->value;
      const bool worse = metric.direction == "lower" ? change > slack
                                                     : change < -slack;
      if (!worse) continue;
      regressions.push_back({doc.name, metric.name, metric.direction,
                             base->value, metric.value, 100.0 * change});
    }
  }
  return regressions;
}

std::string machine_note(const std::vector<BenchDoc>& current,
                         const std::vector<BenchDoc>& baseline) {
  using Fields = std::vector<std::pair<std::string, std::string>>;
  const auto value_of = [](const Fields& fields, const std::string& name) {
    for (const auto& [field, value] : fields) {
      if (field == name) return value;
    }
    return std::string("-");
  };
  std::vector<std::string> diffs;
  const auto note = [&](const std::string& diff) {
    if (std::find(diffs.begin(), diffs.end(), diff) == diffs.end()) {
      diffs.push_back(diff);
    }
  };
  for (const BenchDoc& doc : current) {
    const BenchDoc* base_doc = find_doc(baseline, doc.name);
    if (base_doc == nullptr) continue;
    if (!base_doc->machine.has_value()) {
      return "machine: baseline has no machine block\n";
    }
    const Fields& base = *base_doc->machine;
    const Fields cur = doc.machine.value_or(Fields{});
    for (const Fields* side : {&base, &cur}) {
      for (const auto& field : *side) {
        const std::string before = value_of(base, field.first);
        const std::string after = value_of(cur, field.first);
        if (before != after) {
          note(field.first + " (baseline " + before + ", run " + after + ")");
        }
      }
    }
  }
  if (diffs.empty()) return "";
  std::string line = "machine differs: ";
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    line += (i == 0 ? "" : ", ") + diffs[i];
  }
  return line + "\n";
}

std::string comparison_table(const std::vector<BenchDoc>& current,
                             const std::vector<BenchDoc>& baseline,
                             double threshold_pct) {
  const std::vector<Regression> regressions =
      compare_to_baseline(current, baseline, threshold_pct);
  const auto is_regression = [&](const std::string& bench,
                                 const std::string& metric) {
    return std::any_of(regressions.begin(), regressions.end(),
                       [&](const Regression& r) {
                         return r.bench == bench && r.metric == metric;
                       });
  };
  TextTable table({"bench", "metric", "dir", "baseline", "current",
                   "change %", "verdict"});
  std::size_t matched = 0;
  for (const BenchDoc& doc : current) {
    const BenchDoc* base_doc = find_doc(baseline, doc.name);
    if (base_doc == nullptr) continue;
    for (const BenchMetric& metric : doc.metrics) {
      const BenchMetric* base = find_metric(*base_doc, metric.name);
      if (base == nullptr) continue;
      ++matched;
      const double change = base->value == 0.0
                                ? 0.0
                                : 100.0 * (metric.value - base->value) /
                                      base->value;
      table.add_row({doc.name, metric.name, metric.direction,
                     fmt(base->value, 3), fmt(metric.value, 3),
                     fmt(change, 1),
                     is_regression(doc.name, metric.name) ? "REGRESSED"
                                                          : "ok"});
    }
  }
  return matched == 0 ? std::string() : table.str();
}

}  // namespace mhs::apps
