// Tests for the bench_report library: BENCH_<name>.json schema
// checking, lossless aggregation, baseline parsing, and the
// direction-aware regression comparator the CI gate builds on.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bench_report/report_lib.h"

namespace mhs::apps {
namespace {

std::string doc_text(const std::string& name, double lower_metric,
                     double higher_metric) {
  std::ostringstream os;
  os << "{\"schema_version\": 1, \"name\": \"" << name
     << "\", \"title\": \"t\", \"git_rev\": \"abc\", \"wall_ms\": 12.5, "
        "\"metrics\": ["
     << "{\"name\": \"wall\", \"value\": " << lower_metric
     << ", \"unit\": \"ms\", \"direction\": \"lower\"},"
     << "{\"name\": \"speedup\", \"value\": " << higher_metric
     << ", \"unit\": \"x\", \"direction\": \"higher\"},"
     << "{\"name\": \"points\", \"value\": 80, \"direction\": \"info\"}"
     << "], \"claims\": [{\"text\": \"holds\", \"held\": true}]}";
  return os.str();
}

TEST(BenchReport, ParsesWellFormedDocument) {
  std::string error;
  const std::optional<BenchDoc> doc =
      parse_bench_doc(doc_text("bench_x", 100.0, 2.0), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->name, "bench_x");
  EXPECT_EQ(doc->title, "t");
  EXPECT_EQ(doc->git_rev, "abc");
  EXPECT_DOUBLE_EQ(doc->wall_ms, 12.5);
  ASSERT_EQ(doc->metrics.size(), 3u);
  EXPECT_EQ(doc->metrics[0].name, "wall");
  EXPECT_EQ(doc->metrics[0].direction, "lower");
  EXPECT_EQ(doc->metrics[0].unit, "ms");
  EXPECT_EQ(doc->metrics[2].direction, "info");
  ASSERT_EQ(doc->claims.size(), 1u);
  EXPECT_TRUE(doc->claims[0].held);
}

TEST(BenchReport, RejectsSchemaViolations) {
  std::string error;
  EXPECT_FALSE(parse_bench_doc("not json", &error).has_value());
  EXPECT_NE(error.find("invalid JSON"), std::string::npos);
  EXPECT_FALSE(parse_bench_doc("[1, 2]", &error).has_value());
  EXPECT_FALSE(
      parse_bench_doc("{\"name\": \"x\", \"metrics\": [], \"claims\": []}",
                      &error)
          .has_value());
  EXPECT_NE(error.find("schema_version"), std::string::npos);
  EXPECT_FALSE(parse_bench_doc("{\"schema_version\": 2, \"name\": \"x\", "
                               "\"metrics\": [], \"claims\": []}",
                               &error)
                   .has_value());
  EXPECT_NE(error.find("unsupported"), std::string::npos);
  // Missing name / metrics / claims.
  EXPECT_FALSE(parse_bench_doc("{\"schema_version\": 1, \"metrics\": [], "
                               "\"claims\": []}",
                               &error)
                   .has_value());
  EXPECT_FALSE(parse_bench_doc(
                   "{\"schema_version\": 1, \"name\": \"x\", \"claims\": []}",
                   &error)
                   .has_value());
  EXPECT_FALSE(parse_bench_doc(
                   "{\"schema_version\": 1, \"name\": \"x\", \"metrics\": []}",
                   &error)
                   .has_value());
  // Ill-typed metric entries and unknown directions.
  EXPECT_FALSE(parse_bench_doc("{\"schema_version\": 1, \"name\": \"x\", "
                               "\"metrics\": [{\"name\": \"m\"}], "
                               "\"claims\": []}",
                               &error)
                   .has_value());
  EXPECT_FALSE(parse_bench_doc("{\"schema_version\": 1, \"name\": \"x\", "
                               "\"metrics\": [{\"name\": \"m\", \"value\": 1, "
                               "\"direction\": \"sideways\"}], "
                               "\"claims\": []}",
                               &error)
                   .has_value());
  EXPECT_NE(error.find("sideways"), std::string::npos);
  // Ill-typed claim.
  EXPECT_FALSE(parse_bench_doc("{\"schema_version\": 1, \"name\": \"x\", "
                               "\"metrics\": [], "
                               "\"claims\": [{\"text\": \"c\"}]}",
                               &error)
                   .has_value());
}

TEST(BenchReport, DetectsInjectedSlowdownPastThreshold) {
  std::string error;
  // Baseline wall 100 ms; current 120 ms — a 20% slowdown on a
  // lower-is-better metric must trip the default 10% threshold.
  const std::vector<BenchDoc> baseline = {
      *parse_bench_doc(doc_text("bench_x", 100.0, 2.0), &error)};
  const std::vector<BenchDoc> current = {
      *parse_bench_doc(doc_text("bench_x", 120.0, 2.0), &error)};
  const std::vector<Regression> regressions =
      compare_to_baseline(current, baseline, 10.0);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0].bench, "bench_x");
  EXPECT_EQ(regressions[0].metric, "wall");
  EXPECT_DOUBLE_EQ(regressions[0].baseline, 100.0);
  EXPECT_DOUBLE_EQ(regressions[0].current, 120.0);
  EXPECT_NEAR(regressions[0].change_pct, 20.0, 1e-9);
  // The rendered comparison flags it.
  const std::string table = comparison_table(current, baseline, 10.0);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
}

TEST(BenchReport, SmallChangesStayWithinThreshold) {
  std::string error;
  const std::vector<BenchDoc> baseline = {
      *parse_bench_doc(doc_text("bench_x", 100.0, 2.0), &error)};
  // 5% slower: within the 10% slack.
  const std::vector<BenchDoc> five = {
      *parse_bench_doc(doc_text("bench_x", 105.0, 2.0), &error)};
  EXPECT_TRUE(compare_to_baseline(five, baseline, 10.0).empty());
  // 20% faster is an improvement, never a regression.
  const std::vector<BenchDoc> faster = {
      *parse_bench_doc(doc_text("bench_x", 80.0, 2.0), &error)};
  EXPECT_TRUE(compare_to_baseline(faster, baseline, 10.0).empty());
  // A tighter threshold catches the 5%.
  EXPECT_EQ(compare_to_baseline(five, baseline, 2.0).size(), 1u);
}

TEST(BenchReport, HigherIsBetterDirectionInverts) {
  std::string error;
  const std::vector<BenchDoc> baseline = {
      *parse_bench_doc(doc_text("bench_x", 100.0, 4.0), &error)};
  // Speedup fell 4.0 -> 3.0 (-25%): regression for a "higher" metric.
  const std::vector<BenchDoc> current = {
      *parse_bench_doc(doc_text("bench_x", 100.0, 3.0), &error)};
  const std::vector<Regression> regressions =
      compare_to_baseline(current, baseline, 10.0);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0].metric, "speedup");
  EXPECT_LT(regressions[0].change_pct, 0.0);
  // A rising speedup never regresses.
  const std::vector<BenchDoc> better = {
      *parse_bench_doc(doc_text("bench_x", 100.0, 8.0), &error)};
  EXPECT_TRUE(compare_to_baseline(better, baseline, 10.0).empty());
}

TEST(BenchReport, InfoMetricsAndUnmatchedNamesNeverRegress) {
  std::string error;
  // "points" is info-direction: a 10x change is not a regression.
  std::string moved = doc_text("bench_x", 100.0, 2.0);
  const std::vector<BenchDoc> baseline = {*parse_bench_doc(moved, &error)};
  std::string shifted = moved;
  const std::size_t pos = shifted.find("\"value\": 80");
  shifted.replace(pos, 11, "\"value\": 800");
  const std::vector<BenchDoc> current = {*parse_bench_doc(shifted, &error)};
  EXPECT_TRUE(compare_to_baseline(current, baseline, 10.0).empty());
  // A bench missing from the baseline is skipped entirely.
  const std::vector<BenchDoc> other = {
      *parse_bench_doc(doc_text("bench_y", 500.0, 0.1), &error)};
  EXPECT_TRUE(compare_to_baseline(other, baseline, 10.0).empty());
  EXPECT_TRUE(comparison_table(other, baseline, 10.0).empty());
}

TEST(BenchReport, AggregateRoundTripsAsBaseline) {
  std::string error;
  const std::vector<BenchDoc> docs = {
      *parse_bench_doc(doc_text("bench_a", 10.0, 1.5), &error),
      *parse_bench_doc(doc_text("bench_b", 20.0, 3.0), &error)};
  const std::string aggregate = aggregate_json(docs);
  const std::optional<std::vector<BenchDoc>> round =
      parse_baseline(aggregate, &error);
  ASSERT_TRUE(round.has_value()) << error;
  ASSERT_EQ(round->size(), 2u);
  EXPECT_EQ((*round)[0].name, "bench_a");
  EXPECT_EQ((*round)[1].name, "bench_b");
  ASSERT_EQ((*round)[1].metrics.size(), 3u);
  EXPECT_DOUBLE_EQ((*round)[1].metrics[0].value, 20.0);
  // The round-tripped docs compare clean against the originals.
  EXPECT_TRUE(compare_to_baseline(docs, *round, 10.0).empty());
  // A single document also works as a baseline.
  const std::optional<std::vector<BenchDoc>> single =
      parse_baseline(doc_text("bench_a", 10.0, 1.5), &error);
  ASSERT_TRUE(single.has_value()) << error;
  EXPECT_EQ(single->size(), 1u);
  // An empty aggregate parses to zero docs.
  const std::optional<std::vector<BenchDoc>> none =
      parse_baseline(aggregate_json({}), &error);
  ASSERT_TRUE(none.has_value()) << error;
  EXPECT_TRUE(none->empty());
}

TEST(BenchReport, FlagsMachineMismatchWithBaseline) {
  std::string error;
  const auto doc = [&error](const std::string& machine) {
    const std::optional<BenchDoc> parsed = parse_bench_doc(
        "{\"schema_version\": 1, \"name\": \"bench_m\", " + machine +
            "\"metrics\": [], \"claims\": []}",
        &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    return parsed.value_or(BenchDoc{});
  };
  const auto machine = [](int threads) {
    return "\"machine\": {\"hardware_concurrency\": " +
           std::to_string(threads) +
           ", \"compiler\": \"gcc 12\", \"pointer_bits\": 64}, ";
  };
  const BenchDoc run = doc(machine(4));
  ASSERT_TRUE(run.machine.has_value());
  ASSERT_EQ(run.machine->size(), 3u);
  EXPECT_EQ((*run.machine)[0].second, "4");
  EXPECT_EQ((*run.machine)[1].second, "gcc 12");

  EXPECT_EQ(machine_note({run}, {doc(machine(4))}), "");
  EXPECT_EQ(machine_note({run}, {doc(machine(1))}),
            "machine differs: hardware_concurrency (baseline 1, run 4)\n");
  EXPECT_EQ(machine_note({run}, {doc("")}),
            "machine: baseline has no machine block\n");
  // A run without a machine block differs in every baseline field.
  EXPECT_EQ(machine_note({doc("")}, {doc(machine(1))}),
            "machine differs: hardware_concurrency (baseline 1, run -), "
            "compiler (baseline gcc 12, run -), "
            "pointer_bits (baseline 64, run -)\n");
  // Benches without a baseline counterpart are not compared.
  BenchDoc other = doc(machine(1));
  other.name = "bench_other";
  EXPECT_EQ(machine_note({run}, {other}), "");
  // The mismatch is informational: it is not a regression.
  EXPECT_TRUE(compare_to_baseline({run}, {doc(machine(1))}, 10.0).empty());
  EXPECT_FALSE(parse_bench_doc("{\"schema_version\": 1, \"name\": \"x\", "
                               "\"machine\": 3, \"metrics\": [], "
                               "\"claims\": []}",
                               &error)
                   .has_value());
  EXPECT_NE(error.find("machine"), std::string::npos);
}

TEST(BenchReport, SummaryTableListsEveryBench) {
  std::string error;
  const std::vector<BenchDoc> docs = {
      *parse_bench_doc(doc_text("bench_a", 10.0, 1.5), &error),
      *parse_bench_doc(doc_text("bench_b", 20.0, 3.0), &error)};
  const std::string table = summary_table(docs);
  EXPECT_NE(table.find("bench_a"), std::string::npos);
  EXPECT_NE(table.find("bench_b"), std::string::npos);
  EXPECT_NE(table.find("1/1"), std::string::npos);
  EXPECT_NE(table.find("abc"), std::string::npos);
}

TEST(BenchReport, CollectInputsScansDirectoriesForBenchJson) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mhs_bench_report_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "BENCH_a.json") << "{}";
  std::ofstream(dir / "BENCH_b.json") << "{}";
  std::ofstream(dir / "other.json") << "{}";
  std::ofstream(dir / "BENCH_c.txt") << "{}";
  std::string error;
  const std::optional<std::vector<std::string>> files =
      collect_inputs({dir.string()}, &error);
  ASSERT_TRUE(files.has_value()) << error;
  ASSERT_EQ(files->size(), 2u);  // only BENCH_*.json, sorted
  EXPECT_NE((*files)[0].find("BENCH_a.json"), std::string::npos);
  EXPECT_NE((*files)[1].find("BENCH_b.json"), std::string::npos);
  // An explicit file path is taken as-is, and deduplicated against the
  // directory scan.
  const std::optional<std::vector<std::string>> mixed = collect_inputs(
      {dir.string(), (dir / "BENCH_a.json").string()}, &error);
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->size(), 2u);
  // Nonexistent paths are an error.
  EXPECT_FALSE(
      collect_inputs({(dir / "missing.json").string()}, &error).has_value());
  EXPECT_NE(error.find("missing.json"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mhs::apps
