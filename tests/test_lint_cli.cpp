// Tests of the mhs_lint CLI (via its library entry point run_lint) over
// the corrupted-IR fixtures in tests/fixtures/: every corruption class
// must exit non-zero with its stable diagnostic code, every valid
// artifact must exit 0, and --check-json must report line/column.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/mhs_lint/lint_lib.h"
#include "obs/json.h"
#include "svc/artifact.h"

namespace mhs::apps {
namespace {

std::string fixture(const std::string& name) {
  return std::string(MHS_FIXTURE_DIR) + "/" + name;
}

struct LintOutcome {
  int exit_code = 0;
  std::string out;
  std::string err;
};

LintOutcome lint(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  LintOutcome outcome;
  outcome.exit_code = run_lint(args, out, err);
  outcome.out = out.str();
  outcome.err = err.str();
  return outcome;
}

TEST(LintCli, SniffsArtifactKinds) {
  using svc::ArtifactKind;
  using svc::sniff_artifact;
  EXPECT_EQ(sniff_artifact("taskgraph g\nend\n"), ArtifactKind::kTaskGraph);
  EXPECT_EQ(sniff_artifact("# comment\nnetwork n\nend\n"),
            ArtifactKind::kNetwork);
  EXPECT_EQ(sniff_artifact("cdfg k\nend\n"), ArtifactKind::kCdfg);
  EXPECT_EQ(sniff_artifact("bogus\n"), ArtifactKind::kUnknown);
  EXPECT_EQ(sniff_artifact(""), ArtifactKind::kUnknown);
}

TEST(LintCli, EveryCorruptedFixtureFailsWithItsStableCode) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"dangling_value.cdfg", "CDFG001"},
      {"forward_ref.cdfg", "CDFG002"},
      {"bad_arity.cdfg", "CDFG003"},
      {"dup_port.cdfg", "CDFG005"},
      {"shift_range.cdfg", "CDFG008"},
      {"cyclic.tg", "TG002"},
  };
  for (const auto& [file, code] : cases) {
    const LintOutcome r = lint({fixture(file)});
    EXPECT_EQ(r.exit_code, 1) << file << "\n" << r.out << r.err;
    EXPECT_NE(r.out.find(code), std::string::npos)
        << file << " should report " << code << ":\n"
        << r.out;
  }
}

TEST(LintCli, RangeLintFixturesFireOnlyUnderRanges) {
  // Each CDFG2xx fixture is structurally clean — without --ranges it
  // exits 0 and the code never appears. With --ranges the code fires
  // with the fixture's designed severity/exit code.
  struct Case {
    const char* file;
    const char* code;
    int ranges_exit;
  };
  const std::vector<Case> cases = {
      {"range_div_zero.cdfg", "CDFG200", 1},      // error
      {"range_shift_oob.cdfg", "CDFG201", 1},     // error
      {"range_overflow.cdfg", "CDFG202", 0},      // note
      {"range_const_output.cdfg", "CDFG203", 0},  // warn
      {"range_dead_select.cdfg", "CDFG204", 0},   // warn
  };
  for (const Case& c : cases) {
    const LintOutcome off = lint({fixture(c.file)});
    EXPECT_EQ(off.exit_code, 0) << c.file << "\n" << off.out << off.err;
    EXPECT_EQ(off.out.find(c.code), std::string::npos) << c.file;

    const LintOutcome on = lint({"--ranges", fixture(c.file)});
    EXPECT_EQ(on.exit_code, c.ranges_exit) << c.file << "\n" << on.out;
    EXPECT_NE(on.out.find(c.code), std::string::npos)
        << c.file << " should report " << c.code << ":\n"
        << on.out;
  }
}

TEST(LintCli, RangeLintWarningsGateUnderStrict) {
  // CDFG203/204 are warnings: strict turns them into failures.
  for (const char* file : {"range_const_output.cdfg",
                           "range_dead_select.cdfg"}) {
    const LintOutcome strict = lint({"--ranges", "--strict", fixture(file)});
    EXPECT_EQ(strict.exit_code, 1) << file << "\n" << strict.out;
  }
  // CDFG202 is a note: it never gates, even under strict.
  const LintOutcome note =
      lint({"--ranges", "--strict", fixture("range_overflow.cdfg")});
  EXPECT_EQ(note.exit_code, 0) << note.out;
}

TEST(LintCli, RangeLintJsonCarriesCodeAndLocation) {
  const LintOutcome r =
      lint({"--ranges", "--json", fixture("range_div_zero.cdfg")});
  EXPECT_EQ(r.exit_code, 1);
  const auto parsed = obs::json_parse(r.out);
  ASSERT_TRUE(parsed.has_value()) << r.out;
  ASSERT_TRUE(parsed->is_array());
  bool found = false;
  for (const obs::JsonValue& item : parsed->as_array()) {
    const obs::JsonValue* code = item.find("code");
    if (code == nullptr || !code->is_string() ||
        code->as_string() != "CDFG200") {
      continue;
    }
    found = true;
    // The diagnostic must point at the div op (index 2 in the fixture).
    const obs::JsonValue* id = item.find("id");
    ASSERT_NE(id, nullptr) << r.out;
    EXPECT_EQ(id->as_number(), 2.0) << r.out;
    const obs::JsonValue* kind = item.find("kind");
    ASSERT_NE(kind, nullptr) << r.out;
    EXPECT_EQ(kind->as_string(), "op") << r.out;
  }
  EXPECT_TRUE(found) << r.out;
}

TEST(LintCli, ServerJsonModeForwardsRangesFlag) {
  const LintOutcome r = lint(
      {"--server-json", "--ranges", fixture("range_div_zero.cdfg")});
  EXPECT_EQ(r.exit_code, 1) << r.out << r.err;
  EXPECT_NE(r.out.find("\"ranges\":true"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("CDFG200"), std::string::npos) << r.out;
}

TEST(LintCli, ValidArtifactExitsZero) {
  const LintOutcome r = lint({fixture("valid_small.cdfg")});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
}

TEST(LintCli, WarningOnlyArtifactFailsOnlyUnderStrict) {
  const LintOutcome normal = lint({fixture("isolated_process.pn")});
  EXPECT_EQ(normal.exit_code, 0) << normal.out << normal.err;
  EXPECT_NE(normal.out.find("PN103"), std::string::npos) << normal.out;

  const LintOutcome strict =
      lint({"--strict", fixture("isolated_process.pn")});
  EXPECT_EQ(strict.exit_code, 1) << strict.out << strict.err;
}

TEST(LintCli, JsonOutputParsesAndCarriesTheCode) {
  const LintOutcome r = lint({"--json", fixture("dangling_value.cdfg")});
  EXPECT_EQ(r.exit_code, 1);
  const auto parsed = obs::json_parse(r.out);
  ASSERT_TRUE(parsed.has_value()) << r.out;
  ASSERT_TRUE(parsed->is_array());
  bool found = false;
  for (const obs::JsonValue& item : parsed->as_array()) {
    if (const obs::JsonValue* code = item.find("code")) {
      if (code->is_string() && code->as_string() == "CDFG001") found = true;
    }
  }
  EXPECT_TRUE(found) << r.out;
}

TEST(LintCli, CheckJsonReportsLineAndColumn) {
  const LintOutcome good = lint({"--check-json", fixture("good.json")});
  EXPECT_EQ(good.exit_code, 0) << good.out << good.err;
  EXPECT_NE(good.out.find("valid JSON"), std::string::npos);

  const LintOutcome bad = lint({"--check-json", fixture("bad_position.json")});
  EXPECT_EQ(bad.exit_code, 1) << bad.out << bad.err;
  EXPECT_NE(bad.out.find("line 3, column 20"), std::string::npos) << bad.out;
}

TEST(LintCli, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(lint({}).exit_code, 2);
  EXPECT_EQ(lint({"--frobnicate"}).exit_code, 2);
  EXPECT_EQ(lint({fixture("no_such_file.cdfg")}).exit_code, 2);
  // A file that is not IR at all: sniffing fails.
  EXPECT_EQ(lint({fixture("good.json")}).exit_code, 2);
}

TEST(LintCli, HelpExitsZero) {
  const LintOutcome r = lint({"--help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(LintCli, MultipleFilesAggregate) {
  const LintOutcome r =
      lint({fixture("valid_small.cdfg"), fixture("dangling_value.cdfg")});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("CDFG001"), std::string::npos);
}

}  // namespace
}  // namespace mhs::apps
