#include "apps/mhs_lint/lint_lib.h"

#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

#include "analysis/lint.h"
#include "obs/json.h"
#include "svc/api.h"
#include "svc/artifact.h"

namespace mhs::apps {

namespace {

constexpr const char* kUsage =
    "usage: mhs_lint [--json] [--strict] [--ranges] <file>...\n"
    "       mhs_lint --check-json <file>...\n"
    "       mhs_lint --server-json [--strict] [--ranges] <file>... | -\n"
    "\n"
    "Verifies and lints serialized IR artifacts (taskgraph, network, or\n"
    "cdfg text format). Exit 0 when no errors, 1 when any error\n"
    "diagnostic (or any warning with --strict), 2 on usage/IO/parse\n"
    "failure.\n"
    "\n"
    "  --json        print findings as a JSON array instead of text\n"
    "  --strict      treat warnings as failures\n"
    "  --ranges      also run the CDFG2xx value-range lints (abstract\n"
    "                interpretation over declared input ranges)\n"
    "  --check-json  instead of IR, check each file is well-formed JSON\n"
    "                (reports line and column of the first syntax error)\n"
    "  --server-json speak the service schema: wrap the files into the\n"
    "                same request POST /v1/lint accepts (or, with '-',\n"
    "                read a complete request JSON from stdin) and print\n"
    "                the full response JSON; exit codes are unchanged\n";

bool read_file(const std::string& path, std::string* text, std::ostream& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err << "mhs_lint: cannot read " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

/// Loads one artifact structurally and analyzes it through the shared
/// svc::artifact plumbing (the same code path POST /v1/lint runs, which
/// is what keeps the CLI and the endpoint byte-identical). Returns false
/// (with a message on `err`) when the text does not even tokenize.
bool analyze_file(const std::string& path, const std::string& text,
                  analysis::Diagnostics* diags, bool ranges,
                  std::ostream& err) {
  std::string reason;
  if (svc::analyze_artifact(text, diags, &reason, ranges)) return true;
  err << "mhs_lint: " << path << ": " << reason << "\n";
  return false;
}

int check_json_files(const std::vector<std::string>& files, std::ostream& out,
                     std::ostream& err) {
  if (files.empty()) {
    err << kUsage;
    return 2;
  }
  int exit_code = 0;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, &text, err)) {
      exit_code = 2;
      continue;
    }
    obs::JsonError error;
    if (obs::json_parse(text, &error)) {
      out << path << ": valid JSON\n";
    } else {
      out << path << ": " << error.str() << "\n";
      if (exit_code == 0) exit_code = 1;
    }
  }
  return exit_code;
}

/// The --server-json mode: build (or read) a /v1/lint request, run it
/// through the same svc::run seam the daemon uses, print the response
/// JSON, and map the outcome back onto mhs_lint's exit codes.
int serve_json(const std::vector<std::string>& files, bool strict,
               bool ranges, std::ostream& out, std::ostream& err) {
  svc::Request request;
  request.endpoint = svc::Endpoint::kLint;
  request.lint.strict = strict;
  request.lint.ranges = ranges;
  if (files.size() == 1 && files[0] == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    std::string reason;
    std::optional<svc::Request> parsed =
        svc::Request::from_json(buffer.str(), &reason);
    if (!parsed) {
      err << "mhs_lint: " << reason << "\n";
      return 2;
    }
    if (parsed->endpoint != svc::Endpoint::kLint) {
      err << "mhs_lint: request endpoint must be \"lint\"\n";
      return 2;
    }
    request = std::move(*parsed);
  } else {
    if (files.empty()) {
      err << kUsage;
      return 2;
    }
    for (const std::string& path : files) {
      std::string text;
      if (!read_file(path, &text, err)) return 2;
      request.lint.artifacts.push_back(std::move(text));
    }
  }

  const svc::Response response = svc::run(request);
  out << response.json() << "\n";
  if (!response.ok()) {
    err << "mhs_lint: " << response.error << "\n";
    return 2;
  }
  const std::optional<obs::JsonValue> result =
      obs::json_parse(response.result_json);
  const obs::JsonValue* exit_code =
      result.has_value() ? result->find("exit_code") : nullptr;
  return exit_code != nullptr && exit_code->is_number()
             ? static_cast<int>(exit_code->as_number())
             : 0;
}

}  // namespace

int run_lint(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  bool json = false;
  bool strict = false;
  bool ranges = false;
  bool check_json = false;
  bool server_json = false;
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--ranges") {
      ranges = true;
    } else if (arg == "--check-json") {
      check_json = true;
    } else if (arg == "--server-json") {
      server_json = true;
    } else if (arg == "--help" || arg == "-h") {
      out << kUsage;
      return 0;
    } else if (arg == "-" && server_json) {
      files.push_back(arg);  // stdin sentinel, only meaningful here
    } else if (!arg.empty() && arg[0] == '-') {
      err << "mhs_lint: unknown option " << arg << "\n" << kUsage;
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  if (check_json) {
    return check_json_files(files, out, err);
  }
  if (server_json) {
    return serve_json(files, strict, ranges, out, err);
  }
  if (files.empty()) {
    err << kUsage;
    return 2;
  }

  analysis::Diagnostics diags;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, &text, err)) return 2;
    if (!analyze_file(path, text, &diags, ranges, err)) return 2;
  }

  if (json) {
    out << obs::json_render(diags.to_json()) << "\n";
  } else if (diags.empty()) {
    out << "clean: no findings\n";
  } else {
    out << diags.str();
  }

  if (diags.has_errors()) return 1;
  if (strict && !diags.clean()) return 1;
  return 0;
}

}  // namespace mhs::apps
