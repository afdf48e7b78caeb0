// Diagnostics engine of the mhs::analysis subsystem.
//
// Every verifier and lint pass reports findings as Diag records with a
// stable code (CDFG001, TG002, PN004, HLS003, ...), a severity, and a
// source location expressed in IR coordinates (object kind + id + name).
// Stable codes make diagnostics machine-checkable: tests, the mhs_lint
// CLI, and CI gates match on the code, never on the message text, so
// messages can improve without breaking automation.
//
// Diagnostics render both as aligned text (for humans) and as JSON (for
// tools, via the same obs::json machinery the trace exporter uses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"
#include "obs/json.h"

namespace mhs::analysis {

/// How bad a finding is.
///
///   kError — the IR violates a structural invariant; downstream passes
///            (estimation, synthesis, simulation) may crash or silently
///            mis-synthesize. Strict gates fail on these.
///   kWarn  — the IR is well-formed but suspicious (dead code, an
///            unreachable task, a channel nobody reads).
///   kNote  — stylistic or informational; never affects gating.
enum class Severity { kError, kWarn, kNote };

/// Stable lowercase name ("error", "warn", "note").
const char* severity_name(Severity severity);

/// Where a finding points, in IR coordinates. `kind` names the object
/// class ("op", "task", "edge", "process", "channel", "kernel", ...);
/// `id` is the object's dense index (-1 when the finding is about the
/// whole artifact); `name` is the object's display name when it has one.
struct DiagLocation {
  std::string kind;
  std::int64_t id = -1;
  std::string name;

  /// "op 5", "task 2 (dct)", "kernel (fir8)", ...
  std::string str() const;
};

/// One finding.
struct Diag {
  std::string code;  ///< stable code, e.g. "CDFG001"
  Severity severity = Severity::kError;
  DiagLocation location;
  std::string message;

  /// "error[CDFG001] op 5: operand 12 is not a defined value (7 ops)"
  std::string str() const;
};

/// An ordered collection of findings. Verifiers append in a deterministic
/// order (object id, then check order), so two runs over the same IR
/// produce byte-identical reports.
class Diagnostics {
 public:
  Diagnostics() = default;

  /// Appends a finding.
  void add(std::string code, Severity severity, DiagLocation location,
           std::string message);

  /// Appends every finding of `other` (stable order preserved).
  void merge(const Diagnostics& other);

  const std::vector<Diag>& items() const { return items_; }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  std::size_t error_count() const;
  std::size_t warn_count() const;
  std::size_t note_count() const;
  bool has_errors() const { return error_count() > 0; }

  /// True when nothing of severity kWarn or worse was found — the
  /// "lint-clean" bar the strict gates and the kernel tests assert.
  bool clean() const { return error_count() == 0 && warn_count() == 0; }

  /// True when a diag with exactly this code is present.
  bool has_code(std::string_view code) const;

  /// One line per finding plus a trailing summary ("2 errors, 1 warning").
  std::string str() const;

  /// JSON array of findings, for obs::json_render:
  ///   [{"code":"CDFG001","severity":"error","kind":"op","id":5,
  ///     "name":"","message":"..."}, ...]
  obs::JsonValue to_json() const;

 private:
  std::vector<Diag> items_;
};

/// Gate behaviour of the flow-integrated verifiers (FlowConfig.lint_level
/// and cosynth::Request.lint_level).
///
///   kOff    — gates are skipped entirely.
///   kWarn   — diagnostics are collected into the run's core::Report;
///             structurally broken *skippable* inputs (a corrupt kernel)
///             are dropped from downstream phases with an error recorded.
///   kStrict — any kError diagnostic fails the run with a VerifyFailure
///             carrying the full diagnostic list.
enum class LintLevel { kOff, kWarn, kStrict };

/// Stable lowercase name ("off", "warn", "strict").
const char* lint_level_name(LintLevel level);

/// Thrown by strict gates (and by unconditionally-fatal structural
/// failures, e.g. a cyclic task graph that no downstream pass can
/// consume). Carries the full diagnostic list; what() includes the
/// rendered report.
class VerifyFailure : public Error {
 public:
  VerifyFailure(std::string stage, Diagnostics diagnostics);

  const std::string& stage() const { return stage_; }
  const Diagnostics& diagnostics() const { return diagnostics_; }

 private:
  std::string stage_;
  Diagnostics diagnostics_;
};

}  // namespace mhs::analysis
