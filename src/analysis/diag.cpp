#include "analysis/diag.h"

#include <sstream>

namespace mhs::analysis {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarn:  return "warn";
    case Severity::kNote:  return "note";
  }
  return "?";
}

const char* lint_level_name(LintLevel level) {
  switch (level) {
    case LintLevel::kOff:    return "off";
    case LintLevel::kWarn:   return "warn";
    case LintLevel::kStrict: return "strict";
  }
  return "?";
}

std::string DiagLocation::str() const {
  std::ostringstream os;
  os << (kind.empty() ? "artifact" : kind);
  if (id >= 0) os << ' ' << id;
  if (!name.empty()) os << " (" << name << ')';
  return os.str();
}

std::string Diag::str() const {
  std::ostringstream os;
  os << severity_name(severity) << '[' << code << "] " << location.str()
     << ": " << message;
  return os.str();
}

void Diagnostics::add(std::string code, Severity severity,
                      DiagLocation location, std::string message) {
  items_.push_back(Diag{std::move(code), severity, std::move(location),
                        std::move(message)});
}

void Diagnostics::merge(const Diagnostics& other) {
  items_.insert(items_.end(), other.items_.begin(), other.items_.end());
}

std::size_t Diagnostics::error_count() const {
  std::size_t n = 0;
  for (const Diag& d : items_) n += d.severity == Severity::kError ? 1 : 0;
  return n;
}

std::size_t Diagnostics::warn_count() const {
  std::size_t n = 0;
  for (const Diag& d : items_) n += d.severity == Severity::kWarn ? 1 : 0;
  return n;
}

std::size_t Diagnostics::note_count() const {
  std::size_t n = 0;
  for (const Diag& d : items_) n += d.severity == Severity::kNote ? 1 : 0;
  return n;
}

bool Diagnostics::has_code(std::string_view code) const {
  for (const Diag& d : items_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string Diagnostics::str() const {
  std::ostringstream os;
  for (const Diag& d : items_) os << d.str() << '\n';
  os << error_count() << " error(s), " << warn_count() << " warning(s), "
     << note_count() << " note(s)\n";
  return os.str();
}

obs::JsonValue Diagnostics::to_json() const {
  obs::JsonValue::Array out;
  for (const Diag& d : items_) {
    out.emplace_back(obs::JsonValue::Object{
        {"code", d.code}, {"severity", severity_name(d.severity)},
        {"kind", d.location.kind}, {"id", d.location.id},
        {"name", d.location.name}, {"message", d.message}});
  }
  return out;
}

namespace {

std::string verify_failure_what(const std::string& stage,
                                const Diagnostics& diagnostics) {
  std::ostringstream os;
  os << "analysis gate '" << stage << "' failed:\n" << diagnostics.str();
  return os.str();
}

}  // namespace

VerifyFailure::VerifyFailure(std::string stage, Diagnostics diagnostics)
    : Error(verify_failure_what(stage, diagnostics)),
      stage_(std::move(stage)),
      diagnostics_(std::move(diagnostics)) {}

}  // namespace mhs::analysis
