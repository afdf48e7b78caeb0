#include "core/report.h"

#include <sstream>

#include "base/table.h"

namespace mhs::core {

void Report::capture_obs() {
  if (const obs::Registry* r = obs::registry()) obs = r->summary();
}

std::string Report::str() const {
  std::ostringstream os;
  os << banner(title);
  if (!designs.empty()) {
    TextTable table({"design", "latency (cyc)", "area"});
    for (const DesignSummary& d : designs) {
      table.add_row({d.target, fmt(d.latency, 1), fmt(d.area, 1)});
    }
    os << table.str();
  }
  os << "wall: " << fmt(wall_ms, 1) << " ms\n";
  if (optimize_stats.ops_before > 0) {
    os << "optimize: " << optimize_stats.ops_before << " -> "
       << optimize_stats.ops_after << " ops ("
       << optimize_stats.constants_folded << " folded, "
       << optimize_stats.identities_applied << " identities, "
       << optimize_stats.subexpressions_merged << " cse, "
       << optimize_stats.range_rewrites << " range rewrites, "
       << optimize_stats.dead_ops_removed << " dead)\n";
  }
  if (!diagnostics.empty()) os << diagnostics.str();
  for (const fault::ResilienceReport& r : resilience) {
    if (!r.empty()) os << r.summary();
  }
  for (const obs::Profile& p : profiles) {
    if (!p.empty()) os << p.table();
  }
  if (!obs.empty()) os << obs.table();
  return os.str();
}

}  // namespace mhs::core
