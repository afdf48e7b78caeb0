#include "svc/artifact.h"

#include <sstream>

#include "analysis/absint.h"
#include "analysis/lint.h"
#include "analysis/verify.h"
#include "base/error.h"
#include "ir/serialize.h"

namespace mhs::svc {

ArtifactKind sniff_artifact(const std::string& text) {
  std::istringstream in(text);
  std::string keyword;
  // Skip comment and blank lines; the first real token decides.
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    if (!(tokens >> keyword) || keyword[0] == '#') continue;
    if (keyword == "taskgraph") return ArtifactKind::kTaskGraph;
    if (keyword == "network") return ArtifactKind::kNetwork;
    if (keyword == "cdfg") return ArtifactKind::kCdfg;
    return ArtifactKind::kUnknown;
  }
  return ArtifactKind::kUnknown;
}

bool analyze_artifact(const std::string& text, analysis::Diagnostics* diags,
                      std::string* error, bool ranges) {
  const ArtifactKind kind = sniff_artifact(text);
  try {
    switch (kind) {
      case ArtifactKind::kTaskGraph:
        diags->merge(analysis::analyze_task_graph(
            ir::task_graph_from_text(text, /*validate=*/false)));
        return true;
      case ArtifactKind::kNetwork:
        diags->merge(analysis::analyze_network(
            ir::process_network_from_text(text, /*validate=*/false)));
        return true;
      case ArtifactKind::kCdfg: {
        const ir::Cdfg kernel = ir::cdfg_from_text(text);
        analysis::Diagnostics found = analysis::analyze_cdfg(kernel);
        // The dataflow lints only warn, so an error here is structural.
        // A sound kernel gets the range lints when asked, then the
        // serializer's own check (CDFG010), which belongs here, where
        // kernels arrive as text, rather than at any flow gate.
        if (!found.has_errors()) {
          if (ranges) found.merge(analysis::lint_ranges(kernel));
          found.merge(analysis::verify_roundtrip(kernel));
        }
        diags->merge(found);
        return true;
      }
      case ArtifactKind::kUnknown:
        if (error != nullptr) {
          *error =
              "unrecognized artifact (expected a file starting with "
              "'taskgraph', 'network', or 'cdfg')";
        }
        return false;
    }
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return false;
}

}  // namespace mhs::svc
