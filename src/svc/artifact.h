// Serialized-IR artifact handling shared by the /v1/lint endpoint and
// the mhs_lint CLI: sniff the artifact type from its first keyword, load
// it structurally (validate=false, so corrupted IR reaches the verifier
// instead of aborting the parse), and run the mhs::analysis verifier and
// lint passes. mhs_lint routes its per-file plumbing through these
// helpers, which is what keeps the CLI and the service endpoint
// byte-identical on the same input.
#pragma once

#include <string>

#include "analysis/diag.h"

namespace mhs::svc {

/// The artifact type sniffed from the first keyword of serialized text.
enum class ArtifactKind { kTaskGraph, kNetwork, kCdfg, kUnknown };

/// Sniffs the artifact type: the first non-comment, whitespace-delimited
/// token must be `taskgraph`, `network`, or `cdfg`.
ArtifactKind sniff_artifact(const std::string& text);

/// Loads one artifact structurally and appends the analysis findings to
/// `*diags`. Returns false when the text does not even tokenize (an
/// unrecognized keyword or a parse abort), with the reason in `*error` —
/// the caller decides how to surface it (mhs_lint exit 2, service 400).
/// With `ranges` set, CDFG artifacts additionally get the CDFG2xx
/// value-range lints (abstract interpretation over their declared input
/// ranges); the flag is ignored for task graphs and networks. A CDFG
/// that verifies also gets the serializer round trip (CDFG010, after
/// the lints); this is the one place the library runs it.
bool analyze_artifact(const std::string& text, analysis::Diagnostics* diags,
                      std::string* error, bool ranges = false);

}  // namespace mhs::svc
