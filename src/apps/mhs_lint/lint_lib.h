// The library half of the mhs_lint CLI, split out so the argument
// handling and exit-code mapping are unit testable without spawning the
// binary.
//
// mhs_lint loads serialized IR artifacts (ir/serialize.h text format),
// runs the mhs::analysis verifier and lint passes over each, and prints
// the diagnostics:
//
//   mhs_lint graph.tg kernel.cdfg        # text diagnostics
//   mhs_lint --json kernel.cdfg          # JSON array of findings
//   mhs_lint --strict net.pn             # warnings also fail (exit 1)
//   mhs_lint --check-json trace.json     # JSON well-formedness, with
//                                        # line/column on parse errors
//
// The artifact type is sniffed from the first keyword of the file
// (`taskgraph`, `network`, or `cdfg`; svc::sniff_artifact); loading is
// structural (validate=false), so hand-corrupted artifacts reach the
// verifier and are reported with stable diagnostic codes instead of a
// parse abort.
//
// Exit codes: 0 — no errors (warnings allowed unless --strict);
//             1 — at least one error diagnostic (or a warning under
//                 --strict);
//             2 — usage error, unreadable file, or untokenizable input.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mhs::apps {

/// Runs the whole CLI over `args` (argv[1..]), writing diagnostics to
/// `out` and usage/IO errors to `err`. Returns the process exit code.
int run_lint(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);

}  // namespace mhs::apps
