// The unified request API of the co-design service.
//
// Every activity the repository exposes through one-shot CLIs and
// library calls — the end-to-end flow, design-space exploration,
// co-simulation, static analysis, fault campaigns — is addressable as a
// serialized svc::Request and answered with a serialized svc::Response.
// One schema, one seam:
//
//   svc::Request req = ...;                 // or Request::from_json(body)
//   svc::Response resp = svc::run(req);     // maps onto the library
//   std::string body = resp.json();         // what mhs_serve sends back
//
// The mhs_serve daemon speaks exactly this schema over HTTP/1.1
// (POST /v1/flow, /v1/explore, /v1/cosim, /v1/lint, /v1/fault-campaign;
// GET /v1/health, /v1/metrics), and the CLIs reuse it (mhs_lint
// --server-json), so a request captured from any surface replays on any
// other. Responses carry only deterministic fields (no wall times), so
// an endpoint's response is bit-identical to the equivalent direct
// library call and cached/coalesced responses are indistinguishable
// from fresh evaluations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/obs.h"

namespace mhs::svc {

/// Every service endpoint. The five POST endpoints carry a params
/// payload; kHealth and kMetrics are parameterless GETs.
enum class Endpoint {
  kFlow,           ///< POST /v1/flow           — core::run_codesign_flow
  kExplore,        ///< POST /v1/explore        — core::Explorer sweep
  kCosim,          ///< POST /v1/cosim          — sim::run (fault-free)
  kLint,           ///< POST /v1/lint           — analysis verifier + lints
  kFaultCampaign,  ///< POST /v1/fault-campaign — sim::run + FaultPlan
  kHealth,         ///< GET  /v1/health
  kMetrics,        ///< GET  /v1/metrics        — obs registry + svc stats
};

inline constexpr Endpoint kAllEndpoints[] = {
    Endpoint::kFlow,   Endpoint::kExplore, Endpoint::kCosim,
    Endpoint::kLint,   Endpoint::kFaultCampaign,
    Endpoint::kHealth, Endpoint::kMetrics,
};

/// Stable wire name ("flow", "explore", "cosim", "lint",
/// "fault-campaign", "health", "metrics").
const char* endpoint_name(Endpoint endpoint);
/// HTTP path ("/v1/flow", ...).
const char* endpoint_path(Endpoint endpoint);
/// HTTP method ("POST" for the request endpoints, "GET" otherwise).
const char* endpoint_method(Endpoint endpoint);

std::optional<Endpoint> endpoint_from_name(std::string_view name);
std::optional<Endpoint> endpoint_from_path(std::string_view path);

/// Strips a query string ("/v1/metrics?format=prometheus" →
/// "/v1/metrics") so routing sees only the path.
std::string_view path_without_query(std::string_view target);
/// Extracts the trace id from a "/v1/trace/<id>" target (query already
/// stripped); nullopt when the target is not a trace path or the id is
/// empty.
std::optional<std::string_view> parse_trace_path(std::string_view path);

/// Per-request facts the dispatcher reports back to the serving layer
/// for the flight recorder (how the request was satisfied, and the
/// simulated work it represents).
struct RequestOutcome {
  bool cache_hit = false;   ///< answered from the result cache
  bool coalesced = false;   ///< piggybacked on an identical in-flight run
  /// The cycle profile of the request's co-simulation, copied from the
  /// typed sim::CosimReport (empty for requests that run none);
  /// profile.total() is its simulated cycles.
  obs::Profile profile;
};

/// The six cycle buckets of `profile` as JSON object members
/// (`"sw_execute":N,...,"idle":N`, obs::Profile category order): the one
/// spelling of the cosim result's profile and of /v1/requests entries.
obs::JsonValue::Object profile_buckets(const obs::Profile& profile);

// ---------------------------------------------------------------- params

/// One fault class of a /v1/fault-campaign plan (wire mirror of
/// fault::FaultSpec; `kind` uses fault_kind_name spellings).
struct FaultSpecParams {
  std::string kind = "bus_bit_flip";
  double rate = 0.0;
  std::uint64_t param = 0;
  std::uint64_t max_count = UINT64_MAX;
};

/// POST /v1/flow — one end-to-end codesign flow.
///
/// The specification is either a named in-tree workload (`workload`,
/// e.g. "dsp_chain" or "jpeg_pipeline") or an inline serialized task
/// graph (`graph`, ir/serialize.h text format) with optional per-task
/// serialized kernels (`kernels`; "" entries mean annotation-only).
struct FlowParams {
  std::string workload;
  std::string graph;
  std::vector<std::string> kernels;
  std::string strategy = "kl";
  double latency_target = 0.0;
  double area_weight = 0.05;
  std::string lint_level = "warn";
  bool optimize_kernels = true;
  bool validate_with_hls = true;
  /// Co-simulation of the largest HW kernel is off by default in the
  /// service (it dominates request latency); flip on per request.
  bool cosimulate = false;
  std::string cosim_level = "register";
  std::uint64_t cosim_samples = 8;
  std::uint64_t cosim_seed = 7;
};

/// POST /v1/explore — a strategy × objective sweep over one
/// specification, answered with the Pareto frontier.
struct ExploreParams {
  std::string workload;
  std::string graph;
  std::vector<std::string> kernels;
  /// Strategy names (partition::strategy_name spellings); empty = the
  /// five §4.5 search strategies.
  std::vector<std::string> strategies;
  /// One objective per entry: its latency_target (0 = unconstrained).
  std::vector<double> latency_targets = {0.0};
  double area_weight = 0.05;
  /// Explorer threads, at most 64 (0 = all cores). Results are
  /// bit-identical at any thread count; 1 (the default) keeps a single
  /// request from monopolizing cores.
  std::uint64_t threads = 1;
};

/// POST /v1/cosim and /v1/fault-campaign — synthesize one kernel
/// (min-area HLS) and stream seeded random samples through it on the
/// co-simulation backplane. `faults` is consulted only by
/// /v1/fault-campaign; /v1/cosim always runs fault-free.
struct CosimParams {
  /// Named in-tree kernel ("fir8", "dct8", ...) or inline text.
  std::string kernel;
  std::string kernel_text;
  std::string level = "register";
  std::uint64_t samples = 8;
  std::uint64_t seed = 7;
  bool use_irq = false;
  std::vector<FaultSpecParams> faults;
  std::uint64_t fault_seed = 42;
};

/// POST /v1/lint — verify + lint serialized IR artifacts (the same
/// analysis mhs_lint runs; exit_code in the result matches its codes).
struct LintParams {
  /// Serialized artifact texts (taskgraph / network / cdfg format).
  std::vector<std::string> artifacts;
  bool strict = false;
  /// Also run the CDFG2xx value-range lints (abstract interpretation
  /// over each CDFG artifact's declared input ranges).
  bool ranges = false;
};

// --------------------------------------------------------------- request

/// One service request: an endpoint plus that endpoint's params (the
/// other param groups are ignored and not serialized).
struct Request {
  Endpoint endpoint = Endpoint::kHealth;
  FlowParams flow;
  ExploreParams explore;
  CosimParams cosim;  ///< shared by kCosim and kFaultCampaign
  LintParams lint;

  /// Canonical wire form:
  ///   {"schema_version":1,"endpoint":"flow","params":{...}}
  /// Fields appear in a fixed order with defaults spelled out, so
  /// from_json(json()).json() is byte-identical (round-trip tested).
  std::string json() const;

  /// Parses a request body. Strict about shape: unknown params keys,
  /// ill-typed fields, and unknown endpoint/strategy spellings are
  /// errors (described in *error) — the service's 400 path.
  static std::optional<Request> from_json(std::string_view text,
                                          std::string* error);
};

// -------------------------------------------------------------- response

/// One service response. `result_json` is the endpoint-specific result
/// object (valid JSON, deterministic field order) or empty on failure.
struct Response {
  int status = 200;      ///< HTTP status (200, 400, 404, 503, 500)
  std::string endpoint;  ///< endpoint_name(), or "" when unroutable
  std::string error;     ///< non-empty iff status != 200
  std::string result_json;

  bool ok() const { return status == 200; }

  /// Canonical wire form:
  ///   {"schema_version":1,"endpoint":"cosim","status":200,"error":"",
  ///    "result":{...}}
  std::string json() const;

  /// Parses a response body (the client half; also the round-trip
  /// test). `status` must be an integer in 100..599. `result_json` is
  /// re-rendered through obs::json_render, integers digit for digit, so
  /// a parsed response's json() equals the original body whenever the
  /// original result was render-canonical. Every flow, explore, cosim,
  /// lint, health and /v1/requests result is; /v1/metrics and
  /// /v1/trace/<id> are not, because their times use obs's fixed
  /// 3-decimal format ("total_us":1104.978 comes back as
  /// 1104.9780000000001).
  static std::optional<Response> from_json(std::string_view text,
                                           std::string* error);

  /// Shorthand for an error response.
  static Response failure(int status, std::string endpoint,
                          std::string message);
};

/// The one uniform entry point: dispatches `request` onto the library
/// (core::run_codesign_flow / core::Explorer / sim::run /
/// mhs::analysis / mhs::fault) through a process-wide Dispatcher, with
/// result caching and in-flight coalescing of identical requests. Never
/// throws: failures come back as status 400/500 responses.
Response run(const Request& request);

}  // namespace mhs::svc
