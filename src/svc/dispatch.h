// The service dispatcher: one object that maps every svc::Request onto
// the library entry points (core::run_codesign_flow, core::Explorer,
// sim::run, mhs::analysis, mhs::fault) and owns the service-side
// memoization:
//
//   * a result cache (ConcurrentCache — the same machinery as the
//     partition EvalCache) keyed by ir::content_hash of the request's IR
//     inputs combined with a signature of its configuration, so a
//     repeated request is answered without re-evaluating;
//   * in-flight coalescing on the same key: when N identical requests
//     arrive concurrently, one evaluates and the other N-1 wait for the
//     shared result — the stats prove it (evaluations counts unique
//     work, coalesced counts the riders).
//
// Both hold what one evaluation yields: the response and the cycle
// profile of the co-simulation it ran, taken from the typed report. A
// fresh, cached or coalesced request copies its flight-recorder facts
// from that pair; the dispatcher never parses its own output.
//
// Responses are deterministic (no wall times), so a cached or coalesced
// response is byte-identical to a fresh evaluation. handle() is
// thread-safe and never throws: library failures surface as status
// 400/500 responses.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "base/concurrent_cache.h"
#include "obs/obs.h"
#include "svc/api.h"

namespace mhs::svc {

/// Counters of one Dispatcher's lifetime (monotonic; also mirrored to
/// the current obs registry as svc.* counters).
struct DispatchStats {
  std::uint64_t requests = 0;     ///< handle() calls
  std::uint64_t evaluations = 0;  ///< requests that ran the library
  std::uint64_t coalesced = 0;    ///< requests that rode an in-flight twin
  std::uint64_t cache_hits = 0;   ///< requests answered from the result cache
  std::uint64_t errors = 0;       ///< non-200 responses
};

class Dispatcher {
 public:
  struct Options {
    /// Cache successful responses across requests (in-flight coalescing
    /// happens regardless). Off only for cache-measurement tests.
    bool result_cache = true;
    /// Upper bound on per-request co-simulation samples (request cost
    /// guard; larger asks are a 400).
    std::uint64_t max_samples = 4096;
  };

  Dispatcher() : Dispatcher(Options{}) {}
  explicit Dispatcher(Options options);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Serves one request. Thread-safe; never throws.
  Response handle(const Request& request);

  /// Serves one request under a trace context. When `trace.sink` is
  /// non-null it is the request's scope (obs::ScopedSink) for the whole
  /// call: the svc.* counters, the root "svc" span and every span and
  /// counter the library layers record land in that per-request
  /// registry and nowhere else. `outcome`, when non-null, receives the
  /// flight-recorder facts (cache hit / coalesced, and the cycle profile
  /// of the co-simulation the request ran) however the request was
  /// satisfied.
  Response handle(const Request& request, const obs::TraceContext& trace,
                  RequestOutcome* outcome = nullptr);

  DispatchStats stats() const;

  /// A request resolved to library-level inputs plus its coalescing key
  /// (defined in dispatch.cpp; public so the free prepare_* helpers can
  /// build it).
  struct Prepared;

  /// The /v1/metrics result object: `{"svc":{...},"obs":<summary>}`
  /// where the summary is obs::summary_json of obs::global_registry(),
  /// the process-wide aggregate every request merges into — the one
  /// serialization path shared with the obs layer (empty arrays when
  /// tracing is disabled).
  std::string metrics_json() const;

  /// The same metrics in Prometheus text exposition format: mhs_svc_*
  /// counters followed by obs::summary_prometheus, with obs samples
  /// whose names collide with the mhs_svc_* block dropped (duplicate
  /// sample names are invalid exposition format).
  std::string metrics_prometheus() const;

 private:
  /// What one evaluation yields: the response, and the profile of the
  /// co-simulation it ran (empty when it ran none).
  struct Evaluation {
    Response response;
    obs::Profile profile{};
  };
  struct InFlight {
    bool done = false;
    std::shared_ptr<const Evaluation> result;
    std::condition_variable cv;
  };

  Evaluation evaluate(const Prepared& prepared);

  Options options_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> evaluations_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> errors_{0};
  ConcurrentCache<std::uint64_t, std::shared_ptr<const Evaluation>> results_;
  std::mutex inflight_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> in_flight_;
};

/// The process-wide dispatcher behind svc::run().
Dispatcher& default_dispatcher();

}  // namespace mhs::svc
