// The service dispatcher: one object that maps every svc::Request onto
// the library entry points (core::run_codesign_flow, core::Explorer,
// sim::run, mhs::analysis, mhs::fault) and owns the service-side
// memoization:
//
//   * a result cache (ConcurrentCache — the same machinery as the
//     Explorer's kernel-estimate cache) keyed by ir::content_hash of the
//     request's IR inputs combined with a signature of its configuration,
//     so a repeated request is answered without re-evaluating;
//   * in-flight coalescing on the same key: when N identical requests
//     arrive concurrently, one evaluates and the other N-1 wait for the
//     shared result — the counters prove it (svc.evaluations counts
//     unique work, svc.coalesced counts the riders).
//
// Both hold what one evaluation yields: the response and the cycle
// profile of the co-simulation it ran, taken from the typed report. A
// fresh, cached or coalesced request copies its flight-recorder facts
// from that pair; the dispatcher never parses its own output.
//
// Every outcome is counted once, in the current obs registry:
// svc.requests, svc.evaluations, svc.coalesced, svc.cache.hits and
// svc.errors (rejected at prepare, failed evaluations and their riders).
// A traced request counts into its own registry, which the server merges
// into the process-wide one when the request completes.
//
// Responses are deterministic (no wall times), so a cached or coalesced
// response is byte-identical to a fresh evaluation. handle() is
// thread-safe and never throws: library failures surface as status
// 400/500 responses.
#pragma once

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

class Dispatcher {
 public:
  Dispatcher();

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

  /// A request resolved to library-level inputs plus its coalescing key
  /// (defined in dispatch.cpp; public so the free prepare_* helpers can
  /// build it).
  struct Prepared;

  /// The /v1/metrics result object: `{"svc":{...},"obs":<summary>}`
  /// where the summary is obs::summary_json of obs::global_registry(),
  /// the process-wide aggregate every request merges into, and the svc
  /// block repeats its svc.* counters plus the result cache's size. All
  /// zero (and empty arrays) when no registry is installed.
  std::string metrics_json() const;

  /// The same metrics in Prometheus text exposition format:
  /// obs::summary_prometheus of the same summary plus the
  /// mhs_svc_result_cache_size gauge.
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

  ConcurrentCache<std::uint64_t, std::shared_ptr<const Evaluation>> results_;
  std::mutex inflight_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> in_flight_;
};

/// The process-wide dispatcher behind svc::run().
Dispatcher& default_dispatcher();

}  // namespace mhs::svc
