// Service bench: mhs_serve under closed-loop load, over real loopback
// sockets.
//
// Concurrent keep-alive clients drive the in-process server through two
// phases:
//
//   * unique  — every request differs (the co-simulation seed varies),
//     so each one pays a full library evaluation;
//   * cached  — one request repeated by every client, so after the first
//     evaluation the dispatcher answers from the result cache.
//
// Per-request wall latency lands in serve.latency_{unique,cached}_us
// histograms (p50/p90/p99 in the report) and per-phase throughput in
// req/s gauges; the svc.* and serve.* counters of the same registry
// prove which path served each phase. The expected shape: the cached
// phase is far cheaper per request than the unique phase — the
// memoization seam is what makes an interactive co-design service
// viable.
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "svc/client.h"
#include "svc/dispatch.h"
#include "svc/server.h"

namespace mhs {
namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kUniquePerClient = 24;
constexpr std::size_t kCachedPerClient = 150;
constexpr std::size_t kOverheadWarmupPerClient = 3;
constexpr std::size_t kOverheadPerClient = 16;

svc::Request cosim_request(std::uint64_t seed, std::uint64_t samples = 8) {
  svc::Request request;
  request.endpoint = svc::Endpoint::kCosim;
  request.cosim.kernel = "fir8";
  request.cosim.samples = samples;
  request.cosim.seed = seed;
  return request;
}

/// Runs one closed-loop phase: every client issues `per_client` requests
/// back to back on its own keep-alive connection, timing each one into
/// `hist`. Returns the phase's aggregate request rate; `ok` accumulates
/// the number of 200s.
double run_phase(std::uint16_t port, const char* hist, std::size_t per_client,
                 bool unique, std::size_t* ok) {
  std::vector<std::thread> threads;
  std::vector<std::size_t> ok_counts(kClients, 0);
  obs::Stopwatch phase_watch;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      svc::HttpClient client("127.0.0.1", port);
      std::string error;
      if (!client.connect(&error)) return;
      for (std::size_t i = 0; i < per_client; ++i) {
        // Unique phase: a per-client, per-iteration seed defeats both
        // the cache and in-flight coalescing.
        const svc::Request request =
            cosim_request(unique ? 1000 + c * per_client + i : 1);
        svc::HttpResult result;
        obs::Stopwatch watch;
        if (!client.request("POST", "/v1/cosim", request.json(), &result,
                            &error)) {
          return;
        }
        obs::observe(hist, static_cast<std::uint64_t>(watch.elapsed_us()));
        if (result.status == 200) ++ok_counts[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::size_t n : ok_counts) *ok += n;
  return kClients * per_client / (phase_watch.elapsed_us() / 1e6);
}

/// One single-client closed-loop unique-request phase, recording every
/// request's wall latency exactly (sorted vector, not histogram buckets
/// — the recorder overhead claim needs sub-bucket resolution). One
/// client against one worker keeps the measurement serialization-free,
/// which matters on a single-core box where extra concurrency turns the
/// latency distribution into scheduler noise. Returns the sorted
/// latencies; `ok` accumulates the 200s.
std::vector<double> run_exact_phase(std::uint16_t port,
                                    std::size_t requests,
                                    std::uint64_t seed_base,
                                    std::size_t* ok) {
  std::vector<double> latencies;
  svc::HttpClient client("127.0.0.1", port);
  std::string error;
  if (!client.connect(&error)) return latencies;
  for (std::size_t i = 0; i < requests; ++i) {
    // 256 samples per request: enough co-simulation work that the
    // request is evaluation-dominated, the regime the 5% overhead
    // claim is about.
    const svc::Request request = cosim_request(seed_base + i, 256);
    svc::HttpResult result;
    obs::Stopwatch watch;
    if (!client.request("POST", "/v1/cosim", request.json(), &result,
                        &error)) {
      return latencies;
    }
    latencies.push_back(watch.elapsed_us());
    if (result.status == 200) ++*ok;
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

double exact_p50(const std::vector<double>& sorted) {
  return sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
}

/// Boots a traced one-worker server with request tracing on or off,
/// plays an evaluation-dominated unique workload at it, and reports the
/// exact p50. False when the phase failed (start error or non-200
/// answers).
bool recorder_phase(const svc::ServerConfig& base, bool tracing,
                    std::uint64_t seed_base, double* p50) {
  svc::Dispatcher dispatcher;
  svc::ServerConfig config = base;
  config.workers = 1;
  config.request_tracing = tracing;
  svc::Server server(config,
                     [&dispatcher](const svc::Request& request,
                                   const obs::TraceContext& trace,
                                   svc::RequestOutcome* outcome) {
                       return dispatcher.handle(request, trace, outcome);
                     });
  std::string error;
  if (!server.start(&error)) return false;
  std::size_t ok = 0;
  // Warm the evaluation path (component library, allocator) untimed.
  run_exact_phase(server.port(), kOverheadWarmupPerClient, seed_base + 5000,
                  &ok);
  const std::vector<double> latencies =
      run_exact_phase(server.port(), kOverheadPerClient, seed_base, &ok);
  server.stop();
  *p50 = exact_p50(latencies);
  return ok == kOverheadWarmupPerClient + kOverheadPerClient;
}

double hist_p50(const obs::Registry& registry, const std::string& name) {
  for (const obs::HistStat& h : registry.summary().hists) {
    if (h.name == name) return h.p50;
  }
  return 0.0;
}

void run() {
  bench::Reporter rep(
      "bench_serve",
      "mhs_serve closed-loop load: unique vs cached request latency and "
      "throughput over loopback HTTP");
  obs::ScopedRegistry scope(rep.registry());

  svc::Dispatcher dispatcher;
  svc::ServerConfig config;
  config.workers = kClients;
  config.max_connections = kClients + 2;
  config.max_queue = 2 * kClients;
  // The load phases measure untraced serving; the recorder phases below
  // switch tracing on and off themselves.
  config.request_tracing = false;
  svc::Server server(config,
                     [&dispatcher](const svc::Request& request,
                                   const obs::TraceContext& trace,
                                   svc::RequestOutcome* outcome) {
                       return dispatcher.handle(request, trace, outcome);
                     });
  std::string error;
  if (!server.start(&error)) {
    rep.claim("server started on an ephemeral loopback port", false);
    return;
  }

  std::size_t ok = 0;
  const double unique_rps = run_phase(server.port(), "serve.latency_unique_us",
                                      kUniquePerClient, /*unique=*/true, &ok);
  const double cached_rps = run_phase(server.port(), "serve.latency_cached_us",
                                      kCachedPerClient, /*unique=*/false, &ok);
  obs::gauge("serve.throughput_unique_rps", unique_rps);
  obs::gauge("serve.throughput_cached_rps", cached_rps);

  const std::size_t total = kClients * (kUniquePerClient + kCachedPerClient);
  const obs::Registry& counters = rep.registry();

  TextTable table({"phase", "requests", "req/s", "p50 us"});
  const double unique_p50 =
      hist_p50(rep.registry(), "serve.latency_unique_us");
  const double cached_p50 =
      hist_p50(rep.registry(), "serve.latency_cached_us");
  table.add_row({"unique", fmt(kClients * kUniquePerClient),
                 fmt(unique_rps, 0), fmt(unique_p50, 0)});
  table.add_row({"cached", fmt(kClients * kCachedPerClient),
                 fmt(cached_rps, 0), fmt(cached_p50, 0)});
  std::cout << table;

  rep.metric("clients", kClients, "threads");
  rep.metric("requests", total, "req");
  rep.metric("throughput_unique", unique_rps, "req/s",
             bench::Direction::kHigherIsBetter);
  rep.metric("throughput_cached", cached_rps, "req/s",
             bench::Direction::kHigherIsBetter);
  rep.metric("latency_p50_unique", unique_p50, "us",
             bench::Direction::kLowerIsBetter);
  rep.metric("latency_p50_cached", cached_p50, "us",
             bench::Direction::kLowerIsBetter);

  rep.claim("every request in the run was answered 200 (no overloads at "
            "this queue depth)",
            ok == total && counters.counter("serve.overloaded") == 0 &&
                counters.counter("serve.conn_rejected") == 0);
  rep.claim(
      "each unique request evaluated exactly once; the cached phase "
      "re-evaluated at most once",
      counters.counter("svc.evaluations") <= kClients * kUniquePerClient + 1 &&
          counters.counter("svc.cache.hits") +
                  counters.counter("svc.coalesced") >=
              kClients * kCachedPerClient - 1);
  rep.claim(
      "answering from the result cache is cheaper than evaluating "
      "(cached p50 below unique p50)",
      cached_p50 > 0.0 && cached_p50 < unique_p50);
  server.stop();

  // ------------- recorder overhead: per-request tracing on vs off
  // Same evaluation-dominated unique workload against servers that
  // differ only in request_tracing (per-request registries, Chrome
  // trace rendering, flight-recorder publication). Exact p50s from the
  // sorted latency vectors; the phases alternate and the best of each
  // wins, so a transient load spike on the shared box cannot charge one
  // configuration and not the other.
  constexpr std::size_t kOverheadReps = 8;
  double off_p50 = 0.0;
  double on_p50 = 0.0;
  bool off_ok = true;
  bool on_ok = true;
  for (std::size_t rep = 0; rep < kOverheadReps; ++rep) {
    const std::uint64_t seeds = 100000 + rep * 20000;  // unique per phase
    double off = 0.0;
    double on = 0.0;
    off_ok = recorder_phase(config, /*tracing=*/false, seeds, &off) && off_ok;
    on_ok = recorder_phase(config, /*tracing=*/true, seeds + 10000, &on) &&
            on_ok;
    if (rep == 0 || (off > 0.0 && off < off_p50)) off_p50 = off;
    if (rep == 0 || (on > 0.0 && on < on_p50)) on_p50 = on;
  }
  obs::gauge("serve.recorder_off_p50_us", off_p50);
  obs::gauge("serve.recorder_on_p50_us", on_p50);

  TextTable overhead({"recorder", "req/rep", "reps", "best p50 us"});
  overhead.add_row({"off", fmt(kOverheadPerClient), fmt(kOverheadReps),
                    fmt(off_p50, 0)});
  overhead.add_row({"on", fmt(kOverheadPerClient), fmt(kOverheadReps),
                    fmt(on_p50, 0)});
  std::cout << overhead;

  rep.metric("latency_p50_recorder_off", off_p50, "us",
             bench::Direction::kLowerIsBetter);
  rep.metric("latency_p50_recorder_on", on_p50, "us",
             bench::Direction::kLowerIsBetter);
  // 75 us absolute floor: at sub-millisecond p50s a single timeslice of
  // scheduler jitter would otherwise swamp a 5% margin.
  rep.claim(
      "request-scoped tracing + flight recorder cost at most 5% of p50 "
      "latency on an evaluation-dominated workload (best-of-reps, "
      "alternating phases)",
      off_ok && on_ok && off_p50 > 0.0 &&
          on_p50 <= off_p50 * 1.05 + 75.0);
}

}  // namespace
}  // namespace mhs

int main() {
  mhs::run();
  return 0;
}
