// mhs_serve — the co-design service daemon.
//
// Serves the whole library behind the unified svc:: schema:
//
//   POST /v1/flow            one end-to-end codesign flow
//   POST /v1/explore         a strategy x objective design-space sweep
//   POST /v1/cosim           HLS + co-simulation of one kernel
//   POST /v1/lint            verifier + lint over serialized IR
//   POST /v1/fault-campaign  co-simulation under a fault plan
//   GET  /v1/health          liveness + endpoint listing
//   GET  /v1/metrics         svc counters + obs registry summary
//                            (?format=prometheus for text exposition)
//   GET  /v1/requests        flight recorder: last N completed requests
//   GET  /v1/trace/<id>      per-request Chrome trace (Perfetto-loadable)
//
// See README.md ("Running the service" / "Observability") for curl
// examples.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/obs.h"
#include "svc/dispatch.h"
#include "svc/server.h"

namespace {

constexpr const char kUsage[] =
    "usage: mhs_serve [options]\n"
    "\n"
    "options:\n"
    "  --host <addr>         bind address (default 127.0.0.1)\n"
    "  --port <n>            TCP port; 0 picks an ephemeral port "
    "(default 8080)\n"
    "  --workers <n>         worker threads; 0 = deterministic replay mode\n"
    "                        (requests evaluated inline, in arrival order)\n"
    "                        (default 4)\n"
    "  --max-connections <n> concurrent connections before 503 (default 64)\n"
    "  --max-queue <n>       queued requests before 503 (default 128)\n"
    "  --replay              shorthand for --workers 0\n"
    "  --recorder-entries <n> flight-recorder ring size for /v1/requests\n"
    "                        (default 256)\n"
    "  --trace-entries <n>   Chrome traces kept for /v1/trace/<id>\n"
    "                        (default 64)\n"
    "  --slow-trace-us <n>   pin traces of requests at or above this\n"
    "                        end-to-end latency (default 100000; 0 = off)\n"
    "  --no-tracing          disable per-request registries (requests\n"
    "                        record into the global registry only)\n"
    "  --help                this text\n";

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

bool parse_number(const char* text, long* out) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mhs::svc::ServerConfig config;
  config.port = 8080;
  config.slow_trace_us = 100000;  // pin traces of requests over 100 ms

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto number_arg = [&](long* out) {
      if (i + 1 >= argc || !parse_number(argv[++i], out)) {
        std::fprintf(stderr, "mhs_serve: %s needs a non-negative number\n",
                     arg.c_str());
        return false;
      }
      return true;
    };
    long value = 0;
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--host") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mhs_serve: --host needs an address\n");
        return 2;
      }
      config.host = argv[++i];
    } else if (arg == "--port") {
      if (!number_arg(&value) || value > 65535) return 2;
      config.port = static_cast<std::uint16_t>(value);
    } else if (arg == "--workers") {
      if (!number_arg(&value)) return 2;
      config.workers = static_cast<std::size_t>(value);
    } else if (arg == "--max-connections") {
      if (!number_arg(&value) || value == 0) return 2;
      config.max_connections = static_cast<std::size_t>(value);
    } else if (arg == "--max-queue") {
      if (!number_arg(&value)) return 2;
      config.max_queue = static_cast<std::size_t>(value);
    } else if (arg == "--replay") {
      config.workers = 0;
    } else if (arg == "--recorder-entries") {
      if (!number_arg(&value) || value == 0) return 2;
      config.recorder_entries = static_cast<std::size_t>(value);
    } else if (arg == "--trace-entries") {
      if (!number_arg(&value) || value == 0) return 2;
      config.trace_entries = static_cast<std::size_t>(value);
    } else if (arg == "--slow-trace-us") {
      if (!number_arg(&value)) return 2;
      config.slow_trace_us = static_cast<std::uint64_t>(value);
    } else if (arg == "--no-tracing") {
      config.request_tracing = false;
    } else {
      std::fprintf(stderr, "mhs_serve: unknown option %s\n%s", arg.c_str(),
                   kUsage);
      return 2;
    }
  }

  // The one counter source: svc.* and serve.* counters, flow spans and
  // every merged request land here, and /v1/metrics renders it.
  mhs::obs::Registry registry;
  mhs::obs::ScopedRegistry scoped(registry);

  mhs::svc::Dispatcher dispatcher;
  config.metrics_text = [&dispatcher] {
    return dispatcher.metrics_prometheus();
  };
  mhs::svc::Server server(
      config,
      [&dispatcher](const mhs::svc::Request& request,
                    const mhs::obs::TraceContext& trace,
                    mhs::svc::RequestOutcome* outcome) {
        return dispatcher.handle(request, trace, outcome);
      });
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "mhs_serve: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("mhs_serve: listening on %s:%u (%s)\n", config.host.c_str(),
              static_cast<unsigned>(server.port()),
              server.replay() ? "replay mode"
                              : "worker pool");
  std::fflush(stdout);

  sigset_t mask;
  sigemptyset(&mask);
  while (g_stop == 0) sigsuspend(&mask);

  server.stop();
  const auto count = [&registry](const char* name) {
    return static_cast<unsigned long long>(registry.counter(name));
  };
  std::printf(
      "mhs_serve: stopped (accepted=%llu served=%llu overloaded=%llu "
      "conn_rejected=%llu parse_errors=%llu)\n",
      count("serve.accepted"), count("serve.served"),
      count("serve.overloaded"), count("serve.conn_rejected"),
      count("serve.parse_errors"));
  return 0;
}
