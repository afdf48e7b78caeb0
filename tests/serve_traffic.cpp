// Tier-2 system test: boots an mhs_serve-shaped server (traced handler,
// per-request registries, flight recorder, Prometheus callback) and
// drives mixed traffic at it through svc::HttpClient — cosim, flow,
// lint, health, metrics, repeats for cache hits — then audits the
// observability surfaces end to end:
//
//   * every flight-recorder entry's latency buckets sum exactly to its
//     recorded end-to-end latency;
//   * every per-request Chrome trace round-trips through
//     obs::json_parse (strict oracle) and carries span events;
//   * the Prometheus exposition parses line by line.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/obs.h"
#include "svc/api.h"
#include "svc/client.h"
#include "svc/dispatch.h"
#include "svc/server.h"

namespace mhs::svc {
namespace {

std::string fixture(const std::string& name) {
  std::ifstream in(std::string(MHS_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The traffic mix one client connection plays, in order.
std::vector<std::pair<std::string, Request>> traffic_mix() {
  std::vector<std::pair<std::string, Request>> mix;

  Request cosim;
  cosim.endpoint = Endpoint::kCosim;
  cosim.cosim.kernel = "fir8";
  cosim.cosim.samples = 2;
  mix.emplace_back("POST", cosim);
  mix.emplace_back("POST", cosim);  // repeat -> result-cache hit

  Request cosim2;
  cosim2.endpoint = Endpoint::kCosim;
  cosim2.cosim.kernel = "dct8";
  cosim2.cosim.samples = 2;
  mix.emplace_back("POST", cosim2);

  Request flow;
  flow.endpoint = Endpoint::kFlow;
  flow.flow.workload = "dsp_chain";
  flow.flow.cosimulate = true;  // so the flow entry carries cycle totals
  flow.flow.cosim_samples = 2;
  mix.emplace_back("POST", flow);

  Request lint;
  lint.endpoint = Endpoint::kLint;
  lint.lint.artifacts = {fixture("valid_small.cdfg")};
  mix.emplace_back("POST", lint);

  Request health;
  health.endpoint = Endpoint::kHealth;
  mix.emplace_back("GET", health);

  Request metrics;
  metrics.endpoint = Endpoint::kMetrics;
  mix.emplace_back("GET", metrics);

  mix.emplace_back("POST", cosim);  // another cache hit, late in the mix
  return mix;
}

TEST(ServeTraffic, MixedTrafficKeepsRecorderTracesAndMetricsConsistent) {
  obs::Registry registry;
  obs::ScopedRegistry scoped(registry);

  Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 3;
  config.slow_trace_us = 1;  // everything competes for a pinned seat
  config.metrics_text = [&dispatcher] {
    return dispatcher.metrics_prometheus();
  };
  Server server(config,
                [&dispatcher](const Request& request,
                              const obs::TraceContext& trace,
                              RequestOutcome* outcome) {
                  return dispatcher.handle(request, trace, outcome);
                });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::uint16_t port = server.port();

  // Two keep-alive clients play the mix concurrently; every trace id
  // the server hands back is collected for the audit.
  std::mutex ids_mutex;
  std::vector<std::string> trace_ids;
  auto play = [&] {
    HttpClient client("127.0.0.1", port);
    for (const auto& [method, request] : traffic_mix()) {
      HttpResult result;
      std::string client_error;
      const std::string target = endpoint_path(request.endpoint);
      const std::string body = method == "POST" ? request.json() : "";
      const bool ok =
          client.request(method, target, body, &result, &client_error);
      EXPECT_TRUE(ok) << target << ": " << client_error;
      if (!ok) continue;
      EXPECT_EQ(result.status, 200) << target << ": " << result.body;
      const std::string* id = result.header("x-mhs-trace");
      EXPECT_NE(id, nullptr) << target;
      if (id != nullptr) {
        const std::lock_guard<std::mutex> lock(ids_mutex);
        trace_ids.push_back(*id);
      }
    }
  };
  std::thread first(play);
  std::thread second(play);
  first.join();
  second.join();
  const std::size_t expected = 2 * traffic_mix().size();
  ASSERT_EQ(trace_ids.size(), expected);
  EXPECT_EQ(std::set<std::string>(trace_ids.begin(), trace_ids.end()).size(),
            expected)
      << "trace ids must be unique";

  // ---- flight recorder: buckets reconcile with end-to-end latency.
  const std::vector<RecordedRequest> entries = server.recorder().snapshot();
  ASSERT_GE(entries.size(), expected);  // + the GET /v1/requests below
  const std::set<std::string> known_endpoints = {
      "cosim", "flow", "lint", "health", "metrics", "requests", "trace"};
  std::size_t cache_hits = 0;
  for (const RecordedRequest& r : entries) {
    EXPECT_EQ(r.parse_us + r.queue_us + r.dispatch_us + r.respond_us,
              r.total_us)
        << r.trace_id;
    EXPECT_EQ(r.status, 200) << r.trace_id;
    EXPECT_EQ(known_endpoints.count(r.endpoint), 1u) << r.endpoint;
    if (r.cache_hit) ++cache_hits;
    if (r.endpoint == "cosim" || r.endpoint == "flow") {
      EXPECT_GT(r.profile.total(), 0u) << r.trace_id;
      EXPECT_EQ(r.profile.attributed(), r.profile.total()) << r.trace_id;
    }
  }
  // Each client repeated the fir8 cosim twice after its first answer;
  // at least two of those repeats must have hit the result cache (the
  // very first pair may race into a coalesce instead).
  EXPECT_GE(cache_hits, 2u);

  // The HTTP view agrees with the direct snapshot.
  std::optional<HttpResult> over_http =
      http_get("127.0.0.1", port, "/v1/requests", &error);
  ASSERT_TRUE(over_http.has_value()) << error;
  ASSERT_EQ(over_http->status, 200);
  const std::optional<obs::JsonValue> recorder_doc =
      obs::json_parse(over_http->body);
  ASSERT_TRUE(recorder_doc.has_value()) << over_http->body;
  const obs::JsonValue* recorder_entries =
      recorder_doc->find("result")->find("entries");
  ASSERT_NE(recorder_entries, nullptr);
  EXPECT_GE(recorder_entries->as_array().size(), expected);

  // ---- traces: every request's Chrome trace parses strictly.
  for (const std::string& id : trace_ids) {
    std::optional<HttpResult> fetched =
        http_get("127.0.0.1", port, "/v1/trace/" + id, &error);
    ASSERT_TRUE(fetched.has_value()) << error;
    ASSERT_EQ(fetched->status, 200) << id;
    obs::JsonError parse_error;
    const std::optional<obs::JsonValue> doc =
        obs::json_parse(fetched->body, &parse_error);
    ASSERT_TRUE(doc.has_value()) << id << ": " << parse_error.str();
    const obs::JsonValue* chrome = doc->find("result");
    ASSERT_NE(chrome, nullptr) << id;
    const obs::JsonValue* events = chrome->find("traceEvents");
    ASSERT_NE(events, nullptr) << id;
    ASSERT_TRUE(events->is_array()) << id;
    // Every request ran under a per-request registry: its trace has at
    // least the svc root span, with sane timing.
    std::size_t spans = 0;
    for (const obs::JsonValue& event : events->as_array()) {
      const obs::JsonValue* ph = event.find("ph");
      if (ph == nullptr || ph->string_or("") != "X") continue;
      ++spans;
      EXPECT_GE(event.find("ts")->number_or(-1.0), 0.0) << id;
      EXPECT_GE(event.find("dur")->number_or(-1.0), 0.0) << id;
    }
    EXPECT_GE(spans, 1u) << id;
  }

  // ---- Prometheus: the exposition parses line by line.
  std::optional<HttpResult> prom =
      http_get("127.0.0.1", port, "/v1/metrics?format=prometheus", &error);
  ASSERT_TRUE(prom.has_value()) << error;
  ASSERT_EQ(prom->status, 200);
  std::istringstream lines(prom->body);
  std::string line;
  std::size_t samples = 0;
  std::set<std::string> seen_samples;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# TYPE ", 0) == 0 ||
                  line.rfind("# HELP ", 0) == 0)
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_')
        << line;
    // A sample name (including its label set) may appear only once per
    // exposition — Prometheus rejects duplicate samples at scrape time.
    EXPECT_TRUE(seen_samples.insert(name).second)
        << "duplicate sample: " << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << line;
    ++samples;
  }
  EXPECT_GE(samples, 4u);
  EXPECT_NE(prom->body.find("mhs_svc_requests"), std::string::npos);
  // The per-request registries merged into the global one: the cosim
  // work shows up in the aggregate exposition.
  EXPECT_NE(prom->body.find("mhs_cosim_runs"), std::string::npos)
      << prom->body;

  server.stop();
}

}  // namespace
}  // namespace mhs::svc
