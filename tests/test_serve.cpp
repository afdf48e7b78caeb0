// Tests for mhs::svc — the unified service request API behind mhs_serve:
// wire-schema round trips, endpoint-vs-library bit-identical parity,
// request coalescing and result caching (proven via the svc.* counters
// of an installed registry), admission control (connection limit and
// queue bound 503s), and malformed-request 400s, over real loopback
// sockets; plus a golden of the wire bytes and flight-recorder facts of
// fixed requests (fixtures/serve_golden.txt).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "core/flow.h"
#include "fault/fault.h"
#include "fuzz_env.h"
#include "hw/hls.h"
#include "ir/serialize.h"
#include "obs/json.h"
#include "sim/cosim.h"
#include "sim/run.h"
#include "svc/api.h"
#include "svc/client.h"
#include "svc/dispatch.h"
#include "svc/server.h"

namespace mhs::svc {
namespace {

/// Drives the accelerator co-simulation through the sim::run seam.
sim::CosimReport accel_cosim(
    const hw::HlsResult& impl, const sim::CosimConfig& config,
    const std::vector<std::vector<std::int64_t>>& samples) {
  sim::SimRequest sreq;
  sreq.impl = &impl;
  sreq.samples = &samples;
  sreq.cosim = config;
  return sim::run(sreq).cosim.value();
}


std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string fixture(const std::string& name) {
  return read_file(std::string(MHS_FIXTURE_DIR) + "/" + name);
}

/// The number `path` resolves to inside a result_json document
/// ("a.b.c" descends objects).
double result_number(const Response& response, const std::string& path) {
  const std::optional<obs::JsonValue> doc =
      obs::json_parse(response.result_json);
  EXPECT_TRUE(doc.has_value()) << response.result_json;
  const obs::JsonValue* v = &*doc;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t dot = path.find('.', start);
    const std::string key = path.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    v = v->find(key);
    EXPECT_NE(v, nullptr) << path;
    if (v == nullptr) return 0.0;
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  EXPECT_TRUE(v->is_number()) << path;
  return v->as_number();
}

/// Simulated cycles followed by the six profile buckets
/// (obs::Profile category order).
using Cycles = std::array<std::uint64_t, 1 + obs::Profile::kNumCategories>;

Cycles cycles_of(const obs::Profile& profile) {
  Cycles out{profile.total()};
  for (std::size_t c = 0; c < obs::Profile::kNumCategories; ++c) {
    out[1 + c] = profile.cycles(static_cast<obs::Profile::Category>(c));
  }
  return out;
}

/// The cycles a response body reports: a flow's nested "cosim" object,
/// or the result itself for cosim and fault-campaign replies. All zero
/// when the body carries no co-simulation.
Cycles body_cycles(const Response& response) {
  Cycles out{};
  const std::optional<obs::JsonValue> doc =
      obs::json_parse(response.result_json);
  if (!doc.has_value()) return out;
  const obs::JsonValue* report = &*doc;
  if (const obs::JsonValue* cosim = doc->find("cosim")) report = cosim;
  const obs::JsonValue* profile = report->find("profile");
  if (profile == nullptr) return out;
  static constexpr const char* kKeys[] = {
      "total", "sw_execute", "bus", "dma", "peripheral_wait",
      "fault_recovery", "idle"};
  for (std::size_t i = 0; i < out.size(); ++i) {
    const obs::JsonValue* v = profile->find(kKeys[i]);
    EXPECT_TRUE(v != nullptr && v->is_number()) << kKeys[i];
    if (v != nullptr) out[i] = static_cast<std::uint64_t>(v->number_or(0.0));
  }
  EXPECT_EQ(report->find("total_cycles")->number_or(-1.0),
            static_cast<double>(out[0]));
  return out;
}

// ------------------------------------------------------------ wire schema

TEST(ServeApi, EndpointTablesAreConsistent) {
  for (const Endpoint e : kAllEndpoints) {
    EXPECT_EQ(endpoint_from_name(endpoint_name(e)), e);
    EXPECT_EQ(endpoint_from_path(endpoint_path(e)), e);
    const std::string method = endpoint_method(e);
    if (e == Endpoint::kHealth || e == Endpoint::kMetrics) {
      EXPECT_EQ(method, "GET");
    } else {
      EXPECT_EQ(method, "POST");
    }
  }
  EXPECT_FALSE(endpoint_from_name("teapot").has_value());
  EXPECT_FALSE(endpoint_from_path("/v1/teapot").has_value());
}

TEST(ServeApi, RequestJsonRoundTripsByteIdentical) {
  std::vector<Request> requests;

  Request flow;
  flow.endpoint = Endpoint::kFlow;
  flow.flow.workload = "dsp_chain";
  flow.flow.strategy = "annealed";
  flow.flow.latency_target = 1234.5;
  flow.flow.lint_level = "strict";
  flow.flow.cosimulate = true;
  flow.flow.cosim_samples = 4;
  requests.push_back(flow);

  Request explore;
  explore.endpoint = Endpoint::kExplore;
  explore.explore.workload = "jpeg_pipeline";
  explore.explore.strategies = {"kl", "gclp"};
  explore.explore.latency_targets = {0.0, 5000.0};
  explore.explore.threads = 3;
  requests.push_back(explore);

  Request cosim;
  cosim.endpoint = Endpoint::kCosim;
  cosim.cosim.kernel = "fir8";
  cosim.cosim.level = "pin";
  cosim.cosim.samples = 3;
  cosim.cosim.use_irq = true;
  requests.push_back(cosim);

  Request lint;
  lint.endpoint = Endpoint::kLint;
  lint.lint.artifacts = {"cdfg \"x\"\n", "taskgraph \"y\"\n"};
  lint.lint.strict = true;
  requests.push_back(lint);

  Request campaign;
  campaign.endpoint = Endpoint::kFaultCampaign;
  campaign.cosim.kernel = "dct8";
  campaign.cosim.faults.push_back({"bus_bit_flip", 0.25, 5, 100});
  campaign.cosim.faults.push_back({"dma_drop", 0.1, 0, UINT64_MAX});
  campaign.cosim.fault_seed = 99;
  requests.push_back(campaign);

  Request health;
  health.endpoint = Endpoint::kHealth;
  requests.push_back(health);

  for (const Request& request : requests) {
    const std::string wire = request.json();
    EXPECT_TRUE(obs::json_is_valid(wire)) << wire;
    std::string error;
    const std::optional<Request> parsed = Request::from_json(wire, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->json(), wire);  // byte-identical round trip
  }
}

TEST(ServeApi, ResponseJsonRoundTripsByteIdentical) {
  Response ok;
  ok.status = 200;
  ok.endpoint = "cosim";
  ok.result_json = "{\"checksum\":-12,\"total_cycles\":466,\"x\":1.5}";
  const Response bad = Response::failure(400, "flow", "graph: truncated");
  Response extremes = ok;
  extremes.result_json =
      "{\"min\":-9223372036854775808,\"max\":18446744073709551615}";

  // A fault campaign whose checksum needs more than a double's 53 bits.
  Request campaign;
  campaign.endpoint = Endpoint::kFaultCampaign;
  campaign.cosim.kernel = "fir8";
  campaign.cosim.level = "pin";
  campaign.cosim.samples = 16;
  campaign.cosim.faults.push_back({"bus_bit_flip", 0.5, 62, UINT64_MAX});
  campaign.cosim.fault_seed = 2;
  Dispatcher dispatcher;
  const Response reply = dispatcher.handle(campaign);
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_GT(std::abs(result_number(reply, "checksum")), 9007199254740992.0);

  for (const Response& response : {ok, bad, extremes, reply}) {
    const std::string wire = response.json();
    EXPECT_TRUE(obs::json_is_valid(wire)) << wire;
    std::string error;
    const std::optional<Response> parsed = Response::from_json(wire, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->json(), wire);
    EXPECT_EQ(parsed->status, response.status);
    EXPECT_EQ(parsed->error, response.error);
  }

  // status is an integer HTTP status, never a rounded or wrapped double.
  for (const char* status :
       {"1e300", "200.5", "-200", "99", "600", "\"200\""}) {
    const std::string body =
        std::string("{\"endpoint\":\"cosim\",\"status\":") + status +
        ",\"error\":\"\",\"result\":null}";
    std::string error;
    EXPECT_FALSE(Response::from_json(body, &error).has_value()) << body;
    EXPECT_NE(error.find("status"), std::string::npos) << error;
  }
}

TEST(ServeApi, U64FieldsKeepEveryDigit) {
  Rng rng(0x64);
  std::vector<std::uint64_t> values = {0, 9007199254740992u,
                                       9007199254740993u, UINT64_MAX};
  for (int i = 0; i < 64; ++i) values.push_back(raw_u64(rng));
  for (const std::uint64_t v : values) {
    Request flow;
    flow.endpoint = Endpoint::kFlow;
    flow.flow.cosim_samples = v;
    flow.flow.cosim_seed = v;
    Request explore;
    explore.endpoint = Endpoint::kExplore;
    explore.explore.threads = v;
    Request campaign;
    campaign.endpoint = Endpoint::kFaultCampaign;
    campaign.cosim.samples = v;
    campaign.cosim.seed = v;
    campaign.cosim.fault_seed = v;
    campaign.cosim.faults.push_back({"bus_bit_flip", 0.5, v, v});

    for (const Request& request : {flow, explore, campaign}) {
      const std::string wire = request.json();
      std::string error;
      const std::optional<Request> parsed = Request::from_json(wire, &error);
      ASSERT_TRUE(parsed.has_value()) << error;
      EXPECT_EQ(parsed->json(), wire) << v;
    }
    const std::optional<Request> f = Request::from_json(flow.json(), nullptr);
    EXPECT_EQ(f->flow.cosim_samples, v);
    EXPECT_EQ(f->flow.cosim_seed, v);
    const std::optional<Request> e =
        Request::from_json(explore.json(), nullptr);
    EXPECT_EQ(e->explore.threads, v);
    const std::optional<Request> c =
        Request::from_json(campaign.json(), nullptr);
    EXPECT_EQ(c->cosim.samples, v);
    EXPECT_EQ(c->cosim.seed, v);
    EXPECT_EQ(c->cosim.fault_seed, v);
    EXPECT_EQ(c->cosim.faults.at(0).param, v);
    EXPECT_EQ(c->cosim.faults.at(0).max_count, v);
    EXPECT_NE(campaign.json().find(std::to_string(v)), std::string::npos);
  }
}

TEST(ServeApi, InexactOrOverflowingNumbersAreA400) {
  // A u64 field takes a plain non-negative integer token and nothing
  // else: at most 2^64-1, no fraction, no sign, no exponent.
  for (const char* samples :
       {"8.9", "-1", "1e3", "8.0", "18446744073709551616"}) {
    const std::string body =
        std::string("{\"endpoint\":\"cosim\",\"params\":{\"kernel\":\"fir8\","
                    "\"samples\":") +
        samples + "}}";
    std::string error;
    EXPECT_FALSE(Request::from_json(body, &error).has_value()) << body;
    EXPECT_NE(error.find("params.samples"), std::string::npos) << error;
  }
  // A number that overflows a double is not an infinite weight.
  for (const char* body :
       {"{\"endpoint\":\"flow\",\"params\":{\"workload\":\"dsp_chain\","
        "\"area_weight\":1e400}}",
        "{\"endpoint\":\"explore\",\"params\":{\"workload\":\"dsp_chain\","
        "\"latency_targets\":[1e400]}}"}) {
    std::string error;
    EXPECT_FALSE(Request::from_json(body, &error).has_value()) << body;
    EXPECT_NE(error.find("number out of range"), std::string::npos) << error;
  }
}

TEST(ServeApi, MalformedRequestBodiesAreRejected) {
  std::string error;
  EXPECT_FALSE(Request::from_json("not json", &error).has_value());
  EXPECT_NE(error.find("invalid JSON"), std::string::npos);

  EXPECT_FALSE(
      Request::from_json(
          "{\"schema_version\":1,\"endpoint\":\"teapot\",\"params\":{}}",
          &error)
          .has_value());
  EXPECT_NE(error.find("endpoint"), std::string::npos);

  // Unknown params keys are errors, not silently dropped.
  EXPECT_FALSE(
      Request::from_json("{\"schema_version\":1,\"endpoint\":\"lint\","
                         "\"params\":{\"artifcats\":[]}}",
                         &error)
          .has_value());

  // Ill-typed fields are errors.
  EXPECT_FALSE(
      Request::from_json("{\"schema_version\":1,\"endpoint\":\"cosim\","
                         "\"params\":{\"samples\":\"eight\"}}",
                         &error)
          .has_value());
}

// ------------------------------------------- dispatcher: library parity

TEST(ServeDispatch, CosimMatchesDirectLibraryCall) {
  Request request;
  request.endpoint = Endpoint::kCosim;
  request.cosim.kernel = "fir8";
  request.cosim.samples = 6;
  request.cosim.seed = 11;

  Dispatcher dispatcher;
  const Response response = dispatcher.handle(request);
  ASSERT_TRUE(response.ok()) << response.error;

  // The same recipe the service runs (and core::flow's cosim phase).
  const ir::Cdfg kernel = apps::fir_kernel(8);
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  // impl's Schedule points into the library; keep it alive past sim::run.
  const hw::ComponentLibrary library = hw::default_library();
  const hw::HlsResult impl = hw::synthesize(kernel, library, constraints);
  Rng rng(11);
  std::vector<std::vector<std::int64_t>> samples;
  for (std::size_t s = 0; s < 6; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-128, 127));
    }
    samples.push_back(std::move(in));
  }
  sim::CosimConfig cfg;
  cfg.level = sim::InterfaceLevel::kRegister;
  const sim::CosimReport report = accel_cosim(impl, cfg, samples);

  EXPECT_EQ(result_number(response, "checksum"),
            static_cast<double>(report.checksum));
  EXPECT_EQ(result_number(response, "total_cycles"), report.total_cycles);
  EXPECT_EQ(result_number(response, "bus_accesses"),
            static_cast<double>(report.bus_accesses));
  EXPECT_EQ(result_number(response, "samples"), 6.0);
}

TEST(ServeDispatch, FlowMatchesDirectLibraryCall) {
  Request request;
  request.endpoint = Endpoint::kFlow;
  request.flow.workload = "dsp_chain";

  Dispatcher dispatcher;
  const Response response = dispatcher.handle(request);
  ASSERT_TRUE(response.ok()) << response.error;

  // The defaults FlowParams documents, applied exactly the way
  // prepare_flow applies them.
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  core::FlowConfig config =
      core::FlowConfig::defaults()
          .with_strategy(partition::Strategy::kKl)
          .with_latency_target(0.0)
          .with_area_weight(0.05)
          .with_lint_level(analysis::LintLevel::kWarn);
  config.optimize_kernels = true;
  config.validate_with_hls = true;
  config.cosimulate = false;
  config.cosim_level = sim::InterfaceLevel::kRegister;
  config.cosim_samples = 8;
  config.cosim_seed = 7;
  const core::FlowReport report =
      core::run_codesign_flow(w.graph, w.kernels, config);

  EXPECT_EQ(result_number(response, "latency_cycles"),
            report.design.partition.metrics.latency_cycles);
  EXPECT_EQ(result_number(response, "hw_area"),
            report.design.partition.metrics.hw_area);
  EXPECT_EQ(result_number(response, "tasks_in_hw"),
            static_cast<double>(report.design.partition.metrics.tasks_in_hw));
  EXPECT_EQ(result_number(response, "evaluations"),
            static_cast<double>(report.design.partition.evaluations));
  EXPECT_EQ(result_number(response, "speedup"), report.design.speedup());
}

TEST(ServeDispatch, LintMatchesCliSemantics) {
  Dispatcher dispatcher;

  Request clean;
  clean.endpoint = Endpoint::kLint;
  clean.lint.artifacts = {fixture("valid_small.cdfg")};
  const Response ok = dispatcher.handle(clean);
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(result_number(ok, "exit_code"), 0.0);
  EXPECT_EQ(result_number(ok, "errors"), 0.0);

  Request broken;
  broken.endpoint = Endpoint::kLint;
  broken.lint.artifacts = {fixture("dangling_value.cdfg")};
  const Response fail = dispatcher.handle(broken);
  ASSERT_TRUE(fail.ok()) << fail.error;  // lint findings are a 200
  EXPECT_EQ(result_number(fail, "exit_code"), 1.0);
  EXPECT_GE(result_number(fail, "errors"), 1.0);
}

// ------------------------------------- dispatcher: caching + coalescing

TEST(ServeDispatch, RepeatedRequestIsCachedAndByteIdentical) {
  Request request;
  request.endpoint = Endpoint::kCosim;
  request.cosim.kernel = "checksum8";
  request.cosim.samples = 4;

  obs::Registry counters;
  obs::ScopedRegistry installed(counters);
  Dispatcher dispatcher;
  const Response first = dispatcher.handle(request);
  const Response second = dispatcher.handle(request);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.json(), second.json());  // cached == fresh, byte for byte

  EXPECT_EQ(counters.counter("svc.requests"), 2u);
  EXPECT_EQ(counters.counter("svc.evaluations"), 1u);
  EXPECT_EQ(counters.counter("svc.cache.hits"), 1u);
  EXPECT_EQ(counters.counter("svc.errors"), 0u);
}

TEST(ServeDispatch, SeedsPast2To53AreDistinctRequests) {
  // Both seeds arrive as wire bodies: 2^53 + 1 must not be read as 2^53
  // and answered from that seed's cache entry.
  obs::Registry counters;
  std::vector<Response> replies;
  {
    obs::ScopedRegistry installed(counters);
    Dispatcher dispatcher;
    for (const char* seed : {"9007199254740992", "9007199254740993"}) {
      std::string error;
      const std::optional<Request> request = Request::from_json(
          std::string("{\"endpoint\":\"cosim\",\"params\":{\"kernel\":"
                      "\"fir8\",\"samples\":4,\"seed\":") +
              seed + "}}",
          &error);
      ASSERT_TRUE(request.has_value()) << error;
      replies.push_back(dispatcher.handle(*request));
      ASSERT_TRUE(replies.back().ok()) << replies.back().error;
    }
  }
  EXPECT_EQ(counters.counter("svc.evaluations"), 2u);
  EXPECT_EQ(counters.counter("svc.cache.hits"), 0u);

  Request direct;
  direct.endpoint = Endpoint::kCosim;
  direct.cosim.kernel = "fir8";
  direct.cosim.samples = 4;
  direct.cosim.seed = 9007199254740993u;
  EXPECT_EQ(replies[1].json(), Dispatcher().handle(direct).json());
  EXPECT_NE(replies[0].json(), replies[1].json());
}

TEST(ServeDispatch, DoublesDifferingPastTheSixthDecimalDoNotShareAnEntry) {
  Request light;
  light.endpoint = Endpoint::kFlow;
  light.flow.workload = "dsp_chain";
  light.flow.area_weight = 1e-7;
  Request heavy = light;
  heavy.flow.area_weight = 2e-7;
  Request low;
  low.endpoint = Endpoint::kExplore;
  low.explore.workload = "dsp_chain";
  low.explore.latency_targets = {1113.0000001};
  Request high = low;
  high.explore.latency_targets = {1113.0000004};

  for (const auto& [a, b] : {std::pair{light, heavy}, std::pair{low, high}}) {
    obs::Registry counters;
    std::vector<Response> replies;
    {
      obs::ScopedRegistry installed(counters);
      Dispatcher dispatcher;
      replies = {dispatcher.handle(a), dispatcher.handle(b)};
    }
    EXPECT_EQ(counters.counter("svc.evaluations"), 2u) << b.json();
    EXPECT_EQ(counters.counter("svc.cache.hits"), 0u) << b.json();
    EXPECT_EQ(replies[0].json(), Dispatcher().handle(a).json());
    EXPECT_EQ(replies[1].json(), Dispatcher().handle(b).json());
  }
}

TEST(ServeDispatch, ConcurrentIdenticalRequestsCoalesceToOneEvaluation) {
  // A request arriving after the leader finished would be a cache hit,
  // so coalesced == riders with no cache hit can only mean the riders
  // genuinely rode the in-flight evaluation.
  obs::Registry counters;
  obs::ScopedRegistry installed(counters);
  Dispatcher dispatcher;

  Request request;
  request.endpoint = Endpoint::kFlow;
  request.flow.workload = "dsp_chain";
  // Annealed partitioning and a long pin-level co-simulation keep the
  // leader's evaluation in flight (~45 ms on a 4-vCPU box) long enough
  // that the barrier-released riders reliably land on it. A woken rider
  // can wait 4-10 ms for a core: the scheduler may queue it behind the
  // thread that woke it, and that thread may be the leader.
  request.flow.cosimulate = true;
  request.flow.cosim_level = "pin";
  request.flow.cosim_samples = 2048;
  request.flow.strategy = "annealed";

  constexpr std::size_t kClients = 6;
  std::vector<Response> responses(kClients);
  std::vector<RequestOutcome> outcomes(kClients);
  std::vector<std::thread> threads;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  std::size_t arrived = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      {
        std::unique_lock<std::mutex> lock(gate_mutex);
        ++arrived;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return arrived == kClients; });
      }
      responses[i] =
          dispatcher.handle(request, obs::TraceContext{}, &outcomes[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  for (const Response& response : responses) {
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.json(), responses[0].json());
  }
  EXPECT_EQ(counters.counter("svc.requests"), kClients);
  EXPECT_EQ(counters.counter("svc.evaluations"), 1u);
  EXPECT_EQ(counters.counter("svc.coalesced"), kClients - 1);
  EXPECT_EQ(counters.counter("svc.cache.hits"), 0u);

  // Every rider reports that it coalesced and carries the leader's
  // profile, which is the one its body reports.
  const Cycles body = body_cycles(responses[0]);
  EXPECT_GT(body[0], 0u);
  std::size_t riders = 0;
  for (const RequestOutcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.cache_hit);
    if (outcome.coalesced) ++riders;
    EXPECT_EQ(cycles_of(outcome.profile), body);
  }
  EXPECT_EQ(riders, kClients - 1);
}

// -------------------------------------------- dispatcher: error mapping

TEST(ServeDispatch, CorruptedFixturesAreA400NotACrash) {
  obs::Registry counters;
  obs::ScopedRegistry installed(counters);
  Dispatcher dispatcher;

  // A structurally broken kernel fails the pre-HLS gate.
  Request cosim;
  cosim.endpoint = Endpoint::kCosim;
  cosim.cosim.kernel_text = fixture("dangling_value.cdfg");
  const Response kernel_bad = dispatcher.handle(cosim);
  EXPECT_EQ(kernel_bad.status, 400);
  EXPECT_NE(kernel_bad.error.find("verification"), std::string::npos);

  // A cyclic task graph dies in the flow's verify gate.
  Request flow;
  flow.endpoint = Endpoint::kFlow;
  flow.flow.graph = fixture("cyclic.tg");
  const Response graph_bad = dispatcher.handle(flow);
  EXPECT_EQ(graph_bad.status, 400);

  // An untokenizable lint artifact is named by index.
  Request lint;
  lint.endpoint = Endpoint::kLint;
  lint.lint.artifacts = {fixture("valid_small.cdfg"), "%% garbage %%"};
  const Response artifact_bad = dispatcher.handle(lint);
  EXPECT_EQ(artifact_bad.status, 400);
  EXPECT_NE(artifact_bad.error.find("artifacts[1]"), std::string::npos);

  // Unknown named inputs are 400s too.
  Request unknown;
  unknown.endpoint = Endpoint::kCosim;
  unknown.cosim.kernel = "fir1024";
  EXPECT_EQ(dispatcher.handle(unknown).status, 400);

  EXPECT_EQ(counters.counter("svc.errors"), 4u);
}

TEST(ServeDispatch, MalformedKernelsAreA400BeforeAnyLibraryLayer) {
  // ir::cdfg_from_text checks neither operand ids nor arity, so each of
  // these parses, and the optimizer, absint, the compiler or HLS would
  // then read past an operand list. Every flow and explore kernel passes
  // the structural check first, at every lint level.
  std::vector<std::string> broken;
  for (const char* name : {"bad_arity.cdfg", "dangling_value.cdfg",
                           "dup_port.cdfg", "forward_ref.cdfg"}) {
    broken.push_back(fixture(name));
  }
  broken.push_back(
      "cdfg select2\nop input a\nop select 0 0\nop output y 1\nend\n");
  broken.push_back("cdfg bare_output\nop input a\nop output y\nend\n");
  broken.push_back(
      "cdfg add1\nop input a\nop add 0\nop output y 1\nend\n");
  const std::string graph =
      "taskgraph pair\n"
      "task t0 sw=100 hw=10 area=50\n"
      "task t1 sw=400 hw=20 area=80\n"
      "edge 0 1 bytes=8\n"
      "end\n";
  const std::string sound = fixture("valid_small.cdfg");

  Dispatcher dispatcher;
  for (const std::string& kernel : broken) {
    std::vector<Request> requests;
    Request explore;
    explore.endpoint = Endpoint::kExplore;
    explore.explore.graph = graph;
    explore.explore.kernels = {sound, kernel};
    requests.push_back(explore);
    for (const char* level : {"off", "warn", "strict"}) {
      for (const bool optimize : {true, false}) {
        Request flow;
        flow.endpoint = Endpoint::kFlow;
        flow.flow.graph = graph;
        flow.flow.kernels = {sound, kernel};
        flow.flow.lint_level = level;
        flow.flow.optimize_kernels = optimize;
        requests.push_back(flow);
      }
    }
    for (const Request& request : requests) {
      const Response response = dispatcher.handle(request);
      EXPECT_EQ(response.status, 400) << request.json();
      EXPECT_EQ(response.error.rfind("kernels[1]: ", 0), 0u) << response.error;
    }
  }
}

TEST(ServeDispatch, ErrorsNameSourceFilesFromSrc) {
  // A failed MHS_CHECK names its source file from src/ on: where the
  // server's tree is checked out never reaches the wire.
  Request flow;
  flow.endpoint = Endpoint::kFlow;
  flow.flow.graph = "taskgraph one\ntask t0 sw=100 hw=10 area=50\nend\n";
  flow.flow.kernels = {"cdfg k\nop input a\nop lt 0 0\nop output y 1\nend\n"};
  const Response response = Dispatcher().handle(flow);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.error.find(" at src/ir/serialize.cpp:"), std::string::npos)
      << response.error;
  EXPECT_EQ(response.error.find(" at /"), std::string::npos) << response.error;
  const std::string examples = MHS_EXAMPLES_IR_DIR;
  const std::string checkout =
      examples.substr(0, examples.size() - std::string("/examples/ir").size());
  EXPECT_EQ(response.error.find(checkout), std::string::npos)
      << response.error;
}

TEST(ServeDispatch, UnknownCosimLevelIsA400) {
  // /v1/cosim level strings resolve against the canonical
  // interface_level_name table before reaching the sim::run seam; any
  // other spelling is a client error, not a fallback to some default.
  Dispatcher dispatcher;
  Request request;
  request.endpoint = Endpoint::kCosim;
  request.cosim.kernel = "fir8";
  request.cosim.level = "waveform";
  const Response response = dispatcher.handle(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.error.find("unknown level 'waveform'"),
            std::string::npos);

  for (const sim::InterfaceLevel level : sim::kAllInterfaceLevels) {
    Request ok;
    ok.endpoint = Endpoint::kCosim;
    ok.cosim.kernel = "fir8";
    ok.cosim.level = sim::interface_level_name(level);
    ok.cosim.samples = 2;
    EXPECT_EQ(dispatcher.handle(ok).status, 200) << ok.cosim.level;
  }
}

TEST(ServeDispatch, ExploreThreadsAboveTheLimitIsA400) {
  // threads comes off the wire, and a sweep starts up to that many
  // threads, so it is bounded like latency_targets. Within the bound the
  // thread count changes nothing on the wire.
  Request request;
  request.endpoint = Endpoint::kExplore;
  request.explore.workload = "dsp_chain";
  request.explore.strategies = {"kl", "annealed", "gclp"};
  request.explore.threads = 65;
  const Response over = Dispatcher().handle(request);
  EXPECT_EQ(over.status, 400);
  EXPECT_NE(over.error.find("threads exceeds the per-request limit of 64"),
            std::string::npos)
      << over.error;

  // Each on its own Dispatcher, so neither reply comes from the cache.
  request.explore.threads = 1;
  const Response one = Dispatcher().handle(request);
  request.explore.threads = 64;
  const Response at_limit = Dispatcher().handle(request);
  ASSERT_EQ(one.status, 200) << one.error;
  EXPECT_EQ(at_limit.status, 200) << at_limit.error;
  EXPECT_EQ(at_limit.json(), one.json());
}

TEST(ServeDispatch, FaultCampaignHonoursItsSeedWhileMhsFaultSeedIsSet) {
  // MHS_FAULT_SEED belongs to the fault example and the fault fuzzer,
  // not to the library: a campaign's fault_seed picks its schedule
  // whatever the environment holds.
  struct UnsetOnExit {
    ~UnsetOnExit() { unsetenv("MHS_FAULT_SEED"); }
  } unset_on_exit;
  ASSERT_EQ(unsetenv("MHS_FAULT_SEED"), 0);

  Request request;
  request.endpoint = Endpoint::kFaultCampaign;
  request.cosim.kernel = "checksum8";
  request.cosim.level = "driver";
  request.cosim.faults.push_back({"bus_bit_flip", 0.2, 0, UINT64_MAX});
  request.cosim.faults.push_back({"peripheral_stall", 0.3, 40, UINT64_MAX});

  // Direct sim::run references, on the recipe the service runs.
  const ir::Cdfg kernel = apps::checksum_kernel(8);
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::ComponentLibrary library = hw::default_library();
  const hw::HlsResult impl = hw::synthesize(kernel, library, constraints);
  const auto samples =
      core::cosim_samples(kernel, request.cosim.samples, request.cosim.seed);
  const auto reference = [&](std::uint64_t seed) {
    sim::CosimConfig cfg;
    cfg.level = sim::InterfaceLevel::kDriver;
    cfg.fault_plan.add(fault::FaultSpec::bus_bit_flip(0.2, /*bit=*/0))
        .add(fault::FaultSpec::peripheral_stall(0.3, 40));
    cfg.fault_seed = seed;
    return accel_cosim(impl, cfg, samples);
  };
  const std::uint64_t seeds[2] = {5, 6};
  const sim::CosimReport want[2] = {reference(seeds[0]), reference(seeds[1])};
  ASSERT_FALSE(want[0].resilience == want[1].resilience &&
               want[0].checksum == want[1].checksum);

  ASSERT_EQ(setenv("MHS_FAULT_SEED", "31337", 1), 0);
  Dispatcher dispatcher;
  for (std::size_t i = 0; i < 2; ++i) {
    Request seeded = request;
    seeded.cosim.fault_seed = seeds[i];
    const Response response = dispatcher.handle(seeded);
    ASSERT_TRUE(response.ok()) << response.error;
    const fault::ResilienceReport& r = want[i].resilience;
    EXPECT_NE(response.result_json.find(
                  "\"checksum\":" + std::to_string(want[i].checksum) + ","),
              std::string::npos)
        << "seed " << seeds[i] << ": " << response.result_json;
    EXPECT_EQ(result_number(response, "resilience.injected"), r.injected);
    EXPECT_EQ(result_number(response, "resilience.detected"), r.detected);
    EXPECT_EQ(result_number(response, "resilience.recovered"), r.recovered);
    EXPECT_EQ(result_number(response, "resilience.retries"), r.retries);
    EXPECT_EQ(result_number(response, "resilience.degradations"),
              r.degradations);
    EXPECT_EQ(result_number(response, "resilience.recovery_cycles"),
              r.recovery_cycles);
  }
}

TEST(ServeDispatch, FaultCampaignFallbackWrapsLikeTheReference) {
  // Every activation hangs (peripheral_stall at rate 1 with param
  // 2^64-1), so every sample completes on the driver's software
  // fallback: the compiled body on the ISS at pin and register level, the
  // compiled kernel at driver and message level. On kernels whose
  // arithmetic wraps, every level must answer with the wraparound fold of
  // Cdfg::evaluate over the samples.
  const char* const kernels[] = {
      // y = x + INT64_MIN / -1
      "cdfg div_wrap\nop input x\nop const -9223372036854775808\n"
      "op const -1\nop div 1 2\nop add 0 3\nop output y 4\nend\n",
      // y = (x + INT64_MAX) * 2^62, z = x * INT64_MIN - INT64_MAX
      "cdfg overflow\nop input x\nop const 9223372036854775807\n"
      "op add 0 1\nop const 4611686018427387904\nop mul 2 3\n"
      "op output y 4\nop const -9223372036854775808\nop mul 0 6\n"
      "op sub 7 1\nop output z 8\nend\n"};
  for (const char* text : kernels) {
    const ir::Cdfg kernel = ir::cdfg_from_text(text);
    Request request;
    request.endpoint = Endpoint::kFaultCampaign;
    request.cosim.kernel_text = text;
    request.cosim.faults.push_back(
        {"peripheral_stall", 1.0, fault::FaultSpec::kHang, UINT64_MAX});
    const std::vector<ir::OpId> inputs = kernel.inputs();
    std::int64_t want = 0;
    for (const std::vector<std::int64_t>& sample : core::cosim_samples(
             kernel, request.cosim.samples, request.cosim.seed)) {
      std::map<std::string, std::int64_t> named;
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        named[kernel.op(inputs[k]).name] = sample[k];
      }
      for (const auto& [name, value] : kernel.evaluate(named)) {
        want = ir::wrap_add(want, value);
      }
    }
    for (const char* level : {"pin", "register", "driver", "message"}) {
      request.cosim.level = level;
      const Response response = Dispatcher().handle(request);
      ASSERT_EQ(response.status, 200)
          << kernel.name() << " " << level << ": " << response.error;
      EXPECT_NE(response.result_json.find(
                    "\"checksum\":" + std::to_string(want) + ","),
                std::string::npos)
          << kernel.name() << " " << level << ": " << response.result_json;
      EXPECT_GT(result_number(response, "resilience.degradations"), 0.0)
          << kernel.name() << " " << level;
    }
  }
}

TEST(ServeDispatch, ExploreKeepsAShiftThatFoldsOutOfRange) {
  // The shift amount folds to 100 only in the optimizer, so the kernel
  // verifies; the optimizer keeps the trapping shift instead of
  // throwing, and every point of the sweep is scored.
  Request request;
  request.endpoint = Endpoint::kExplore;
  request.explore.graph =
      "taskgraph pair\n"
      "task t0 sw=100 hw=10 area=50\n"
      "task t1 sw=400 hw=20 area=80\n"
      "edge 0 1 bytes=8\n"
      "end\n";
  request.explore.kernels = {
      fixture("valid_small.cdfg"),
      "cdfg folded_shift\nop input x\nop const 1\nop const 50\n"
      "op add 2 2\nop shl 1 3\nop add 0 4\nop output y 5\nend\n"};
  // Targets above zero: the hot_spot and unload points need one.
  request.explore.latency_targets = {5000.0, 10000.0};
  const Response response = Dispatcher().handle(request);
  ASSERT_EQ(response.status, 200) << response.error;
  const std::optional<obs::JsonValue> doc =
      obs::json_parse(response.result_json);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* points = doc->find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_FALSE(points->as_array().empty());
  for (const obs::JsonValue& point : points->as_array()) {
    EXPECT_EQ(point.find("error")->as_string(), "") << response.result_json;
    const obs::JsonValue* latency = point.find("latency_cycles");
    ASSERT_NE(latency, nullptr) << response.result_json;
    EXPECT_GT(latency->as_number(), 0.0);
  }
}

// --------------------------------------------- server over real sockets

/// A Server started on an ephemeral loopback port. The Dispatcher form
/// wires Dispatcher::handle through the handler shape the daemon uses.
struct LoopbackServer {
  LoopbackServer(ServerConfig config, Server::TracedHandler handler)
      : server(std::move(config), std::move(handler)) {
    std::string error;
    started = server.start(&error);
    EXPECT_TRUE(started) << error;
  }
  LoopbackServer(ServerConfig config, Dispatcher& dispatcher)
      : LoopbackServer(std::move(config),
                       [&dispatcher](const Request& request,
                                     const obs::TraceContext& trace,
                                     RequestOutcome* outcome) {
                         return dispatcher.handle(request, trace, outcome);
                       }) {}
  Server server;
  bool started = false;
};

TEST(ServeServer, EndpointsOverSocketsMatchDirectDispatch) {
  obs::Registry counters;  // installed before the server starts its loop
  obs::ScopedRegistry installed(counters);
  Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 0;  // deterministic replay mode
  LoopbackServer loopback(config, dispatcher);
  ASSERT_TRUE(loopback.started);
  const std::uint16_t port = loopback.server.port();

  // A reference dispatcher evaluates the same requests directly;
  // deterministic responses make socket vs library byte-comparable.
  Dispatcher reference;

  std::vector<Request> requests;
  Request cosim;
  cosim.endpoint = Endpoint::kCosim;
  cosim.cosim.kernel = "fir8";
  cosim.cosim.samples = 4;
  requests.push_back(cosim);

  Request campaign;
  campaign.endpoint = Endpoint::kFaultCampaign;
  campaign.cosim.kernel = "checksum8";
  campaign.cosim.samples = 4;
  campaign.cosim.faults.push_back({"bus_bit_flip", 0.2, 0, UINT64_MAX});
  requests.push_back(campaign);

  Request lint;
  lint.endpoint = Endpoint::kLint;
  lint.lint.artifacts = {fixture("valid_small.cdfg"),
                         fixture("bad_arity.cdfg")};
  requests.push_back(lint);

  Request explore;
  explore.endpoint = Endpoint::kExplore;
  explore.explore.workload = "jpeg_pipeline";
  explore.explore.strategies = {"kl", "all_hw"};
  requests.push_back(explore);

  Request flow;
  flow.endpoint = Endpoint::kFlow;
  flow.flow.workload = "dsp_chain";
  requests.push_back(flow);

  HttpClient client("127.0.0.1", port);
  for (const Request& request : requests) {
    const char* path = endpoint_path(request.endpoint);
    HttpResult result;
    std::string error;
    ASSERT_TRUE(client.request("POST", path, request.json(), &result, &error))
        << path << ": " << error;
    EXPECT_EQ(result.status, 200) << path << ": " << result.body;
    // Bit-identical to the equivalent direct library dispatch.
    EXPECT_EQ(result.body, reference.handle(request).json()) << path;
  }

  // GET endpoints: health is deterministic; metrics must parse.
  HttpResult health;
  std::string error;
  ASSERT_TRUE(client.request("GET", "/v1/health", "", &health, &error));
  Request health_request;
  health_request.endpoint = Endpoint::kHealth;
  EXPECT_EQ(health.body, reference.handle(health_request).json());

  HttpResult metrics;
  ASSERT_TRUE(client.request("GET", "/v1/metrics", "", &metrics, &error));
  EXPECT_EQ(metrics.status, 200);
  const std::optional<obs::JsonValue> doc = obs::json_parse(metrics.body);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* result_obj = doc->find("result");
  ASSERT_NE(result_obj, nullptr);
  EXPECT_NE(result_obj->find("svc"), nullptr);

  EXPECT_EQ(counters.counter("serve.served"), requests.size() + 2);
  EXPECT_EQ(counters.counter("serve.overloaded"), 0u);
  EXPECT_EQ(counters.counter("serve.conn_rejected"), 0u);
}

TEST(ServeServer, RoutingAndParseErrorsOverSockets) {
  Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 0;
  LoopbackServer loopback(config, dispatcher);
  ASSERT_TRUE(loopback.started);
  const std::uint16_t port = loopback.server.port();
  HttpClient client("127.0.0.1", port);

  HttpResult result;
  std::string error;

  // Unknown path.
  ASSERT_TRUE(client.request("GET", "/v1/teapot", "", &result, &error));
  EXPECT_EQ(result.status, 404);

  // Method mismatch: the flow endpoint is POST-only.
  ASSERT_TRUE(client.request("GET", "/v1/flow", "", &result, &error));
  EXPECT_EQ(result.status, 405);

  // Unparseable body.
  ASSERT_TRUE(client.request("POST", "/v1/lint", "][", &result, &error));
  EXPECT_EQ(result.status, 400);

  // Body endpoint disagreeing with the path.
  Request cosim;
  cosim.endpoint = Endpoint::kCosim;
  cosim.cosim.kernel = "fir8";
  ASSERT_TRUE(
      client.request("POST", "/v1/lint", cosim.json(), &result, &error));
  EXPECT_EQ(result.status, 400);

  // Every error above came back as a well-formed Response document.
  const std::optional<Response> parsed = Response::from_json(result.body,
                                                             &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->status, 400);
}

TEST(ServeServer, QueueBoundAnswers503WithoutQueueing) {
  // A handler that blocks until released pins the single worker; with
  // max_queue=1 the third concurrent request must be turned away.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<int> entered{0};

  obs::Registry counters;
  obs::ScopedRegistry installed(counters);
  ServerConfig config;
  config.workers = 1;
  config.max_queue = 1;
  LoopbackServer loopback(config, [&](const Request&, const obs::TraceContext&,
                                      RequestOutcome*) {
    entered.fetch_add(1);
    released.wait();
    Response response;
    response.endpoint = "lint";
    response.result_json = "{\"exit_code\":0}";
    return response;
  });
  ASSERT_TRUE(loopback.started);
  const std::uint16_t port = loopback.server.port();

  Request lint;
  lint.endpoint = Endpoint::kLint;
  lint.lint.artifacts = {fixture("valid_small.cdfg")};
  const std::string body = lint.json();

  const auto post = [&](HttpResult* out) {
    std::string error;
    const std::optional<HttpResult> r =
        http_post("127.0.0.1", port, "/v1/lint", body, &error);
    ASSERT_TRUE(r.has_value()) << error;
    *out = *r;
  };

  HttpResult first, second, third;
  std::thread a([&] { post(&first); });
  // The worker has claimed the first request (the queue is empty again)
  // before the next two go out concurrently: one of them takes the
  // queue's single slot, the other must be 503'd — whichever order the
  // loop thread sees them in.
  while (entered.load() < 1) std::this_thread::yield();
  std::thread b([&] { post(&second); });
  std::thread c([&] { post(&third); });

  // The rejection happens without waiting on the worker: observable
  // while the first request is still blocked inside the handler.
  for (int i = 0; i < 2000 && counters.counter("serve.overloaded") == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counters.counter("serve.overloaded"), 1u);
  EXPECT_EQ(entered.load(), 1);

  release.set_value();
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(first.status, 200);
  // Exactly one of the two contenders was queued and served; the other
  // was turned away with the overload document.
  const HttpResult& ok = second.status == 200 ? second : third;
  const HttpResult& rejected = second.status == 200 ? third : second;
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(rejected.status, 503);
  EXPECT_NE(rejected.body.find("overloaded"), std::string::npos);
  EXPECT_EQ(counters.counter("serve.overloaded"), 1u);
}

TEST(ServeServer, ConnectionLimitAnswers503AtAccept) {
  obs::Registry counters;
  obs::ScopedRegistry installed(counters);
  Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 0;
  config.max_connections = 1;
  LoopbackServer loopback(config, dispatcher);
  ASSERT_TRUE(loopback.started);
  const std::uint16_t port = loopback.server.port();

  // The first connection is admitted and stays open (keep-alive).
  HttpClient occupant("127.0.0.1", port);
  HttpResult result;
  std::string error;
  ASSERT_TRUE(occupant.request("GET", "/v1/health", "", &result, &error))
      << error;
  EXPECT_EQ(result.status, 200);

  // The second is 503'd at accept time.
  HttpResult rejected;
  const std::optional<HttpResult> r =
      http_get("127.0.0.1", port, "/v1/health", &error);
  ASSERT_TRUE(r.has_value()) << error;
  rejected = *r;
  EXPECT_EQ(rejected.status, 503);
  EXPECT_FALSE(rejected.keep_alive);

  // Once the occupant leaves, the next connection is admitted again.
  occupant.close();
  for (int i = 0; i < 200; ++i) {
    const std::optional<HttpResult> retry =
        http_get("127.0.0.1", port, "/v1/health", &error);
    ASSERT_TRUE(retry.has_value()) << error;
    if (retry->status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_LT(i, 199) << "connection slot never freed";
  }

  EXPECT_GE(counters.counter("serve.conn_rejected"), 1u);
}

// ---------------------------------------------------------- observability

/// GETs `target` and parses the response body; nullopt (with a failed
/// expectation) on transport or parse trouble.
std::optional<obs::JsonValue> get_parsed(std::uint16_t port,
                                         const std::string& target,
                                         int expect_status = 200) {
  std::string error;
  const std::optional<HttpResult> r =
      http_get("127.0.0.1", port, target, &error);
  EXPECT_TRUE(r.has_value()) << error;
  if (!r.has_value()) return std::nullopt;
  EXPECT_EQ(r->status, expect_status) << target << ": " << r->body;
  std::optional<obs::JsonValue> doc = obs::json_parse(r->body);
  EXPECT_TRUE(doc.has_value()) << r->body;
  return doc;
}

/// The value of the named Chrome counter event ("ph":"C") in a trace
/// document, or -1 when absent.
double chrome_counter(const obs::JsonValue& trace, const std::string& name) {
  const obs::JsonValue* events = trace.find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr || !events->is_array()) return -1.0;
  for (const obs::JsonValue& event : events->as_array()) {
    const obs::JsonValue* n = event.find("name");
    const obs::JsonValue* ph = event.find("ph");
    if (n == nullptr || ph == nullptr) continue;
    if (ph->string_or("") != "C" || n->string_or("") != name) continue;
    const obs::JsonValue* args = event.find("args");
    if (args == nullptr) continue;
    const obs::JsonValue* value = args->find("value");
    if (value != nullptr && value->is_number()) return value->as_number();
  }
  return -1.0;
}

/// How many span events ("ph":"X") in `trace` carry category `cat`.
std::size_t chrome_span_count(const obs::JsonValue& trace,
                              const std::string& cat) {
  const obs::JsonValue* events = trace.find("traceEvents");
  if (events == nullptr || !events->is_array()) return 0;
  std::size_t n = 0;
  for (const obs::JsonValue& event : events->as_array()) {
    const obs::JsonValue* ph = event.find("ph");
    const obs::JsonValue* c = event.find("cat");
    if (ph != nullptr && c != nullptr && ph->string_or("") == "X" &&
        c->string_or("") == cat) {
      ++n;
    }
  }
  return n;
}

TEST(ServeObservability, ConcurrentCosimTracesAreDisjoint) {
  Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 2;  // both requests genuinely evaluate concurrently
  LoopbackServer loopback(config, dispatcher);
  ASSERT_TRUE(loopback.started);
  const std::uint16_t port = loopback.server.port();

  // Different sample counts -> different request keys, so the two
  // requests cannot coalesce; each gets its own evaluation and trace.
  auto post_cosim = [port](std::uint64_t samples, HttpResult* out) {
    Request request;
    request.endpoint = Endpoint::kCosim;
    request.cosim.kernel = "fir8";
    request.cosim.samples = samples;
    std::string error;
    const std::optional<HttpResult> r =
        http_post("127.0.0.1", port, "/v1/cosim", request.json(), &error);
    EXPECT_TRUE(r.has_value()) << error;
    if (r.has_value()) *out = *r;
  };
  HttpResult a;
  HttpResult b;
  std::thread ta([&] { post_cosim(3, &a); });
  std::thread tb([&] { post_cosim(5, &b); });
  ta.join();
  tb.join();
  ASSERT_EQ(a.status, 200) << a.body;
  ASSERT_EQ(b.status, 200) << b.body;

  const std::string* id_a = a.header("x-mhs-trace");
  const std::string* id_b = b.header("x-mhs-trace");
  ASSERT_NE(id_a, nullptr);
  ASSERT_NE(id_b, nullptr);
  EXPECT_NE(*id_a, *id_b);

  // Per-request profile buckets sum exactly to the simulated cycles.
  const char* buckets[] = {"sw_execute",      "bus",
                           "dma",             "peripheral_wait",
                           "fault_recovery",  "idle"};
  std::uint64_t cycles_a = 0;
  std::uint64_t cycles_b = 0;
  for (const HttpResult* r : {&a, &b}) {
    std::string error;
    const std::optional<Response> resp = Response::from_json(r->body, &error);
    ASSERT_TRUE(resp.has_value()) << error;
    const double total = result_number(*resp, "total_cycles");
    double sum = 0.0;
    for (const char* bucket : buckets) {
      sum += result_number(*resp, std::string("profile.") + bucket);
    }
    EXPECT_EQ(sum, total) << r->body;
    (r == &a ? cycles_a : cycles_b) =
        static_cast<std::uint64_t>(total);
  }

  // Each Chrome trace carries exactly its own request's work: the svc
  // root span, and a cosim.samples counter equal to its own sample
  // count (not the other request's, not the sum).
  const std::optional<obs::JsonValue> trace_a =
      get_parsed(port, "/v1/trace/" + *id_a);
  const std::optional<obs::JsonValue> trace_b =
      get_parsed(port, "/v1/trace/" + *id_b);
  ASSERT_TRUE(trace_a.has_value());
  ASSERT_TRUE(trace_b.has_value());
  const obs::JsonValue* chrome_a = trace_a->find("result");
  const obs::JsonValue* chrome_b = trace_b->find("result");
  ASSERT_NE(chrome_a, nullptr);
  ASSERT_NE(chrome_b, nullptr);
  EXPECT_EQ(chrome_counter(*chrome_a, "cosim.samples"), 3.0);
  EXPECT_EQ(chrome_counter(*chrome_b, "cosim.samples"), 5.0);
  EXPECT_EQ(chrome_counter(*chrome_a, "cosim.runs"), 1.0);
  EXPECT_EQ(chrome_counter(*chrome_b, "cosim.runs"), 1.0);
  EXPECT_EQ(chrome_span_count(*chrome_a, "svc"), 1u);
  EXPECT_EQ(chrome_span_count(*chrome_b, "svc"), 1u);

  // The flight recorder saw both requests; each entry's latency buckets
  // sum exactly to its end-to-end latency, and the recorded cycle
  // totals match the responses.
  const std::optional<obs::JsonValue> requests =
      get_parsed(port, "/v1/requests");
  ASSERT_TRUE(requests.has_value());
  const obs::JsonValue* result = requests->find("result");
  ASSERT_NE(result, nullptr);
  const obs::JsonValue* entries = result->find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_TRUE(entries->is_array());
  bool saw_a = false;
  bool saw_b = false;
  for (const obs::JsonValue& entry : entries->as_array()) {
    const std::string id = entry.find("trace_id")->string_or("");
    const double total_us = entry.find("total_us")->number_or(-1.0);
    const double bucket_sum = entry.find("parse_us")->number_or(0.0) +
                              entry.find("queue_us")->number_or(0.0) +
                              entry.find("dispatch_us")->number_or(0.0) +
                              entry.find("respond_us")->number_or(0.0);
    EXPECT_EQ(bucket_sum, total_us) << id;
    if (id == *id_a) {
      saw_a = true;
      EXPECT_EQ(entry.find("endpoint")->string_or(""), "cosim");
      EXPECT_EQ(entry.find("total_cycles")->number_or(0.0),
                static_cast<double>(cycles_a));
    }
    if (id == *id_b) {
      saw_b = true;
      EXPECT_EQ(entry.find("total_cycles")->number_or(0.0),
                static_cast<double>(cycles_b));
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  // A repeat of request A is a cache hit — visible in its recorder
  // entry, with the same cycle accounting.
  HttpResult repeat;
  post_cosim(3, &repeat);
  ASSERT_EQ(repeat.status, 200);
  const std::string* id_repeat = repeat.header("x-mhs-trace");
  ASSERT_NE(id_repeat, nullptr);
  const std::optional<obs::JsonValue> again =
      get_parsed(port, "/v1/requests");
  ASSERT_TRUE(again.has_value());
  bool saw_repeat = false;
  for (const obs::JsonValue& entry :
       again->find("result")->find("entries")->as_array()) {
    if (entry.find("trace_id")->string_or("") != *id_repeat) continue;
    saw_repeat = true;
    EXPECT_EQ(entry.find("cache_hit")->kind(), obs::JsonValue::Kind::kBool);
    EXPECT_TRUE(entry.find("cache_hit")->as_bool());
    EXPECT_EQ(entry.find("total_cycles")->number_or(0.0),
              static_cast<double>(cycles_a));
  }
  EXPECT_TRUE(saw_repeat);
}

TEST(ServeObservability, TraceEndpointErrorsAndUnknownIds) {
  Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 0;
  LoopbackServer loopback(config, dispatcher);
  ASSERT_TRUE(loopback.started);
  const std::uint16_t port = loopback.server.port();

  std::string error;
  const std::optional<HttpResult> missing =
      http_get("127.0.0.1", port, "/v1/trace/nope", &error);
  ASSERT_TRUE(missing.has_value()) << error;
  EXPECT_EQ(missing->status, 404);

  const std::optional<HttpResult> wrong_method =
      http_post("127.0.0.1", port, "/v1/requests", "{}", &error);
  ASSERT_TRUE(wrong_method.has_value()) << error;
  EXPECT_EQ(wrong_method->status, 405);
}

TEST(ServeObservability, MetricsServeJsonAndPrometheusForms) {
  obs::Registry registry;
  obs::ScopedRegistry scoped(registry);  // serve.* histograms land here
  Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 0;
  config.metrics_text = [&dispatcher] {
    return dispatcher.metrics_prometheus();
  };
  LoopbackServer loopback(config, dispatcher);
  ASSERT_TRUE(loopback.started);
  const std::uint16_t port = loopback.server.port();

  // Drive one evaluation so the counters are non-trivial.
  Request request;
  request.endpoint = Endpoint::kCosim;
  request.cosim.kernel = "fir8";
  request.cosim.samples = 2;
  std::string error;
  const std::optional<HttpResult> posted =
      http_post("127.0.0.1", port, "/v1/cosim", request.json(), &error);
  ASSERT_TRUE(posted.has_value()) << error;
  ASSERT_EQ(posted->status, 200) << posted->body;

  // JSON form: {"svc": {...}, "obs": <summary>} under result.
  const std::optional<obs::JsonValue> metrics =
      get_parsed(port, "/v1/metrics");
  ASSERT_TRUE(metrics.has_value());
  const obs::JsonValue* result = metrics->find("result");
  ASSERT_NE(result, nullptr);
  const obs::JsonValue* svc = result->find("svc");
  ASSERT_NE(svc, nullptr);
  EXPECT_TRUE(svc->is_object());
  // A traced request is counted when its registry merges at completion,
  // so the in-flight metrics request is not in either block yet.
  EXPECT_EQ(svc->find("requests")->number_or(0.0), 1.0);
  EXPECT_EQ(svc->find("result_cache_size")->number_or(0.0), 1.0);
  const obs::JsonValue* obs_part = result->find("obs");
  ASSERT_NE(obs_part, nullptr);
  ASSERT_TRUE(obs_part->is_object());
  EXPECT_NE(obs_part->find("counters"), nullptr);
  EXPECT_NE(obs_part->find("histograms"), nullptr);
  // The obs part is the process-wide aggregate, not the metrics
  // request's own trace: the earlier cosim request's counters are in it.
  std::map<std::string, double> obs_counters;
  for (const obs::JsonValue& counter : obs_part->find("counters")->as_array()) {
    obs_counters[counter.find("name")->string_or("")] =
        counter.find("value")->number_or(-1.0);
  }
  EXPECT_EQ(obs_counters["cosim.runs"], 1.0);
  EXPECT_EQ(obs_counters["svc.requests"], 1.0);
  // One counter source: the svc block is the obs block's svc.* counters
  // (absent ones read 0).
  for (const auto& [key, counter] :
       {std::pair<const char*, const char*>{"requests", "svc.requests"},
        {"evaluations", "svc.evaluations"},
        {"coalesced", "svc.coalesced"},
        {"cache_hits", "svc.cache.hits"},
        {"errors", "svc.errors"}}) {
    const obs::JsonValue* value = svc->find(key);
    ASSERT_NE(value, nullptr) << key;
    const auto it = obs_counters.find(counter);
    EXPECT_EQ(value->number_or(-1.0),
              it == obs_counters.end() ? 0.0 : it->second)
        << key;
  }

  // Prometheus form: text exposition, every line a comment or a
  // "name[{labels}] value" sample with a parseable value.
  const std::optional<HttpResult> prom = http_get(
      "127.0.0.1", port, "/v1/metrics?format=prometheus", &error);
  ASSERT_TRUE(prom.has_value()) << error;
  EXPECT_EQ(prom->status, 200);
  const std::string* content_type = prom->header("content-type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(content_type->rfind("text/plain", 0), 0u) << *content_type;

  std::istringstream lines(prom->body);
  std::string line;
  std::size_t samples = 0;
  std::set<std::string> sample_names;  // name plus labels
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
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << line;
    // Duplicate samples are invalid exposition format.
    EXPECT_TRUE(sample_names.insert(name).second) << "duplicate " << line;
    ++samples;
  }
  EXPECT_GE(samples, 1u);
  for (const char* name : {"mhs_svc_requests", "mhs_serve_served",
                           "mhs_svc_result_cache_size"}) {
    EXPECT_EQ(sample_names.count(name), 1u) << name << "\n" << prom->body;
  }
}

/// The names of the spans of category `cat` in a registry.
std::set<std::string> span_names(const obs::Registry& registry,
                                 const std::string& cat) {
  std::set<std::string> names;
  for (const obs::SpanEvent& event : registry.events()) {
    if (event.category == cat) names.insert(event.name);
  }
  return names;
}

TEST(ServeObservability, RequestWorkStaysInItsOwnTrace) {
  // Everything a traced request causes, on any thread, must land in its
  // own sink: the process-wide registry stays empty.
  obs::Registry global;
  obs::ScopedRegistry installed(global);
  // Every request below carries its own key, so each one runs the
  // library rather than answering from the result cache.
  Dispatcher dispatcher;

  std::vector<Request> requests;
  Request flow;
  flow.endpoint = Endpoint::kFlow;
  flow.flow.workload = "dsp_chain";
  flow.flow.cosimulate = true;
  flow.flow.cosim_samples = 2;
  requests.push_back(flow);
  for (const std::uint64_t threads : {1, 2, 4, 8}) {
    Request explore;
    explore.endpoint = Endpoint::kExplore;
    explore.explore.workload = "dsp_chain";
    explore.explore.strategies = {"kl", "gclp", "annealed"};
    explore.explore.threads = threads;
    // threads is not keyed; the area weight is.
    explore.explore.area_weight = 0.01 * static_cast<double>(threads);
    requests.push_back(explore);
  }
  for (const char* level : {"pin", "register", "driver", "message"}) {
    Request cosim;
    cosim.endpoint = Endpoint::kCosim;
    cosim.cosim.kernel = "fir8";
    cosim.cosim.samples = 3;
    cosim.cosim.level = level;
    requests.push_back(cosim);
  }
  Request campaign;
  campaign.endpoint = Endpoint::kFaultCampaign;
  campaign.cosim.kernel = "checksum8";
  campaign.cosim.samples = 4;
  campaign.cosim.faults.push_back({"bus_bit_flip", 0.2, 0, UINT64_MAX});
  requests.push_back(campaign);
  Request lint;
  lint.endpoint = Endpoint::kLint;
  lint.lint.artifacts = {fixture("valid_small.cdfg")};
  lint.lint.ranges = true;
  requests.push_back(lint);
  Request health;
  health.endpoint = Endpoint::kHealth;
  requests.push_back(health);
  Request metrics;
  metrics.endpoint = Endpoint::kMetrics;
  requests.push_back(metrics);

  std::vector<std::unique_ptr<obs::Registry>> sinks;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    sinks.push_back(std::make_unique<obs::Registry>());
    obs::TraceContext trace;
    trace.trace_id = "r" + std::to_string(i);
    trace.sink = sinks.back().get();
    const Response response = dispatcher.handle(requests[i], trace);
    ASSERT_EQ(response.status, 200) << response.json();
    EXPECT_EQ(sinks.back()->counter("svc.requests"), 1u) << response.endpoint;
    EXPECT_EQ(sinks.back()->counter("svc.cache.hits"), 0u) << response.endpoint;
    EXPECT_EQ(span_names(*sinks.back(), "svc").size(), 1u)
        << response.endpoint;
  }

  const obs::Summary leaked = global.summary();
  EXPECT_EQ(global.num_events(), 0u) << leaked.table();
  EXPECT_TRUE(leaked.counters.empty()) << leaked.table();
  EXPECT_TRUE(leaked.hists.empty()) << leaked.table();
  EXPECT_TRUE(leaked.gauges.empty()) << leaked.table();

  // The flow's partitioning (strategy and all-SW baseline) and its
  // syntheses are in its own trace.
  const obs::Registry& flow_trace = *sinks[0];
  const std::set<std::string> partitions = span_names(flow_trace, "partition");
  EXPECT_EQ(partitions.count("kl"), 1u);
  EXPECT_EQ(partitions.count("all_sw"), 1u);
  EXPECT_GT(flow_trace.counter("hls.syntheses"), 0u);
  EXPECT_EQ(flow_trace.counter("cosim.runs"), 1u);
  // Each sweep's points, whichever batch thread ran them, are in its own.
  for (std::size_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(sinks[i]->counter("explorer.points"), 3u) << i;
    EXPECT_EQ(sinks[i]->counter("partition.kl.runs"), 1u) << i;
    EXPECT_GT(sinks[i]->counter("hls.syntheses"), 0u) << i;
  }

  // Over the wire: a flow's /v1/trace/<id> shows the same work. A new
  // seed keeps it from answering from the cache.
  ServerConfig config;
  config.workers = 2;
  LoopbackServer loopback(config, dispatcher);
  ASSERT_TRUE(loopback.started);
  Request wire_flow = flow;
  wire_flow.flow.cosim_seed = 8;
  std::string error;
  const std::optional<HttpResult> posted =
      http_post("127.0.0.1", loopback.server.port(), "/v1/flow",
                wire_flow.json(), &error);
  ASSERT_TRUE(posted.has_value()) << error;
  ASSERT_EQ(posted->status, 200) << posted->body;
  const std::string* id = posted->header("x-mhs-trace");
  ASSERT_NE(id, nullptr);
  const std::optional<obs::JsonValue> trace =
      get_parsed(loopback.server.port(), "/v1/trace/" + *id);
  ASSERT_TRUE(trace.has_value());
  const obs::JsonValue* chrome = trace->find("result");
  ASSERT_NE(chrome, nullptr);
  std::set<std::string> wire_partitions;
  for (const obs::JsonValue& event :
       chrome->find("traceEvents")->as_array()) {
    const obs::JsonValue* cat = event.find("cat");
    if (cat != nullptr && cat->string_or("") == "partition") {
      wire_partitions.insert(event.find("name")->string_or(""));
    }
  }
  EXPECT_EQ(wire_partitions.count("kl"), 1u);
  EXPECT_EQ(wire_partitions.count("all_sw"), 1u);
  EXPECT_GT(chrome_counter(*chrome, "hls.syntheses"), 0.0);
}

TEST(ServeObservability, RecorderSnapshotsAreWholeUnderConcurrentRecords) {
  // One writer publishes while three readers snapshot: every entry a
  // snapshot returns must be whole (buckets summing to total_us, the id
  // matching the buckets), never a mix of two publishes.
  FlightRecorder recorder(8);
  constexpr std::uint64_t kRecords = 20000;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      do {
        for (const RecordedRequest& e : recorder.snapshot()) {
          EXPECT_EQ(e.parse_us + e.queue_us + e.dispatch_us + e.respond_us,
                    e.total_us);
          EXPECT_EQ(e.trace_id,
                    "request-with-a-long-trace-id-" +
                        std::to_string(e.parse_us));
          EXPECT_EQ(e.seq, e.parse_us);
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    RecordedRequest rec;
    rec.trace_id = "request-with-a-long-trace-id-" + std::to_string(i);
    rec.endpoint = "cosim";
    rec.parse_us = i;
    rec.queue_us = 2 * i + 1;
    rec.dispatch_us = 3 * i + 2;
    rec.respond_us = i % 7;
    rec.total_us = rec.parse_us + rec.queue_us + rec.dispatch_us +
                   rec.respond_us;
    recorder.record(rec);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(checked.load(), 3 * recorder.capacity());
  const std::vector<RecordedRequest> last = recorder.snapshot();
  ASSERT_EQ(last.size(), recorder.capacity());
  EXPECT_EQ(last.front().seq, kRecords - 1);
  EXPECT_EQ(recorder.recorded(), kRecords);
}

// --------------------------------------------- wire + recorder golden

/// The golden's fixed requests, labelled: every cached endpoint, every
/// co-simulation level, health, and the 400 paths. Requests that fail an
/// MHS_CHECK are left out: its message names the source line, so any
/// edit above the check would change the bytes.
std::vector<std::pair<std::string, Request>> golden_requests() {
  std::vector<std::pair<std::string, Request>> out;
  const auto add = [&out](std::string label, Endpoint endpoint) -> Request& {
    out.emplace_back(std::move(label), Request{});
    out.back().second.endpoint = endpoint;
    return out.back().second;
  };
  const char* const levels[] = {"pin", "register", "driver", "message"};

  add("flow/dsp_chain", Endpoint::kFlow).flow.workload = "dsp_chain";
  for (const char* level : levels) {
    FlowParams& flow =
        add(std::string("flow/dsp_chain/cosim_") + level, Endpoint::kFlow)
            .flow;
    flow.workload = "dsp_chain";
    flow.cosimulate = true;
    flow.cosim_level = level;
  }
  add("flow/jpeg_pipeline", Endpoint::kFlow).flow.workload = "jpeg_pipeline";

  for (const std::uint64_t threads : {1, 4}) {
    ExploreParams& explore =
        add("explore/dsp_chain/threads_" + std::to_string(threads),
            Endpoint::kExplore)
            .explore;
    explore.workload = "dsp_chain";
    // Targets above zero: the hot_spot and unload points need one.
    explore.latency_targets = {5000.0, 10000.0};
    explore.threads = threads;
  }

  for (const char* level : levels) {
    CosimParams& cosim =
        add(std::string("cosim/fir8/") + level, Endpoint::kCosim).cosim;
    cosim.kernel = "fir8";
    cosim.level = level;
  }
  CosimParams& irq = add("cosim/fir8/register_irq", Endpoint::kCosim).cosim;
  irq.kernel = "fir8";
  irq.use_irq = true;

  for (const char* level : levels) {
    CosimParams& campaign =
        add(std::string("fault-campaign/checksum8/") + level,
            Endpoint::kFaultCampaign)
            .cosim;
    campaign.kernel = "checksum8";
    campaign.level = level;
    campaign.faults.push_back({"bus_bit_flip", 0.2, 0, UINT64_MAX});
    campaign.faults.push_back({"peripheral_stall", 0.3, 40, UINT64_MAX});
    campaign.faults.push_back({"peripheral_stall", 0.3,
                               fault::FaultSpec::kHang, UINT64_MAX});
  }

  std::vector<std::string> examples;
  for (const char* name : {"checksum16.cdfg", "dct8.cdfg", "ekg_monitor.pn",
                           "fir8.cdfg", "jpeg_pipeline.tg",
                           "packet_pipeline.pn"}) {
    examples.push_back(read_file(std::string(MHS_EXAMPLES_IR_DIR) + "/" + name));
  }
  std::vector<std::string> corrupted;
  for (const char* name :
       {"bad_arity.cdfg", "cyclic.tg", "dangling_value.cdfg", "dup_port.cdfg",
        "forward_ref.cdfg", "isolated_process.pn", "range_const_output.cdfg",
        "range_dead_select.cdfg", "range_div_zero.cdfg", "range_overflow.cdfg",
        "range_shift_oob.cdfg", "shift_range.cdfg"}) {
    corrupted.push_back(fixture(name));
  }
  for (const auto& [set, artifacts] :
       {std::pair<const char*, const std::vector<std::string>*>{"examples_ir",
                                                               &examples},
        {"corrupted", &corrupted}}) {
    LintParams& strict =
        add(std::string("lint/") + set + "/strict", Endpoint::kLint).lint;
    strict.artifacts = *artifacts;
    strict.strict = true;
    LintParams& ranges =
        add(std::string("lint/") + set + "/ranges", Endpoint::kLint).lint;
    ranges.artifacts = *artifacts;
    ranges.ranges = true;
  }

  add("health", Endpoint::kHealth);

  add("400/flow/unknown_workload", Endpoint::kFlow).flow.workload = "teapot";
  FlowParams& bad_strategy =
      add("400/flow/unknown_strategy", Endpoint::kFlow).flow;
  bad_strategy.workload = "dsp_chain";
  bad_strategy.strategy = "guess";
  ExploreParams& no_targets =
      add("400/explore/no_latency_targets", Endpoint::kExplore).explore;
  no_targets.workload = "dsp_chain";
  no_targets.latency_targets.clear();
  add("400/cosim/unknown_kernel", Endpoint::kCosim).cosim.kernel = "fir1024";
  CosimParams& bad_level = add("400/cosim/unknown_level", Endpoint::kCosim).cosim;
  bad_level.kernel = "fir8";
  bad_level.level = "waveform";
  CosimParams& no_samples = add("400/cosim/zero_samples", Endpoint::kCosim).cosim;
  no_samples.kernel = "fir8";
  no_samples.samples = 0;
  add("400/cosim/unverified_kernel", Endpoint::kCosim).cosim.kernel_text =
      fixture("dangling_value.cdfg");
  CosimParams& faulty = add("400/cosim/faults", Endpoint::kCosim).cosim;
  faulty.kernel = "fir8";
  faulty.faults.push_back({"dma_drop", 0.1, 0, UINT64_MAX});
  add("400/fault-campaign/no_faults", Endpoint::kFaultCampaign).cosim.kernel =
      "fir8";
  add("400/lint/no_artifacts", Endpoint::kLint);
  add("400/lint/garbage_artifact", Endpoint::kLint).lint.artifacts = {
      "%% garbage %%"};
  return out;
}

std::string outcome_text(const RequestOutcome& outcome) {
  std::string text = outcome.cache_hit ? "hit" : "miss";
  if (outcome.coalesced) text += "+coalesced";
  for (const std::uint64_t v : cycles_of(outcome.profile)) {
    text += ':' + std::to_string(v);
  }
  return text;
}

/// FNV-1a over `bytes`, as 16 hex digits.
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

TEST(ServeGolden, WireBytesAndRecorderFactsMatchTheFixture) {
  // One line per request, each run on its own Dispatcher: the FNV-1a
  // hash and length of the exact Response::json() bytes, then the
  // RequestOutcome of the fresh call and of the cached call (how it was
  // answered, simulated cycles, six profile buckets). The fixture pins
  // the wire output and the flight-recorder facts byte for byte; after
  // an intended wire change, the recomputed table is the second operand
  // of the failed comparison below.
  std::string table;
  for (const auto& [label, request] : golden_requests()) {
    Dispatcher dispatcher;
    RequestOutcome fresh;
    RequestOutcome cached;
    const Response first = dispatcher.handle(request, obs::TraceContext{},
                                             &fresh);
    const Response second = dispatcher.handle(request, obs::TraceContext{},
                                              &cached);
    const std::string wire = first.json();
    EXPECT_EQ(second.json(), wire) << label;
    // The recorder facts are the profile the body reports, however the
    // request was answered.
    EXPECT_EQ(cycles_of(fresh.profile), body_cycles(first)) << label;
    EXPECT_EQ(cycles_of(cached.profile), body_cycles(second)) << label;
    table += label + ' ' + fnv1a_hex(wire) + ' ' +
             std::to_string(wire.size()) + ' ' + outcome_text(fresh) + ' ' +
             outcome_text(cached) + '\n';
  }
  EXPECT_EQ(fixture("serve_golden.txt"), table);
}

// ------------------------------------------------------- request fuzzing

/// Tokens at the edges of the number kinds: the integer/double seam,
/// both 64-bit limits and one past them, double overflow and underflow,
/// and integral values a u64 field must refuse.
constexpr const char* kBoundaryTokens[] = {
    "0", "-0", "1", "-1", "8.9", "1.0", "1e3", "1E+2", "0.1",
    "9007199254740992", "9007199254740993", "-9007199254740993",
    "9223372036854775807", "-9223372036854775808", "-9223372036854775809",
    "18446744073709551615", "18446744073709551616", "1e308", "1e400",
    "-1e400", "1e-400", "4.9e-324", "00", "1.", "-", "1e"};

/// One blind edit of `body`: a byte flip, a digit run spliced into a
/// number, a boundary token in place of a number, or a truncation.
void mutate(Rng& rng, std::string* body) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<std::size_t> digits;
  for (std::size_t i = 0; i < body->size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>((*body)[i]))) {
      digits.push_back(i);
    }
  }
  switch (rng.uniform_int(0, 3)) {
    case 0:
      (*body)[pick(body->size())] = static_cast<char>(rng.uniform_int(0, 255));
      return;
    case 1:
      if (!digits.empty()) {
        std::string run(static_cast<std::size_t>(rng.uniform_int(1, 24)), '0');
        for (char& c : run) c = static_cast<char>('0' + rng.uniform_int(0, 9));
        body->insert(digits[pick(digits.size())], run);
      }
      return;
    case 2:
      if (!digits.empty()) {
        const auto in_number = [body](std::size_t i) {
          const char c = (*body)[i];
          return c != '\0' && std::strchr("+-.eE0123456789", c) != nullptr;
        };
        std::size_t start = digits[pick(digits.size())];
        std::size_t end = start;
        while (start > 0 && in_number(start - 1)) --start;
        while (end < body->size() && in_number(end)) ++end;
        body->replace(start, end - start,
                      kBoundaryTokens[pick(std::size(kBoundaryTokens))]);
      }
      return;
    default:
      body->resize(pick(body->size() + 1));
      return;
  }
}

TEST(ServeFuzz, MutatedRequestBodiesFailCleanlyOrReachAFixedPoint) {
  // Blind mutations of the golden requests' bodies (tests/fuzz_env.h:
  // MHS_FUZZ_ITERS cases, case i seeded MHS_JSON_SEED's base + i). Every
  // body either fails with an error, or parses to a request whose json()
  // parses back to the same bytes.
  std::vector<std::string> bodies;
  for (const auto& [label, request] : golden_requests()) {
    bodies.push_back(request.json());
  }
  const std::size_t iters = fuzz::fuzz_iters(10000);
  const std::uint64_t base = fuzz::fuzz_seed_base("MHS_JSON_SEED", 1);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = base + i;
    Rng rng(seed);
    std::string body = bodies[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(bodies.size()) - 1))];
    for (std::int64_t edits = rng.uniform_int(1, 3); edits > 0; --edits) {
      if (!body.empty()) mutate(rng, &body);
    }
    std::string error;
    const std::optional<Request> parsed = Request::from_json(body, &error);
    if (!parsed.has_value()) {
      ASSERT_FALSE(error.empty()) << "seed " << seed;
      continue;
    }
    const std::string wire = parsed->json();
    const std::optional<Request> again = Request::from_json(wire, &error);
    ASSERT_TRUE(again.has_value()) << "seed " << seed << ": " << error;
    ASSERT_EQ(again->json(), wire) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mhs::svc
