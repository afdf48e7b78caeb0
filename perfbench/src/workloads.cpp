#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "svc/client.h"
#include "svc/dispatch.h"
#include "svc/server.h"

namespace mhsbench {

using mhs::Rng;
namespace core = mhs::core;
namespace svc = mhs::svc;

// ------------------------------------------------------------ shared parts

Spec SpecSource::get(std::size_t k) const {
  if (k == 0 && first_dsp_chain_) return dsp_chain_spec();
  Rng rng(seed_ + 0x9e3779b97f4a7c15ull * (k + 1));
  const auto tasks = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(min_tasks_),
                      static_cast<std::int64_t>(max_tasks_)));
  return generate_spec(rng, tasks, "spec" + std::to_string(k), any_shape_);
}

RequestPool::RequestPool(std::uint64_t seed, std::size_t client)
    : seed_(seed ^ kServeSalt ^ (0x100 * (client + 1))),
      rng_(seed_ ^ 1),
      client_(client) {}

OpStream RequestPool::stream(std::size_t ops) {
  Rng rng(seed_);
  return make_stream(rng, ops, 0.5);
}

const ServeRequest& RequestPool::get(std::size_t k) {
  while (fresh_.size() <= k) {
    fresh_.push_back(generate_request(rng_, client_ * 1000000 + fresh_.size()));
  }
  return fresh_[k];
}

std::string check_flow_report(const Spec& spec, const core::FlowReport& report,
                              const core::FlowConfig& config) {
  const std::size_t n = spec.kernels.size();
  if (report.optimized_kernels.size() != n) return "optimized kernel count";
  // The co-simulated kernel, chosen as the flow chooses it: the
  // HW-mapped, kernel-backed task with the most software cycles.
  std::size_t largest = n;
  double largest_cycles = -1.0;
  for (std::size_t t = 0; t < n; ++t) {
    if (!report.design.partition.mapping[t] || spec.kernels[t] == nullptr) {
      continue;
    }
    const double c =
        report.annotated.task(mhs::ir::TaskId(t)).costs.sw_cycles;
    if (c > largest_cycles) {
      largest_cycles = c;
      largest = t;
    }
  }
  if (largest == n) {
    return report.cosim ? "cosim ran with nothing in hardware" : "";
  }
  if (!report.cosim) return "no cosim report";
  if (report.hls_verified_vectors != config.verify_hls) {
    return "hls_verified_vectors " +
           std::to_string(report.hls_verified_vectors) + " != verify_hls " +
           std::to_string(config.verify_hls);
  }
  // Replays the flow's sample recipe (drawn over the optimized kernel's
  // inputs) through the reference evaluator of the original kernel.
  const mhs::ir::Cdfg& optimized = report.optimized_kernels[largest];
  const mhs::ir::Cdfg& original = *spec.kernels[largest];
  Rng rng(config.cosim_seed);
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < config.cosim_samples; ++s) {
    std::map<std::string, std::int64_t> named;
    for (const mhs::ir::OpId id : original.inputs()) {
      named[original.op(id).name] = 0;  // inputs the optimizer removed
    }
    for (const mhs::ir::OpId id : optimized.inputs()) {
      named[optimized.op(id).name] = rng.uniform_int(-128, 127);
    }
    for (const auto& [name, value] : original.evaluate(named)) {
      sum += static_cast<std::uint64_t>(value);
    }
  }
  const auto expected = static_cast<std::int64_t>(sum);
  if (report.cosim->checksum != expected) {
    return "cosim checksum " + std::to_string(report.cosim->checksum) +
           " != reference " + std::to_string(expected);
  }
  return "";
}

core::ExploreReport run_sweep(const Spec& spec, const Sweep& sweep,
                              std::size_t threads) {
  core::Explorer::Options options;
  options.num_threads = threads;
  core::Explorer explorer(spec.graph, spec.kernels, options);
  return explorer.sweep(sweep.configs, sweep.strategies, sweep.objectives);
}

std::string frontier_signature(const core::ExploreReport& report) {
  std::ostringstream os;
  os.precision(17);
  for (const core::PointResult& p : report.points) {
    if (!p.error.empty()) return "";
  }
  for (const std::size_t i : report.frontier) {
    const core::PointResult& p = report.points[i];
    os << i << ':' << mhs::partition::strategy_name(p.strategy) << ':'
       << p.config_index << ':' << p.partition.metrics.latency_cycles << ':'
       << p.partition.metrics.hw_area << ':' << p.partition.evaluations << ':';
    for (const bool hw : p.partition.mapping) os << (hw ? '1' : '0');
    os << ';';
  }
  return os.str();
}

namespace {

/// Closed-loop op timings of one run. Each op is stamped with where it
/// started in the run's window: the busy time so far for one caller
/// (add), the wall time since the window opened for several (add_at).
struct Timings {
  struct Op {
    double at_ms = 0.0;
    double ms = 0.0;
    bool first = false;  ///< first time this input was seen
  };
  std::vector<Op> ops;
  double busy_ms = 0.0;
  void add(double ms, bool first) {
    ops.push_back({busy_ms, ms, first});
    busy_ms += ms;
  }
  void add_at(double at_ms, double ms, bool first) {
    ops.push_back({at_ms, ms, first});
  }
};

/// Every timing metric is the median of its values over consecutive
/// blocks of the window, so a slowdown of the shared machine covering
/// less than half of a run does not move it. A run with too few ops for a
/// per-block p90 is one block.
constexpr std::size_t kMaxBlocks = 5;
constexpr std::size_t kMinOpsPerBlock = 200;

/// The end-to-end metrics every workload reports. `window_ms` is the
/// time the ops were in flight.
void report_timings(Result& result, const Timings& t, double window_ms,
                    double setup_s) {
  const std::size_t n = t.ops.size();
  const std::size_t blocks =
      std::clamp<std::size_t>(n / kMinOpsPerBlock, 1, kMaxBlocks);
  const double block_ms = window_ms / static_cast<double>(blocks);
  std::vector<std::vector<double>> all(blocks), hit(blocks), miss(blocks);
  for (const Timings::Op& op : t.ops) {
    const std::size_t b = std::min(
        blocks - 1, static_cast<std::size_t>(std::max(0.0, op.at_ms / block_ms)));
    all[b].push_back(op.ms);
    (op.first ? miss : hit)[b].push_back(op.ms);
  }
  const auto across = [](const std::vector<std::vector<double>>& per_block,
                         const auto& stat) {
    std::vector<double> values;
    for (const std::vector<double>& samples : per_block) {
      values.push_back(stat(samples));
    }
    return median(std::move(values));
  };
  const auto p50 = [](const std::vector<double>& v) { return quantile(v, 0.5); };
  std::size_t hits = 0;
  for (const Timings::Op& op : t.ops) hits += op.first ? 0 : 1;
  result.add("setup_s", setup_s, "s", kSetupReps);
  result.add("ops_per_s",
             across(all,
                    [&](const std::vector<double>& v) {
                      return static_cast<double>(v.size()) * 1000.0 / block_ms;
                    }),
             "1/s", n);
  result.add("op_ms_p50", across(all, p50), "ms", n);
  result.add("op_ms_p90",
             across(all, [](const std::vector<double>& v) {
               return quantile(v, 0.9);
             }),
             "ms", n);
  result.add("hit_ms_p50", across(hit, p50), "ms", hits);
  result.add("miss_ms_p50", across(miss, p50), "ms", n - hits);
  result.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

/// Enough ops that no realistic machine exhausts the stream inside one
/// window; entries are indices, the inputs themselves are generated on
/// first use.
constexpr std::size_t kMaxOps = 1u << 18;

}  // namespace

// ------------------------------------------------------------------- flow

namespace {

/// Moves the calling thread round-robin over the CPUs it may run on and
/// restores its affinity at scope exit. On a shared VM one vCPU can be
/// slowed for minutes by its host neighbours; a single caller that
/// happened to stay on it would measure the neighbour, not the program.
/// Rotating makes every run sample every vCPU alike.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Flow ops between CPU moves (about a tenth of a second).
constexpr std::size_t kOpsPerCpu = 20;

}  // namespace

Result run_flow(const Args& args) {
  Result result;
  Rng stream_rng(args.seed ^ kFlowSalt);
  const OpStream stream = make_stream(stream_rng, kMaxOps, 0.5);
  const SpecSource specs(args.seed ^ kFlowSalt ^ 1, 4, 10, true, true);

  // The set-ups rotate too, one CPU per repetition.
  CpuRotation rotation;  // run_codesign_flow starts no threads
  const Spec warm = dsp_chain_spec();
  const double setup_s = median_setup_s([&] {
    rotation.next();
    const core::FlowConfig config = core::FlowConfig::defaults();
    return core::run_codesign_flow(warm.graph, warm.kernels, config);
  });

  const core::FlowConfig config = core::FlowConfig::defaults();
  Timings t;
  for (std::size_t i = 0; t.busy_ms < args.seconds * 1000.0; ++i) {
    if (i % kOpsPerCpu == 0) rotation.next();
    const Spec spec = specs.get(stream.input[i]);
    ++result.attempted;
    try {
      const double start = now_ms();
      const core::FlowReport report =
          core::run_codesign_flow(spec.graph, spec.kernels, config);
      t.add(now_ms() - start, stream.first[i]);
      const std::string error = check_flow_report(spec, report, config);
      if (!error.empty()) result.fail(spec.name + ": " + error);
    } catch (const std::exception& e) {
      result.fail(spec.name + ": " + e.what());
    }
  }
  report_timings(result, t, t.busy_ms, setup_s);
  return result;
}

// ---------------------------------------------------------------- explore

Result run_explore(const Args& args) {
  Result result;
  Rng stream_rng(args.seed ^ kExploreSalt);
  const OpStream stream = make_stream(stream_rng, kMaxOps, 0.5);
  const SpecSource specs(args.seed ^ kExploreSalt ^ 1, kExploreTasks,
                         kExploreTasks, false, false);

  // Warm-up: one sweep over a fixed 12-task spec (independent of --seed,
  // so setup_s does not vary with the inputs).
  Rng warm_rng(7);
  const Spec warm = generate_spec(warm_rng, 12, "warm", false);
  const Sweep warm_sweep = make_sweep(warm);
  const double setup_s = median_setup_s(
      [&] { return run_sweep(warm, warm_sweep, kExploreThreads); });

  Timings t;
  std::map<std::size_t, std::string> frontiers;  // distinct input -> sig
  for (std::size_t i = 0; t.busy_ms < args.seconds * 1000.0; ++i) {
    const Spec spec = specs.get(stream.input[i]);
    const Sweep sweep = make_sweep(spec);
    ++result.attempted;
    try {
      const double start = now_ms();
      const core::ExploreReport report =
          run_sweep(spec, sweep, kExploreThreads);
      t.add(now_ms() - start, stream.first[i]);
      const std::string sig = frontier_signature(report);
      if (sig.empty()) {
        result.fail(spec.name + ": a design point failed");
      } else if (stream.first[i]) {
        frontiers[stream.input[i]] = sig;
      } else if (frontiers[stream.input[i]] != sig) {
        result.fail(spec.name + ": repeated sweep changed the frontier");
      }
    } catch (const std::exception& e) {
      result.fail(spec.name + ": " + e.what());
    }
  }
  report_timings(result, t, t.busy_ms, setup_s);

  // Untimed oracle: the first distinct specs' 4-thread frontiers must
  // equal a 1-thread sweep of the same spec.
  std::size_t checked = 0;
  for (const auto& [input, sig] : frontiers) {
    if (checked++ == kExploreOracleSpecs) break;
    const Spec spec = specs.get(input);
    if (frontier_signature(run_sweep(spec, make_sweep(spec), 1)) != sig) {
      result.fail(spec.name + ": 4-thread frontier differs from 1-thread");
    }
  }
  return result;
}

// ------------------------------------------------------------------ serve

namespace {

constexpr std::size_t kServeClients = 2;
constexpr std::size_t kServeWorkers = 2;
/// Ops each client's stream holds per second of run, about 1.7 times
/// what one client completes today. Fresh requests are generated for all of
/// them up front, before any timing. A client that runs out before the
/// window closes fails the run: raise this constant rather than let the
/// mix drift toward repeats as the service gets faster.
constexpr double kServeOpsPerClientPerSecond = 1200.0;
/// Distinct requests (per client) whose reply is also checked against an
/// in-process Dispatcher after the run.
constexpr double kServeOracleShare = 0.01;

/// One client's pre-generated traffic.
struct ClientStream {
  OpStream stream;
  std::vector<const ServeRequest*> fresh;  ///< distinct requests
  std::vector<bool> oracle;                ///< per distinct request
};

ClientStream make_client_stream(std::uint64_t seed, RequestPool& pool,
                                std::size_t ops) {
  ClientStream c;
  c.stream = pool.stream(ops);
  Rng oracle_rng(seed ^ kServeSalt ^ 0x0c);
  for (std::size_t k = 0; k < c.stream.distinct; ++k) {
    c.fresh.push_back(&pool.get(k));
    c.oracle.push_back(oracle_rng.bernoulli(kServeOracleShare));
  }
  return c;
}

/// What a client saw for one op.
struct Reply {
  std::size_t input = 0;  ///< distinct request index
  bool first = false;     ///< first time this client sent it
  double at_ms = 0.0;     ///< sent this long after the window opened
  double ms = 0.0;
  int status = 0;
  std::uint64_t hash = 0;
};

/// A running service: dispatcher, server, and one connected keep-alive
/// client per caller. Members are destroyed in reverse order: clients,
/// then the server (joining its threads), then the dispatcher it uses.
struct Service {
  std::unique_ptr<svc::Dispatcher> dispatcher;
  std::unique_ptr<svc::Server> server;
  std::vector<std::unique_ptr<svc::HttpClient>> clients;
};

/// Fixed warm-up traffic (one request per endpoint kind, independent of
/// --seed).
std::vector<ServeRequest> warmup_requests() {
  Rng rng(11);
  std::vector<ServeRequest> out;
  while (out.size() < 8) out.push_back(generate_request(rng, out.size()));
  return out;
}

/// Starts a service and runs the warm-up requests through client 0.
/// Null on any failure (reported on stderr).
std::unique_ptr<Service> start_service(
    const std::vector<ServeRequest>& warmup) {
  auto s = std::make_unique<Service>();
  s->dispatcher = std::make_unique<svc::Dispatcher>();
  svc::ServerConfig config;
  config.workers = kServeWorkers;
  svc::Dispatcher* dispatcher = s->dispatcher.get();
  s->server = std::make_unique<svc::Server>(
      config, [dispatcher](const svc::Request& request,
                           const mhs::obs::TraceContext& trace,
                           svc::RequestOutcome* outcome) {
        return dispatcher->handle(request, trace, outcome);
      });
  std::string error;
  if (!s->server->start(&error)) {
    std::cerr << "server start failed: " << error << "\n";
    return nullptr;
  }
  for (std::size_t c = 0; c < kServeClients; ++c) {
    auto client =
        std::make_unique<svc::HttpClient>("127.0.0.1", s->server->port());
    if (!client->connect(&error)) {
      std::cerr << "client connect failed: " << error << "\n";
      return nullptr;
    }
    s->clients.push_back(std::move(client));
  }
  for (const ServeRequest& r : warmup) {
    svc::HttpResult reply;
    if (!s->clients[0]->request("POST", r.path, r.body, &reply, &error) ||
        reply.status != 200) {
      std::cerr << "warm-up request failed: " << error << "\n";
      return nullptr;
    }
  }
  return s;
}

}  // namespace

Result run_serve(const Args& args) {
  Result result;
  std::vector<RequestPool> pools;
  std::vector<ClientStream> streams;
  const auto ops = static_cast<std::size_t>(
      std::max(1000.0, kServeOpsPerClientPerSecond * args.seconds));
  for (std::size_t c = 0; c < kServeClients; ++c) pools.emplace_back(args.seed, c);
  for (std::size_t c = 0; c < kServeClients; ++c) {
    streams.push_back(make_client_stream(args.seed + c, pools[c], ops));
  }
  // peak_rss_mb includes the pre-generated requests; this is their share.
  const double pool_rss_mb = peak_rss_mb();
  const std::vector<ServeRequest> warmup = warmup_requests();
  bool started = true;
  const double setup_s = median_setup_s([&] {
    std::unique_ptr<Service> s = start_service(warmup);
    started = started && s != nullptr;
    return s;
  });
  std::unique_ptr<Service> service = start_service(warmup);
  if (!started || service == nullptr) {
    result.fail("service setup");
    return result;
  }

  // Closed loop: each client sends its next request only after the reply
  // to the previous one arrived.
  std::vector<std::vector<Reply>> replies(kServeClients);
  std::vector<std::map<std::size_t, std::string>> oracle_bodies(kServeClients);
  const double start = now_ms();
  const double deadline = start + args.seconds * 1000.0;
  std::vector<double> end_ms(kServeClients, start);
  std::vector<char> exhausted(kServeClients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      const ClientStream& cs = streams[c];
      svc::HttpClient& client = *service->clients[c];
      for (std::size_t i = 0; now_ms() < deadline; ++i) {
        if (i == cs.stream.input.size()) {
          exhausted[c] = 1;
          break;
        }
        const std::size_t input = cs.stream.input[i];
        const bool first = cs.stream.first[i];
        const ServeRequest& r = *cs.fresh[input];
        svc::HttpResult http;
        std::string error;
        const double t0 = now_ms();
        const bool ok = client.request("POST", r.path, r.body, &http, &error);
        Reply reply;
        reply.input = input;
        reply.first = first;
        reply.at_ms = t0 - start;
        reply.ms = now_ms() - t0;
        reply.status = ok ? http.status : -1;
        reply.hash = fnv1a(http.body);
        replies[c].push_back(reply);
        if (first && cs.oracle[input]) oracle_bodies[c][input] = http.body;
      }
      end_ms[c] = now_ms();
    });
  }
  for (std::thread& th : threads) th.join();
  double window_ms = 0.0;
  for (const double e : end_ms) window_ms = std::max(window_ms, e - start);

  Timings t;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    if (exhausted[c]) {
      ++result.attempted;
      result.fail("client " + std::to_string(c) + " used up its " +
                  std::to_string(ops) +
                  " pre-generated ops before the window closed");
    }
    std::map<std::size_t, std::uint64_t> first_hash;
    for (std::size_t i = 0; i < replies[c].size(); ++i) {
      const Reply& r = replies[c][i];
      ++result.attempted;
      if (r.status != 200) {
        result.fail("client " + std::to_string(c) + " op " +
                    std::to_string(i) + ": status " +
                    std::to_string(r.status));
        continue;
      }
      t.add_at(r.at_ms, r.ms, r.first);
      if (r.first) {
        first_hash[r.input] = r.hash;
      } else if (first_hash.count(r.input) != 0 &&
                 first_hash[r.input] != r.hash) {
        result.fail("client " + std::to_string(c) + " op " +
                    std::to_string(i) + ": repeated reply differs");
      }
    }
  }
  report_timings(result, t, window_ms, setup_s);
  std::size_t pooled = 0;
  for (const ClientStream& cs : streams) pooled += cs.fresh.size();
  std::cout << "request pool: " << pooled << " distinct requests, peak RSS "
            << pool_rss_mb << " MB once generated (part of peak_rss_mb)\n";
  service.reset();

  // Untimed oracle: a seeded subset of first replies must equal what a
  // fresh in-process Dispatcher answers.
  svc::Dispatcher oracle;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    for (const auto& [input, body] : oracle_bodies[c]) {
      std::string error;
      const std::optional<svc::Request> request =
          svc::Request::from_json(streams[c].fresh[input]->body, &error);
      if (!request || oracle.handle(*request).json() != body) {
        result.fail("client " + std::to_string(c) + " request " +
                    std::to_string(input) + ": differs from the dispatcher");
      }
    }
  }
  return result;
}

}  // namespace mhsbench
