// The traced run: replays each workload op's layer calls, in the order
// the program makes them, from the benchmark's own code, with a span
// around every call into a layer's public function. Nothing inside the
// program is instrumented for this; an obs::Registry is installed only
// to read the counters the program already keeps (hls.syntheses,
// partition.*, cosim.events, svc.cache.hits) and to collect the spans
// for the Chrome trace written at exit.
//
// The program's own hls.syntheses count comes from an untimed copy of
// each replayed flow run with a registry of its own installed; the timed
// call runs with none.
//
// Every workload replays every layer, each on its own inputs:
//   flow op    — the flow replay; its spec swept by the explorer replay;
//                its spec posted as a /v1/flow request;
//   explore op — the explorer replay; one flow replay of its spec; its
//                sweep posted as a /v1/explore request;
//   serve op   — the svc replay of the request, plus the replay of the
//                library work it asks for (flow, sweep, cosim or lint).
// Each replay is checked against the untraced call it mirrors; a replay
// whose outputs differ has drifted from the program and counts as a
// failed op.
#include <cmath>
#include <iostream>
#include <optional>
#include <set>
#include <algorithm>

#include "analysis/absint.h"
#include "analysis/lint.h"
#include "analysis/verify.h"
#include "base/rng.h"
#include "hw/equivalence.h"
#include "hw/hls.h"
#include "ir/optimize.h"
#include "ir/serialize.h"
#include "sim/run.h"
#include "svc/client.h"
#include "svc/dispatch.h"
#include "svc/server.h"
#include "sw/estimate.h"
#include "workloads.h"

namespace mhsbench {

namespace analysis = mhs::analysis;
namespace core = mhs::core;
namespace hw = mhs::hw;
namespace ir = mhs::ir;
namespace obs = mhs::obs;
namespace partition = mhs::partition;
namespace sim = mhs::sim;
namespace svc = mhs::svc;

namespace {

/// Span name of one partition::run strategy ("partition.run.kl", ...).
const char* run_layer(partition::Strategy s) {
  switch (s) {
    case partition::Strategy::kAllSw:    return "partition.run.all_sw";
    case partition::Strategy::kAllHw:    return "partition.run.all_hw";
    case partition::Strategy::kHotSpot:  return "partition.run.hot_spot";
    case partition::Strategy::kUnload:   return "partition.run.unload";
    case partition::Strategy::kKl:       return "partition.run.kl";
    case partition::Strategy::kAnnealed: return "partition.run.annealed";
    case partition::Strategy::kGclp:     return "partition.run.gclp";
  }
  return "partition.run.unknown";
}

/// Strategies whose run time is reported (the flow's all-SW baseline plus
/// the five search strategies).
constexpr partition::Strategy kReportedStrategies[] = {
    partition::Strategy::kAllSw,   partition::Strategy::kHotSpot,
    partition::Strategy::kUnload,  partition::Strategy::kKl,
    partition::Strategy::kAnnealed, partition::Strategy::kGclp};

/// Scoped switch of the process-wide registry: the untraced legs run with
/// none installed, the replays with the benchmark's.
class Install {
 public:
  explicit Install(obs::Registry* r) : previous_(obs::registry()) {
    obs::set_registry(r);
  }
  ~Install() { obs::set_registry(previous_); }
  Install(const Install&) = delete;
  Install& operator=(const Install&) = delete;

 private:
  obs::Registry* previous_;
};

/// Accumulators of everything the replays measure.
struct Totals {
  std::size_t ops = 0;
  // Exact counts over the fixed prefix of ops.
  std::uint64_t synth_calls = 0;    ///< the flow replays' hw::synthesize calls
  std::uint64_t hls_syntheses = 0;  ///< the program's hls.syntheses counter
  std::uint64_t sim_events = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t evaluations = 0;
  // Over every replayed flow.
  std::uint64_t all_hls_syntheses = 0;
  std::uint64_t all_synth_distinct = 0;
  // Over every replayed op.
  std::uint64_t all_sim_events = 0;
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t cost_hits = 0, cost_lookups = 0;
  std::size_t estimate_hits = 0, estimate_lookups = 0;
  double point_wall_ms = 0.0, pool_capacity_ms = 0.0;
  std::vector<double> point_ms;
  std::vector<double> flow_real_ms, flow_layer_ms;
  std::uint64_t svc_requests = 0, svc_hits = 0;
  std::size_t svc_calls = 0, svc_hit_calls = 0, svc_miss_calls = 0;
  double transport_ms = 0.0;
};

class Replayer {
 public:
  Replayer(obs::Registry& registry, Result& result)
      : registry_(registry), tracer_(registry), result_(result) {}

  Tracer& tracer() { return tracer_; }
  Totals& totals() { return totals_; }
  /// Whether the current op lies in the fixed prefix the exact counts
  /// cover.
  void set_exact(bool exact) { exact_ = exact; }

  /// Starts the replay service (dispatcher + 1 loopback server + client).
  bool start_service();

  void flow(const Spec& spec, const core::FlowConfig& config);
  void explore(const Spec& spec, const Sweep& sweep, std::size_t threads);
  void request(const std::string& body, const char* path, bool seen);
  void cosim(const svc::CosimParams& params, const std::string& response);
  void lint(const svc::LintParams& params);

 private:
  hw::HlsResult synthesize(const ir::Cdfg& kernel,
                           const hw::ComponentLibrary& library,
                           const hw::HlsConstraints& constraints,
                           std::set<std::string>* distinct,
                           std::uint64_t* calls);
  void drift(const std::string& what) {
    result_.fail("replay drifted from the program: " + what);
  }

  obs::Registry& registry_;
  Tracer tracer_;
  Result& result_;
  Totals totals_;
  bool exact_ = true;
  std::unique_ptr<svc::Dispatcher> dispatcher_;
  std::unique_ptr<svc::Server> server_;
  std::unique_ptr<svc::HttpClient> client_;
};

/// One traced hw::synthesize call of a flow replay, counted in `calls`
/// and keyed into `distinct` by (content hash, constraints).
hw::HlsResult Replayer::synthesize(const ir::Cdfg& kernel,
                                   const hw::ComponentLibrary& library,
                                   const hw::HlsConstraints& constraints,
                                   std::set<std::string>* distinct,
                                   std::uint64_t* calls) {
  distinct->insert(std::to_string(ir::content_hash(kernel)) + "/" +
                   std::to_string(static_cast<int>(constraints.goal)) + "/" +
                   std::to_string(constraints.latency_bound) + "/" +
                   std::to_string(constraints.op_width.size()));
  ++*calls;
  return tracer_.call("hw.synthesize", [&] {
    return hw::synthesize(kernel, library, constraints);
  });
}

// The flow replay mirrors core::run_codesign_flow call for call: compile
// gate, specify (absint + optimize), estimate (SW estimate + min-area
// HLS per kernel), partition (strategy + all-SW baseline), partition
// gate, HLS area validation, and the cosim phase (HLS, HLS gate,
// equivalence gate, sim::run).
void Replayer::flow(const Spec& spec, const core::FlowConfig& config) {
  if (config.narrow_datapaths) {
    drift("the flow replay does not model narrow_datapaths");
    return;
  }
  // The untraced call the replay must reproduce.
  double real_ms = 0.0;
  std::optional<core::FlowReport> real;
  {
    const Install off(nullptr);
    const double start = now_ms();
    real.emplace(core::run_codesign_flow(spec.graph, spec.kernels, config));
    real_ms = now_ms() - start;
  }
  // The program's own synthesis count, from an untimed copy of the call.
  std::uint64_t counted = 0;
  {
    obs::Registry counters;
    const Install count(&counters);
    core::run_codesign_flow(spec.graph, spec.kernels, config);
    counted = counters.counter("hls.syntheses");
  }

  const Install on(&registry_);
  std::uint64_t calls = 0;
  std::set<std::string> distinct;
  tracer_.begin_op();
  obs::Span root(&registry_, "replay.flow", "perfbench");

  const bool gates_on = config.lint_level != analysis::LintLevel::kOff;
  std::vector<const ir::Cdfg*> kernels = spec.kernels;
  if (gates_on) {
    const analysis::Diagnostics graph_diags = tracer_.call(
        "analysis.verify", [&] { return analysis::verify(spec.graph); });
    if (graph_diags.has_errors()) return drift("graph failed verify");
    for (const ir::Cdfg*& kernel : kernels) {
      if (kernel == nullptr) continue;
      const analysis::Diagnostics diags =
          tracer_.call("analysis.analyze_cdfg", [&] {
            return analysis::analyze_cdfg(*kernel, /*with_ranges=*/true);
          });
      if (analysis::apply_gate("compile", config.lint_level, diags)) {
        kernel = nullptr;
      }
    }
  }

  std::vector<ir::Cdfg> optimized(kernels.size());
  std::size_t ops_after = 0;
  if (config.optimize_kernels) {
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      if (kernels[i] == nullptr) continue;
      const std::vector<ir::ValueRange> facts = tracer_.call(
          "analysis.absint",
          [&] { return analysis::absint_cdfg(*kernels[i]).interval_facts(); });
      ir::OptimizeStats stats;
      optimized[i] = tracer_.call("ir.optimize", [&] {
        return ir::optimize(*kernels[i], facts, &stats);
      });
      totals_.ops_before += stats.ops_before;
      totals_.ops_after += stats.ops_after;
      ops_after += stats.ops_after;
      kernels[i] = &optimized[i];
    }
  }

  // Estimate: the annotation core::annotate_costs computes per kernel.
  ir::TaskGraph annotated = spec.graph;
  for (const ir::TaskId t : annotated.task_ids()) {
    const ir::Cdfg* kernel = kernels[t.index()];
    if (kernel == nullptr) continue;
    const mhs::sw::SwEstimate sw_est = tracer_.call("sw.estimate", [&] {
      return mhs::sw::estimate_compiled(*kernel, config.cpu);
    });
    hw::HlsConstraints constraints;
    constraints.goal = hw::HlsGoal::kMinArea;
    const hw::HlsResult impl =
        synthesize(*kernel, config.library, constraints, &distinct, &calls);
    std::size_t compute_ops = 0;
    for (const ir::OpId id : kernel->op_ids()) {
      if (ir::op_is_compute(kernel->op(id).kind)) ++compute_ops;
    }
    const std::size_t depth = std::max<std::size_t>(kernel->depth(), 1);
    ir::TaskCosts& costs = annotated.task(t).costs;
    costs.sw_cycles = sw_est.cycles_per_iteration;
    costs.sw_size = sw_est.code_bytes;
    costs.hw_cycles = static_cast<double>(impl.latency);
    costs.hw_area = impl.area.total();
    costs.parallelism = std::clamp(
        (static_cast<double>(compute_ops) / static_cast<double>(depth) - 1.0) /
            3.0,
        0.0, 1.0);
  }

  // Partition: what cosynth::run(kCoprocessor) does.
  std::optional<partition::CostModel> model;
  tracer_.call("partition.model", [&] {
    model.emplace(annotated, config.library, config.comm);
  });
  const partition::PartitionResult part =
      tracer_.call(run_layer(config.strategy), [&] {
        return partition::run(config.strategy, *model, config.objective);
      });
  const partition::PartitionResult all_sw =
      tracer_.call(run_layer(partition::Strategy::kAllSw), [&] {
        return partition::run(partition::Strategy::kAllSw, *model,
                              config.objective);
      });
  if (exact_) totals_.evaluations += part.evaluations + all_sw.evaluations;
  if (gates_on) {
    const analysis::Diagnostics diags = tracer_.call(
        "analysis.verify", [&] { return analysis::verify(annotated); });
    analysis::apply_gate("partition", config.lint_level, diags);
  }

  // Co-synthesize: cosynth::validate_hw_area, one min-area HLS per HW
  // kernel.
  double validated = 0.0;
  if (config.validate_with_hls) {
    validated = tracer_.call("cosynth.validate_hw_area", [&] {
      double total = 0.0;
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        if (!part.mapping[i] || kernels[i] == nullptr) continue;
        hw::HlsConstraints constraints;
        constraints.goal = hw::HlsGoal::kMinArea;
        total += synthesize(*kernels[i], model->library(), constraints,
                            &distinct, &calls)
                     .area.total();
      }
      return total;
    });
  }

  // Co-simulate the largest HW kernel.
  std::optional<sim::CosimReport> cosim;
  std::size_t verified = 0;
  const ir::Cdfg* largest = nullptr;
  if (config.cosimulate) {
    double largest_cycles = -1.0;
    for (const ir::TaskId t : annotated.task_ids()) {
      if (!part.mapping[t.index()] || kernels[t.index()] == nullptr) continue;
      const double c = annotated.task(t).costs.sw_cycles;
      if (c > largest_cycles) {
        largest_cycles = c;
        largest = kernels[t.index()];
      }
    }
  }
  if (largest != nullptr) {
    hw::HlsConstraints constraints;
    constraints.goal = hw::HlsGoal::kMinArea;
    const hw::HlsResult impl =
        synthesize(*largest, config.library, constraints, &distinct, &calls);
    if (gates_on) {
      const analysis::Diagnostics diags = tracer_.call(
          "analysis.verify", [&] { return analysis::verify(impl); });
      analysis::apply_gate("hls", config.lint_level, diags);
    }
    if (config.verify_hls > 0) {
      const hw::EquivCampaign campaign =
          tracer_.call("hw.verify_synthesis", [&] {
            return hw::verify_synthesis(impl, config.verify_hls,
                                        config.cosim_seed ^ 0xe901f0ull);
          });
      if (!campaign.all_equivalent) return drift("equivalence gate failed");
      verified = campaign.vectors;
    }
    mhs::Rng rng(config.cosim_seed);
    std::vector<std::vector<std::int64_t>> samples;
    for (std::size_t s = 0; s < config.cosim_samples; ++s) {
      std::vector<std::int64_t> in;
      for (std::size_t k = 0; k < largest->inputs().size(); ++k) {
        in.push_back(rng.uniform_int(-128, 127));
      }
      samples.push_back(std::move(in));
    }
    sim::SimRequest sreq;
    sreq.impl = &impl;
    sreq.samples = &samples;
    sreq.cosim.level = config.cosim_level;
    sreq.cosim.cpu = config.cpu;
    sreq.cosim.fault_plan = config.fault_plan;
    sreq.cosim.fault_seed = config.fault_seed;
    sreq.cosim.resilience = config.resilience;
    cosim = tracer_.call("sim.run",
                         [&] { return std::move(sim::run(sreq).cosim); });
    if (cosim) {
      totals_.all_sim_events += cosim->sim_events;
      if (exact_) {
        totals_.sim_events += cosim->sim_events;
        totals_.sim_cycles +=
            static_cast<std::uint64_t>(std::llround(cosim->total_cycles));
      }
    }
  }
  totals_.all_synth_distinct += distinct.size();
  totals_.all_hls_syntheses += counted;
  if (exact_) {
    totals_.synth_calls += calls;
    totals_.hls_syntheses += counted;
  }
  totals_.flow_real_ms.push_back(real_ms);
  totals_.flow_layer_ms.push_back(tracer_.top_level_ms());

  // The replay must have done what the program did.
  if (counted != calls) {
    drift(spec.name + ": the program counted " + std::to_string(counted) +
          " hls.syntheses, the replay made " + std::to_string(calls) +
          " hw::synthesize calls");
  }
  if (part.mapping != real->design.partition.mapping ||
      part.metrics.latency_cycles !=
          real->design.partition.metrics.latency_cycles ||
      all_sw.metrics.latency_cycles != real->design.all_sw_latency) {
    drift(spec.name + ": partition differs");
  }
  if (validated != real->validated_hw_area) {
    drift(spec.name + ": validated HW area differs");
  }
  if (ops_after != real->report.optimize_stats.ops_after) {
    drift(spec.name + ": optimized op count differs");
  }
  if (cosim.has_value() != real->cosim.has_value() ||
      (cosim && (cosim->checksum != real->cosim->checksum ||
                 cosim->sim_events != real->cosim->sim_events ||
                 cosim->total_cycles != real->cosim->total_cycles)) ||
      verified != real->hls_verified_vectors) {
    drift(spec.name + ": co-simulation differs");
  }
}

// The explorer replay: the real multi-threaded sweep (untraced, for its
// per-point wall times and cache statistics), then the same sweep made
// serially from outside — per variant the explorer's annotation
// (ir::optimize + core::annotate_costs on a shared estimate cache + the
// cached cost model), then partition::run for every point.
void Replayer::explore(const Spec& spec, const Sweep& sweep,
                       std::size_t threads) {
  std::optional<core::ExploreReport> real;
  {
    const Install off(nullptr);
    real.emplace(run_sweep(spec, sweep, threads));
  }
  double point_sum = 0.0;
  for (const core::PointResult& p : real->points) {
    totals_.point_ms.push_back(p.wall_ms);
    point_sum += p.wall_ms;
  }
  totals_.point_wall_ms += point_sum;
  totals_.pool_capacity_ms +=
      static_cast<double>(real->threads) * real->wall_ms;
  totals_.cost_hits += real->cost_cache_hits;
  totals_.cost_lookups += real->cost_cache_hits + real->cost_cache_misses;
  totals_.estimate_hits += real->estimate_cache_hits;
  totals_.estimate_lookups +=
      real->estimate_cache_hits + real->estimate_cache_misses;

  const Install on(&registry_);
  obs::Span root(&registry_, "replay.explore", "perfbench");
  core::KernelEstimateCache estimates;
  const std::vector<core::DesignPoint> points = core::Explorer::cross_product(
      sweep.configs.size(), sweep.strategies, sweep.objectives);
  std::size_t index = 0;
  for (std::size_t c = 0; c < sweep.configs.size(); ++c) {
    const core::FlowConfig& config = sweep.configs[c];
    std::vector<ir::Cdfg> optimized(spec.kernels.size());
    std::vector<const ir::Cdfg*> kernels = spec.kernels;
    ir::TaskGraph annotated;
    std::optional<partition::CostModel> model;
    partition::EvalCache cache;
    tracer_.call("core.explore.annotate", [&] {
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        if (kernels[i] == nullptr || !config.optimize_kernels) continue;
        optimized[i] = tracer_.call(
            "ir.optimize", [&] { return ir::optimize(*kernels[i]); });
        kernels[i] = &optimized[i];
      }
      annotated = core::annotate_costs(spec.graph, kernels, config, &estimates);
      model.emplace(annotated, config.library, config.comm);
      model->set_cache(&cache);
    });
    for (; index < points.size() && points[index].config_index == c;
         ++index) {
      const core::DesignPoint& point = points[index];
      const partition::PartitionResult r =
          tracer_.call(run_layer(point.strategy), [&] {
            return partition::run(point.strategy, *model, point.objective);
          });
      if (exact_) totals_.evaluations += r.evaluations;
      const core::PointResult& want = real->points[index];
      if (!want.error.empty() || r.mapping != want.partition.mapping ||
          r.evaluations != want.partition.evaluations ||
          r.metrics.latency_cycles != want.partition.metrics.latency_cycles) {
        drift(spec.name + ": sweep point " + std::to_string(index) +
              " differs");
      }
    }
  }
}

bool Replayer::start_service() {
  dispatcher_ = std::make_unique<svc::Dispatcher>();
  svc::ServerConfig config;
  config.workers = 1;
  svc::Dispatcher* dispatcher = dispatcher_.get();
  server_ = std::make_unique<svc::Server>(
      config, [dispatcher](const svc::Request& request,
                           const obs::TraceContext& trace,
                           svc::RequestOutcome* outcome) {
        return dispatcher->handle(request, trace, outcome);
      });
  std::string error;
  if (!server_->start(&error)) {
    std::cerr << "replay server start failed: " << error << "\n";
    return false;
  }
  client_ = std::make_unique<svc::HttpClient>("127.0.0.1", server_->port());
  return client_->connect(&error);
}

// The svc replay of one request: parse, dispatch in-process (a miss the
// first time the request is seen, a hit after), render, then one more
// in-process hit and the same request over loopback HTTP, whose
// difference is the transport's share.
void Replayer::request(const std::string& body, const char* path, bool seen) {
  const Install on(&registry_);
  obs::Span root(&registry_, "replay.svc", "perfbench");
  std::string error;
  const std::optional<svc::Request> request = tracer_.call(
      "svc.parse", [&] { return svc::Request::from_json(body, &error); });
  ++totals_.svc_calls;
  if (!request) return drift("request does not parse: " + error);
  const std::uint64_t requests_before = registry_.counter("svc.requests");
  const std::uint64_t hits_before = registry_.counter("svc.cache.hits");
  const svc::Response response =
      tracer_.call(seen ? "svc.dispatch_hit" : "svc.dispatch_miss",
                   [&] { return dispatcher_->handle(*request); });
  totals_.svc_requests += registry_.counter("svc.requests") - requests_before;
  totals_.svc_hits += registry_.counter("svc.cache.hits") - hits_before;
  ++(seen ? totals_.svc_hit_calls : totals_.svc_miss_calls);
  const std::string text =
      tracer_.call("svc.render", [&] { return response.json(); });
  if (response.status != 200) {
    return drift("request answered " + std::to_string(response.status) +
                 ": " + response.error);
  }

  const double hit_start = now_ms();
  const svc::Response again =
      tracer_.call("svc.dispatch_hit", [&] { return dispatcher_->handle(*request); });
  const double hit_ms = now_ms() - hit_start;
  ++totals_.svc_hit_calls;
  svc::HttpResult http;
  const double http_start = now_ms();
  const bool ok = tracer_.call("svc.http", [&] {
    return client_->request("POST", path, body, &http, &error);
  });
  totals_.transport_ms += now_ms() - http_start - hit_ms;
  if (!ok || http.body != text || again.json() != text) {
    drift("replayed reply differs from the dispatched one");
  }

  // The library work the request asks for, replayed layer by layer.
  switch (request->endpoint) {
    case svc::Endpoint::kCosim:
      cosim(request->cosim, text);
      break;
    case svc::Endpoint::kLint:
      lint(request->lint);
      break;
    default:
      break;  // flow and explore requests are replayed by the caller
  }
}

// /v1/cosim's library work: the kernel gate, min-area HLS, sim::run over
// the flow's sample recipe.
void Replayer::cosim(const svc::CosimParams& params,
                     const std::string& response) {
  const Install on(&registry_);
  const ir::Cdfg kernel = ir::cdfg_from_text(params.kernel_text);
  tracer_.call("analysis.analyze_cdfg",
               [&] { return analysis::analyze_cdfg(kernel); });
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::ComponentLibrary library = hw::default_library();
  const hw::HlsResult impl = tracer_.call("hw.synthesize", [&] {
    return hw::synthesize(kernel, library, constraints);
  });
  mhs::Rng rng(params.seed);
  std::vector<std::vector<std::int64_t>> samples;
  for (std::size_t s = 0; s < params.samples; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-128, 127));
    }
    samples.push_back(std::move(in));
  }
  sim::SimRequest sreq;
  sreq.impl = &impl;
  sreq.samples = &samples;
  const std::optional<sim::CosimReport> report = tracer_.call(
      "sim.run", [&] { return std::move(sim::run(sreq).cosim); });
  if (!report) return drift("cosim produced no report");
  totals_.all_sim_events += report->sim_events;
  if (exact_) {
    totals_.sim_events += report->sim_events;
    totals_.sim_cycles +=
        static_cast<std::uint64_t>(std::llround(report->total_cycles));
  }
  const std::string witness =
      "\"checksum\":" + std::to_string(report->checksum) + ",";
  if (response.find(witness) == std::string::npos) {
    drift("cosim checksum differs from the service's");
  }
}

// /v1/lint's library work: each artifact parsed and analyzed.
void Replayer::lint(const svc::LintParams& params) {
  const Install on(&registry_);
  for (const std::string& text : params.artifacts) {
    if (text.rfind("taskgraph", 0) == 0) {
      const ir::TaskGraph graph = ir::task_graph_from_text(text, false);
      tracer_.call("analysis.verify",
                   [&] { return analysis::analyze_task_graph(graph); });
    } else {
      const ir::Cdfg kernel = ir::cdfg_from_text(text);
      tracer_.call("analysis.analyze_cdfg", [&] {
        return analysis::analyze_cdfg(kernel, params.ranges);
      });
    }
  }
}

/// Ops whose exact counts are reported, per workload: enough to cover
/// dsp_chain plus generated specs, small enough to finish on any
/// machine well inside the run's time limit.
std::size_t exact_prefix(const std::string& workload) {
  if (workload == "flow") return 16;
  if (workload == "explore") return 2;
  return 64;
}

/// The /v1/flow or /v1/explore body carrying a workload spec.
std::string wire_body(const Spec& spec, const Sweep* sweep) {
  svc::Request req;
  if (sweep == nullptr) {
    req.endpoint = svc::Endpoint::kFlow;
    spec_to_wire(spec, &req.flow.graph, &req.flow.kernels);
    req.flow.cosimulate = true;  // the flow workload's default config
  } else {
    req.endpoint = svc::Endpoint::kExplore;
    spec_to_wire(spec, &req.explore.graph, &req.explore.kernels);
    for (const partition::Strategy s : sweep->strategies) {
      req.explore.strategies.push_back(partition::strategy_name(s));
    }
    req.explore.latency_targets.clear();
    for (const partition::Objective& o : sweep->objectives) {
      if (req.explore.latency_targets.empty() ||
          req.explore.latency_targets.back() != o.latency_target) {
        req.explore.latency_targets.push_back(o.latency_target);
      }
    }
    req.explore.threads = kExploreThreads;
  }
  return req.json();
}

/// The serve request's sweep, as the dispatcher builds it.
Sweep request_sweep(const svc::ExploreParams& params) {
  Sweep sweep;
  sweep.configs = {core::FlowConfig::defaults().without_cosim()};
  for (const std::string& name : params.strategies) {
    for (const partition::Strategy s : partition::kAllStrategies) {
      if (name == partition::strategy_name(s)) sweep.strategies.push_back(s);
    }
  }
  for (const double target : params.latency_targets) {
    partition::Objective objective;
    objective.latency_target = target;
    objective.area_weight = params.area_weight;
    sweep.objectives.push_back(objective);
  }
  return sweep;
}

/// The serve request's flow configuration, as the dispatcher builds it
/// for the fields the generated requests set.
core::FlowConfig request_config(const svc::FlowParams& params) {
  core::FlowConfig config = core::FlowConfig::defaults();
  for (const partition::Strategy s : partition::kAllStrategies) {
    if (params.strategy == partition::strategy_name(s)) config.strategy = s;
  }
  config.objective.latency_target = params.latency_target;
  config.objective.area_weight = params.area_weight;
  config.cosimulate = params.cosimulate;
  return config;
}

double safe_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void report(const Totals& t, Tracer& tracer, Result& result) {
  const double ops = static_cast<double>(std::max<std::size_t>(t.ops, 1));
  const auto per_op = [&](const char* layer) {
    return tracer.total_ms(layer) / ops;
  };
  result.add("ir.optimize_ms", per_op("ir.optimize"), "ms", t.ops);
  result.add("ir.ops_after_ratio",
             safe_ratio(static_cast<double>(t.ops_after),
                        static_cast<double>(t.ops_before)),
             "ratio");
  result.add("analysis.analyze_cdfg_ms", per_op("analysis.analyze_cdfg"), "ms",
             t.ops);
  result.add("analysis.absint_ms", per_op("analysis.absint"), "ms", t.ops);
  result.add("analysis.verify_ms", per_op("analysis.verify"), "ms", t.ops);
  result.add("sw.estimate_ms", per_op("sw.estimate"), "ms", t.ops);
  result.add("hw.synthesize_ms", per_op("hw.synthesize"), "ms", t.ops);
  result.add("hw.synthesize_calls", static_cast<double>(t.synth_calls),
             "count");
  result.add("hw.hls_syntheses_counter", static_cast<double>(t.hls_syntheses),
             "count");
  result.add("hw.synth_distinct_ratio",
             safe_ratio(static_cast<double>(t.all_synth_distinct),
                        static_cast<double>(t.all_hls_syntheses)),
             "ratio");
  result.add("hw.verify_synthesis_ms", per_op("hw.verify_synthesis"), "ms",
             t.ops);
  for (const partition::Strategy s : kReportedStrategies) {
    const std::string layer = run_layer(s);
    result.add(layer.substr(0, 13) + "_ms" + layer.substr(13),
               tracer.total_ms(layer) / ops, "ms", t.ops);
  }
  result.add("partition.model_ms", per_op("partition.model"), "ms", t.ops);
  result.add("partition.evaluations", static_cast<double>(t.evaluations),
             "count");
  result.add("partition.eval_cache_hit_ratio",
             safe_ratio(static_cast<double>(t.cost_hits),
                        static_cast<double>(t.cost_lookups)),
             "ratio");
  result.add("cosynth.validate_hw_area_ms", per_op("cosynth.validate_hw_area"),
             "ms", t.ops);
  result.add("core.explore.annotate_ms", per_op("core.explore.annotate"), "ms",
             t.ops);
  result.add("core.explore.point_ms_p50", median(t.point_ms), "ms",
             t.point_ms.size());
  result.add("core.estimate_cache_hit_ratio",
             safe_ratio(static_cast<double>(t.estimate_hits),
                        static_cast<double>(t.estimate_lookups)),
             "ratio");
  result.add("core.explore.pool_efficiency",
             safe_ratio(t.point_wall_ms, t.pool_capacity_ms), "ratio");
  result.add("sim.run_ms", per_op("sim.run"), "ms", t.ops);
  result.add("sim.events", static_cast<double>(t.sim_events), "count");
  result.add("sim.cycles", static_cast<double>(t.sim_cycles), "count");
  result.add("sim.ns_per_event",
             safe_ratio(tracer.total_ms("sim.run") * 1e6,
                        static_cast<double>(t.all_sim_events)),
             "ns");
  const double calls = static_cast<double>(std::max<std::size_t>(t.svc_calls, 1));
  result.add("svc.parse_us", tracer.total_ms("svc.parse") * 1000.0 / calls,
             "us", t.svc_calls);
  result.add("svc.render_us", tracer.total_ms("svc.render") * 1000.0 / calls,
             "us", t.svc_calls);
  result.add("svc.dispatch_hit_us",
             safe_ratio(tracer.total_ms("svc.dispatch_hit") * 1000.0,
                        static_cast<double>(t.svc_hit_calls)),
             "us", t.svc_hit_calls);
  result.add("svc.dispatch_miss_ms",
             safe_ratio(tracer.total_ms("svc.dispatch_miss"),
                        static_cast<double>(t.svc_miss_calls)),
             "ms", t.svc_miss_calls);
  result.add("svc.transport_us", t.transport_ms * 1000.0 / calls, "us",
             t.svc_calls);
  result.add("svc.cache_hit_ratio",
             safe_ratio(static_cast<double>(t.svc_hits),
                        static_cast<double>(t.svc_requests)),
             "ratio");
  // Coverage of the flow replays: untraced flow time minus the replayed
  // layer sum, both medians over the same flows.
  const double op_p50 = median(t.flow_real_ms);
  const double layer_sum = median(t.flow_layer_ms);
  result.add("flow.op_ms_p50", op_p50, "ms", t.flow_real_ms.size());
  result.add("flow.layer_sum_ms", layer_sum, "ms", t.flow_layer_ms.size());
  result.add("flow.unattributed_ms", op_p50 - layer_sum, "ms",
             t.flow_real_ms.size());
}

}  // namespace

Result trace_workload(const Args& args) {
  Result result;
  obs::Registry registry;
  Replayer replay(registry, result);
  if (!replay.start_service()) {
    result.fail("replay service setup");
    return result;
  }
  const std::size_t prefix = exact_prefix(args.workload);
  const double deadline = now_ms() + args.seconds * 1000.0;

  if (args.workload == "flow") {
    mhs::Rng stream_rng(args.seed ^ kFlowSalt);
    const OpStream stream = make_stream(stream_rng, 1u << 16, 0.5);
    const SpecSource specs(args.seed ^ kFlowSalt ^ 1, 4, 10, true, true);
    const core::FlowConfig config = core::FlowConfig::defaults();
    for (std::size_t i = 0; i < prefix || now_ms() < deadline; ++i) {
      const Spec spec = specs.get(stream.input[i]);
      replay.set_exact(i < prefix);
      ++result.attempted;
      replay.flow(spec, config);
      replay.explore(spec, make_sweep(spec), kExploreThreads);
      replay.request(wire_body(spec, nullptr), "/v1/flow", !stream.first[i]);
      ++replay.totals().ops;
    }
  } else if (args.workload == "explore") {
    mhs::Rng stream_rng(args.seed ^ kExploreSalt);
    const OpStream stream = make_stream(stream_rng, 1u << 16, 0.5);
    const SpecSource specs(args.seed ^ kExploreSalt ^ 1, kExploreTasks,
                           kExploreTasks, false, false);
    const core::FlowConfig config = core::FlowConfig::defaults();
    for (std::size_t i = 0; i < prefix || now_ms() < deadline; ++i) {
      const Spec spec = specs.get(stream.input[i]);
      const Sweep sweep = make_sweep(spec);
      replay.set_exact(i < prefix);
      ++result.attempted;
      replay.explore(spec, sweep, kExploreThreads);
      replay.flow(spec, config);
      replay.request(wire_body(spec, &sweep), "/v1/explore", !stream.first[i]);
      ++replay.totals().ops;
    }
  } else {
    // Client 0's stream of the serve workload, replayed by one caller.
    RequestPool pool(args.seed, 0);
    const OpStream stream = pool.stream(1u << 16);
    for (std::size_t i = 0; i < prefix || now_ms() < deadline; ++i) {
      const ServeRequest& r = pool.get(stream.input[i]);
      replay.set_exact(i < prefix);
      ++result.attempted;
      replay.request(r.body, r.path, !stream.first[i]);
      std::string error;
      const std::optional<svc::Request> request =
          svc::Request::from_json(r.body, &error);
      if (request && request->endpoint == svc::Endpoint::kFlow) {
        const Spec spec =
            spec_from_wire(request->flow.graph, request->flow.kernels);
        replay.flow(spec, request_config(request->flow));
      } else if (request && request->endpoint == svc::Endpoint::kExplore) {
        const Spec spec =
            spec_from_wire(request->explore.graph, request->explore.kernels);
        replay.explore(spec, request_sweep(request->explore),
                       request->explore.threads);
      }
      ++replay.totals().ops;
    }
  }

  report(replay.totals(), replay.tracer(), result);
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (!write_file(path, registry.chrome_trace_json())) {
    result.fail("cannot write " + path);
  } else {
    std::cout << "chrome trace: " << path << "\n";
  }
  return result;
}

}  // namespace mhsbench
