#include "svc/dispatch.h"

#include <bit>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/diag.h"
#include "analysis/verify.h"
#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/error.h"
#include "core/explorer.h"
#include "core/flow.h"
#include "fault/fault.h"
#include "hw/hls.h"
#include "ir/cdfg.h"
#include "ir/serialize.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "sim/run.h"
#include "partition/algorithms.h"
#include "sim/cosim.h"
#include "svc/artifact.h"

namespace mhs::svc {
namespace {

// ------------------------------------------------------------ name lookups
// Reverse lookups over the library's stable name tables. The forward
// tables (strategy_name, interface_level_name, ...) are the single source
// of the spellings, so a new enumerator is automatically addressable.

std::optional<partition::Strategy> strategy_from_name(const std::string& name) {
  for (const partition::Strategy s : partition::kAllStrategies) {
    if (name == partition::strategy_name(s)) return s;
  }
  return std::nullopt;
}

std::optional<sim::InterfaceLevel> level_from_name(const std::string& name) {
  for (const sim::InterfaceLevel l : sim::kAllInterfaceLevels) {
    if (name == sim::interface_level_name(l)) return l;
  }
  return std::nullopt;
}

std::optional<analysis::LintLevel> lint_level_from_name(
    const std::string& name) {
  for (const analysis::LintLevel l :
       {analysis::LintLevel::kOff, analysis::LintLevel::kWarn,
        analysis::LintLevel::kStrict}) {
    if (name == analysis::lint_level_name(l)) return l;
  }
  return std::nullopt;
}

std::optional<fault::FaultKind> fault_kind_from_name(const std::string& name) {
  for (const fault::FaultKind k : fault::kAllFaultKinds) {
    if (name == fault::fault_kind_name(k)) return k;
  }
  return std::nullopt;
}

/// The named in-tree kernels a request may reference without shipping
/// serialized text (the same builders the examples and benches use).
std::optional<ir::Cdfg> named_kernel(const std::string& name) {
  if (name == "fir8") return apps::fir_kernel(8);
  if (name == "fir16") return apps::fir_kernel(16);
  if (name == "dct8") return apps::dct8_kernel();
  if (name == "iir_biquad") return apps::iir_biquad_kernel();
  if (name == "xtea4") return apps::xtea_kernel(4);
  if (name == "median5") return apps::median5_kernel();
  if (name == "checksum8") return apps::checksum_kernel(8);
  if (name == "sad8") return apps::sad_kernel(8);
  if (name == "matmul3") return apps::matmul_kernel(3);
  if (name == "sobel3") return apps::sobel3_kernel();
  if (name == "quantize8") return apps::quantize_kernel(8);
  return std::nullopt;
}

/// Shards of the dispatcher's result cache.
constexpr std::size_t kResultCacheShards = 16;

// ----------------------------------------------------------- key hashing

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::string_view text, std::uint64_t h = kFnvOffset) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Accumulates the coalescing key: IR content hashes plus a textual
/// signature of every configuration field. Two requests collide exactly
/// when they would run identical library work.
struct KeyBuilder {
  std::string sig;
  void text(std::string_view piece) {
    sig.append(piece);
    sig.push_back('\x1f');
  }
  void hash(std::uint64_t h) { text(std::to_string(h)); }
  /// Exact bits: doubles that differ anywhere never share an entry.
  void number(double v) { hash(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t finish() const { return fnv1a(sig); }
};

// ------------------------------------------------------------ result JSON
// One builder per result kind: each result is one obs::JsonValue tree,
// rendered once by obs::json_render when it is evaluated.

using Array = obs::JsonValue::Array;
using Object = obs::JsonValue::Object;

/// The summary of the process-wide registry (empty when none is
/// installed).
obs::Summary global_summary() {
  const obs::Registry* r = obs::global_registry();
  return r != nullptr ? r->summary() : obs::Summary{};
}

/// `head` followed by the members of `tail`.
Object join(Object head, Object tail) {
  head.insert(head.end(), std::make_move_iterator(tail.begin()),
              std::make_move_iterator(tail.end()));
  return head;
}

/// The counts and findings of `diags`: the flow's "diagnostics" object
/// and the tail of the lint result.
Object diagnostics_members(const analysis::Diagnostics& diags) {
  return {{"errors", diags.error_count()}, {"warnings", diags.warn_count()},
          {"notes", diags.note_count()}, {"clean", diags.clean()},
          {"findings", diags.to_json()}};
}

obs::JsonValue cosim_result(const sim::CosimReport& r, std::size_t samples) {
  const fault::ResilienceReport& f = r.resilience;
  Object by_kind;
  for (std::size_t i = 0; i < fault::kNumFaultKinds; ++i) {
    by_kind.emplace_back(fault::fault_kind_name(fault::kAllFaultKinds[i]),
                         f.injected_by_kind[i]);
  }
  return Object{
      {"level", sim::interface_level_name(r.level)}, {"samples", samples},
      {"total_cycles", r.total_cycles}, {"sim_events", r.sim_events},
      {"sw_instructions", r.sw_instructions},
      {"bus_accesses", r.bus_accesses}, {"bus_busy_cycles", r.bus_busy_cycles},
      {"signal_transitions", r.signal_transitions}, {"checksum", r.checksum},
      {"hw_activations", r.hw_activations},
      {"profile",
       join({{"total", r.profile.total()}}, profile_buckets(r.profile))},
      {"resilience",
       Object{{"injected", f.injected}, {"detected", f.detected},
              {"recovered", f.recovered}, {"retries", f.retries},
              {"degradations", f.degradations},
              {"recovery_cycles", f.recovery_cycles},
              {"by_kind", std::move(by_kind)}}}};
}

obs::JsonValue flow_result(const core::FlowReport& report,
                           std::size_t cosim_samples) {
  const partition::PartitionResult& part = report.design.partition;
  const partition::Metrics& m = part.metrics;
  const ir::OptimizeStats& opt = report.report.optimize_stats;
  Array mapping;
  for (const bool in_hw : part.mapping) mapping.emplace_back(in_hw ? 1 : 0);
  return Object{
      {"strategy", part.algorithm}, {"tasks", report.annotated.num_tasks()},
      {"tasks_in_hw", m.tasks_in_hw}, {"mapping", std::move(mapping)},
      {"latency_cycles", m.latency_cycles}, {"hw_area", m.hw_area},
      {"sw_code_bytes", m.sw_code_bytes},
      {"cross_comm_cycles", m.cross_comm_cycles}, {"energy", m.energy},
      {"evaluations", part.evaluations},
      {"all_sw_latency", report.design.all_sw_latency},
      {"speedup", report.design.speedup()},
      {"validated_hw_area", report.validated_hw_area},
      {"area_estimate_ratio", report.area_estimate_ratio},
      {"optimize",
       Object{{"ops_before", opt.ops_before}, {"ops_after", opt.ops_after},
              {"constants_folded", opt.constants_folded},
              {"identities_applied", opt.identities_applied},
              {"subexpressions_merged", opt.subexpressions_merged},
              {"range_rewrites", opt.range_rewrites},
              {"dead_ops_removed", opt.dead_ops_removed}}},
      {"diagnostics", diagnostics_members(report.report.diagnostics)},
      {"cosim", report.cosim ? cosim_result(*report.cosim, cosim_samples)
                             : obs::JsonValue()}};
}

obs::JsonValue explore_result(
    const core::ExploreReport& report,
    const std::vector<partition::Strategy>& strategies,
    const std::vector<partition::Objective>& objectives) {
  Array points;
  for (const core::PointResult& point : report.points) {
    // cross_product order is objective-major over strategies.
    const partition::Objective& objective =
        objectives[(point.index / strategies.size()) % objectives.size()];
    const partition::Metrics& m = point.partition.metrics;
    Object entry{{"index", point.index},
                 {"strategy", partition::strategy_name(point.strategy)},
                 {"latency_target", objective.latency_target},
                 {"error", point.error}};
    if (point.error.empty()) {
      entry = join(std::move(entry),
                   {{"latency_cycles", m.latency_cycles},
                    {"hw_area", m.hw_area}, {"tasks_in_hw", m.tasks_in_hw},
                    {"evaluations", point.partition.evaluations},
                    {"all_sw_latency", point.all_sw_latency},
                    {"speedup", point.speedup},
                    {"on_frontier", point.on_frontier}});
    }
    points.emplace_back(std::move(entry));
  }
  return Object{
      {"points", std::move(points)},
      {"frontier", Array(report.frontier.begin(), report.frontier.end())}};
}

obs::JsonValue lint_result(const LintParams& lint,
                           const analysis::Diagnostics& diags) {
  // The exit-code policy of mhs_lint: errors always fail; in strict mode
  // warnings fail too.
  const bool fails = diags.has_errors() || (lint.strict && !diags.clean());
  return join({{"artifacts", lint.artifacts.size()}, {"strict", lint.strict},
               {"ranges", lint.ranges}, {"exit_code", fails ? 1 : 0}},
              diagnostics_members(diags));
}

obs::JsonValue health_result() {
  Array endpoints;
  for (const Endpoint e : kAllEndpoints) {
    endpoints.emplace_back(endpoint_path(e));
  }
  return Object{{"status", "ok"}, {"service", "mhs_serve"},
                {"schema_version", 1}, {"endpoints", std::move(endpoints)}};
}

}  // namespace

// ---------------------------------------------------------------- Prepared

/// Everything prepare() derives from a request before evaluation: parsed
/// IR, resolved enums, the library-level configuration, and the
/// coalescing key. Building it is cheap relative to evaluation, so it
/// happens outside the coalescing machinery — malformed requests 400
/// without ever touching the caches.
struct Dispatcher::Prepared {
  Endpoint endpoint = Endpoint::kHealth;
  std::uint64_t key = 0;

  // flow / explore specification
  ir::TaskGraph graph;
  std::vector<ir::Cdfg> kernel_storage;
  std::vector<const ir::Cdfg*> kernels;

  // flow
  core::FlowConfig config;

  // explore
  std::vector<partition::Strategy> strategies;
  std::vector<partition::Objective> objectives;
  std::size_t threads = 1;

  // cosim / fault-campaign
  ir::Cdfg kernel;
  sim::CosimConfig cosim;
  std::size_t samples = 8;
  std::uint64_t sample_seed = 7;

  // lint
  LintParams lint;
};

namespace {

/// Resolves a flow/explore specification (named workload or inline
/// serialized graph + kernels) into `prep`, mixing IR content hashes
/// into `key`. False + *error on any unresolvable piece.
bool prepare_spec(const std::string& workload, const std::string& graph_text,
                  const std::vector<std::string>& kernel_texts,
                  Dispatcher::Prepared* prep, KeyBuilder* key,
                  std::string* error) {
  if (!workload.empty() && !graph_text.empty()) {
    *error = "set either workload or graph, not both";
    return false;
  }
  if (workload.empty() && graph_text.empty()) {
    *error = "missing specification: set workload or graph";
    return false;
  }
  if (!workload.empty()) {
    if (!kernel_texts.empty()) {
      *error = "kernels cannot be combined with a named workload";
      return false;
    }
    if (workload == "dsp_chain") {
      apps::KernelBackedWorkload w = apps::dsp_chain_workload();
      prep->graph = std::move(w.graph);
      // Vector moves keep element addresses, so w.kernels stays valid.
      prep->kernel_storage = std::move(w.kernel_storage);
      prep->kernels = std::move(w.kernels);
    } else if (workload == "jpeg_pipeline") {
      prep->graph = apps::jpeg_pipeline_graph();
      prep->kernels.assign(prep->graph.num_tasks(), nullptr);
    } else {
      *error = "unknown workload '" + workload +
               "' (expected \"dsp_chain\" or \"jpeg_pipeline\")";
      return false;
    }
    key->text("workload");
    key->text(workload);
  } else {
    try {
      prep->graph = ir::task_graph_from_text(graph_text);
    } catch (const Error& e) {
      *error = std::string("graph: ") + e.what();
      return false;
    }
    if (kernel_texts.size() > prep->graph.num_tasks()) {
      *error = "more kernels (" + std::to_string(kernel_texts.size()) +
               ") than tasks (" + std::to_string(prep->graph.num_tasks()) + ")";
      return false;
    }
    prep->kernel_storage.reserve(kernel_texts.size());
    std::vector<std::size_t> slots(prep->graph.num_tasks(), SIZE_MAX);
    for (std::size_t i = 0; i < kernel_texts.size(); ++i) {
      const std::string& text = kernel_texts[i];
      if (text.empty()) continue;
      if (std::optional<ir::Cdfg> named = named_kernel(text)) {
        prep->kernel_storage.push_back(std::move(*named));
      } else {
        try {
          prep->kernel_storage.push_back(ir::cdfg_from_text(text));
        } catch (const Error& e) {
          *error = "kernels[" + std::to_string(i) + "]: " + e.what();
          return false;
        }
      }
      slots[i] = prep->kernel_storage.size() - 1;
    }
    prep->kernels.assign(prep->graph.num_tasks(), nullptr);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i] != SIZE_MAX) prep->kernels[i] = &prep->kernel_storage[slots[i]];
    }
    // Content-keyed: textual differences that parse to the same IR
    // (comments, whitespace, reordering-free edits) coalesce.
    key->text("graph");
    key->hash(fnv1a(ir::to_text(prep->graph)));
    for (std::size_t i = 0; i < prep->kernels.size(); ++i) {
      key->hash(prep->kernels[i] == nullptr
                    ? 0
                    : ir::content_hash(*prep->kernels[i]));
    }
  }
  return true;
}

bool prepare_flow(const FlowParams& p, Dispatcher::Prepared* prep,
                  std::string* error) {
  KeyBuilder key;
  key.text("flow");
  if (!prepare_spec(p.workload, p.graph, p.kernels, prep, &key, error)) {
    return false;
  }
  const std::optional<partition::Strategy> strategy =
      strategy_from_name(p.strategy);
  if (!strategy) {
    *error = "unknown strategy '" + p.strategy + "'";
    return false;
  }
  const std::optional<analysis::LintLevel> lint =
      lint_level_from_name(p.lint_level);
  if (!lint) {
    *error = "unknown lint_level '" + p.lint_level +
             "' (expected off, warn, or strict)";
    return false;
  }
  const std::optional<sim::InterfaceLevel> level =
      level_from_name(p.cosim_level);
  if (!level) {
    *error = "unknown cosim_level '" + p.cosim_level + "'";
    return false;
  }
  if (p.cosim_samples > 4096) {
    *error = "cosim_samples exceeds the per-request limit of 4096";
    return false;
  }
  prep->config = core::FlowConfig::defaults()
                     .with_strategy(*strategy)
                     .with_latency_target(p.latency_target)
                     .with_area_weight(p.area_weight)
                     .with_lint_level(*lint);
  prep->config.optimize_kernels = p.optimize_kernels;
  prep->config.validate_with_hls = p.validate_with_hls;
  prep->config.cosimulate = p.cosimulate;
  prep->config.cosim_level = *level;
  prep->config.cosim_samples = static_cast<std::size_t>(p.cosim_samples);
  prep->config.cosim_seed = p.cosim_seed;
  key.text(p.strategy);
  key.number(p.latency_target);
  key.number(p.area_weight);
  key.text(p.lint_level);
  key.text(p.optimize_kernels ? "opt" : "noopt");
  key.text(p.validate_with_hls ? "hls" : "nohls");
  key.text(p.cosimulate ? p.cosim_level : "nocosim");
  key.hash(p.cosim_samples);
  key.hash(p.cosim_seed);
  prep->key = key.finish();
  return true;
}

bool prepare_explore(const ExploreParams& p, Dispatcher::Prepared* prep,
                     std::string* error) {
  KeyBuilder key;
  key.text("explore");
  if (!prepare_spec(p.workload, p.graph, p.kernels, prep, &key, error)) {
    return false;
  }
  if (p.strategies.empty()) {
    prep->strategies.assign(std::begin(partition::kSearchStrategies),
                            std::end(partition::kSearchStrategies));
    key.text("search");
  } else {
    for (const std::string& name : p.strategies) {
      const std::optional<partition::Strategy> s = strategy_from_name(name);
      if (!s) {
        *error = "unknown strategy '" + name + "'";
        return false;
      }
      prep->strategies.push_back(*s);
      key.text(name);
    }
  }
  if (p.latency_targets.empty()) {
    *error = "latency_targets must not be empty";
    return false;
  }
  if (p.latency_targets.size() > 64) {
    *error = "latency_targets exceeds the per-request limit of 64";
    return false;
  }
  for (const double target : p.latency_targets) {
    partition::Objective objective;
    objective.latency_target = target;
    objective.area_weight = p.area_weight;
    prep->objectives.push_back(objective);
    key.number(target);
  }
  key.number(p.area_weight);
  // threads comes off the wire, and the sweep starts up to that many.
  if (p.threads > 64) {
    *error = "threads exceeds the per-request limit of 64";
    return false;
  }
  prep->threads = static_cast<std::size_t>(p.threads);
  // Deliberately NOT keyed: results are bit-identical at any thread
  // count, so requests differing only in threads coalesce.
  prep->key = key.finish();
  return true;
}

bool prepare_cosim(const CosimParams& p, bool campaign,
                   Dispatcher::Prepared* prep, std::string* error) {
  KeyBuilder key;
  key.text(campaign ? "fault-campaign" : "cosim");
  if (p.kernel.empty() == p.kernel_text.empty()) {
    *error = "set exactly one of kernel (a named kernel) or kernel_text";
    return false;
  }
  if (!p.kernel.empty()) {
    std::optional<ir::Cdfg> named = named_kernel(p.kernel);
    if (!named) {
      *error = "unknown kernel '" + p.kernel + "'";
      return false;
    }
    prep->kernel = std::move(*named);
  } else {
    try {
      prep->kernel = ir::cdfg_from_text(p.kernel_text);
    } catch (const Error& e) {
      *error = std::string("kernel_text: ") + e.what();
      return false;
    }
  }
  key.hash(ir::content_hash(prep->kernel));
  const std::optional<sim::InterfaceLevel> level = level_from_name(p.level);
  if (!level) {
    *error = "unknown level '" + p.level + "'";
    return false;
  }
  if (p.samples == 0 || p.samples > 4096) {
    *error = "samples must be in 1..4096";
    return false;
  }
  prep->cosim.level = *level;
  prep->cosim.use_irq = p.use_irq;
  prep->samples = static_cast<std::size_t>(p.samples);
  prep->sample_seed = p.seed;
  key.text(p.level);
  key.hash(p.samples);
  key.hash(p.seed);
  key.text(p.use_irq ? "irq" : "poll");
  if (campaign) {
    if (p.faults.empty()) {
      *error = "fault-campaign requires at least one fault spec";
      return false;
    }
    for (const FaultSpecParams& spec : p.faults) {
      const std::optional<fault::FaultKind> kind =
          fault_kind_from_name(spec.kind);
      if (!kind) {
        *error = "unknown fault kind '" + spec.kind + "'";
        return false;
      }
      if (spec.rate < 0.0 || spec.rate > 1.0) {
        *error = "fault rate must be in [0, 1]";
        return false;
      }
      fault::FaultSpec fs;
      fs.kind = *kind;
      fs.rate = spec.rate;
      fs.param = spec.param;
      fs.max_count = spec.max_count;
      prep->cosim.fault_plan.add(fs);
      key.text(spec.kind);
      key.number(spec.rate);
      key.hash(spec.param);
      key.hash(spec.max_count);
    }
    prep->cosim.fault_seed = p.fault_seed;
    key.hash(p.fault_seed);
  } else if (!p.faults.empty()) {
    *error = "faults are only accepted by /v1/fault-campaign";
    return false;
  }
  prep->key = key.finish();
  return true;
}

bool prepare_lint(const LintParams& p, Dispatcher::Prepared* prep,
                  std::string* error) {
  if (p.artifacts.empty()) {
    *error = "artifacts must not be empty";
    return false;
  }
  if (p.artifacts.size() > 256) {
    *error = "artifacts exceeds the per-request limit of 256";
    return false;
  }
  KeyBuilder key;
  key.text("lint");
  key.text(p.strict ? "strict" : "lenient");
  key.text(p.ranges ? "ranges" : "noranges");
  for (const std::string& text : p.artifacts) key.hash(fnv1a(text));
  prep->lint = p;
  prep->key = key.finish();
  return true;
}

/// The structural check every kernel a request carries passes before any
/// library layer runs: ir::cdfg_from_text checks neither operand ids nor
/// arity, and the optimizer, absint, the compiler and HLS all assume
/// both. The serializer round trip (CDFG010) is /v1/lint's. Returns the
/// 400 message, or "" when every kernel is sound.
std::string unsound_kernel(const Dispatcher::Prepared& prep) {
  const auto check = [](const ir::Cdfg& kernel) {
    const analysis::Diagnostics diags = analysis::verify_cdfg(kernel);
    return diags.has_errors() ? "kernel failed verification: " + diags.str()
                              : std::string();
  };
  if (prep.endpoint == Endpoint::kCosim ||
      prep.endpoint == Endpoint::kFaultCampaign) {
    return check(prep.kernel);
  }
  for (std::size_t i = 0; i < prep.kernels.size(); ++i) {
    if (prep.kernels[i] == nullptr) continue;
    const std::string error = check(*prep.kernels[i]);
    if (!error.empty()) return "kernels[" + std::to_string(i) + "]: " + error;
  }
  return "";
}

}  // namespace

// -------------------------------------------------------------- Dispatcher

Dispatcher::Dispatcher() : results_(kResultCacheShards) {}

std::string Dispatcher::metrics_json() const {
  // Both halves render the process-wide registry every request merges
  // into (obs::registry() would be this metrics request's own): the svc
  // block repeats its svc.* counters, and the obs block is obs's own
  // summary_json.
  const obs::Summary summary = global_summary();
  const auto counter = [&summary](std::string_view name) {
    for (const obs::CounterStat& c : summary.counters) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };
  std::string out = obs::json_render(Object{
      {"svc", Object{{"requests", counter("svc.requests")},
                     {"evaluations", counter("svc.evaluations")},
                     {"coalesced", counter("svc.coalesced")},
                     {"cache_hits", counter("svc.cache.hits")},
                     {"errors", counter("svc.errors")},
                     {"result_cache_size", results_.size()}}}});
  // Splice: summary_json's times use obs's fixed 3-decimal format, the
  // same as the Chrome trace's.
  out.pop_back();
  return out + ",\"obs\":" + obs::summary_json(summary) + '}';
}

std::string Dispatcher::metrics_prometheus() const {
  return obs::summary_prometheus(global_summary()) +
         "# TYPE mhs_svc_result_cache_size gauge\n"
         "mhs_svc_result_cache_size " +
         std::to_string(results_.size()) + "\n";
}

Dispatcher::Evaluation Dispatcher::evaluate(const Prepared& prep) {
  Evaluation out;
  Response& resp = out.response;
  resp.endpoint = endpoint_name(prep.endpoint);
  if (std::string error = unsound_kernel(prep); !error.empty()) {
    return {Response::failure(400, resp.endpoint, std::move(error))};
  }
  try {
    switch (prep.endpoint) {
      case Endpoint::kFlow: {
        const core::FlowReport report =
            core::run_codesign_flow(prep.graph, prep.kernels, prep.config);
        resp.result_json =
            obs::json_render(flow_result(report, prep.config.cosim_samples));
        if (report.cosim.has_value()) out.profile = report.cosim->profile;
        return out;
      }
      case Endpoint::kExplore: {
        core::Explorer::Options options;
        options.num_threads = prep.threads;
        core::Explorer explorer(prep.graph, prep.kernels, options);
        const core::ExploreReport report = explorer.sweep(
            {core::FlowConfig::defaults().without_cosim()}, prep.strategies,
            prep.objectives);
        resp.result_json = obs::json_render(
            explore_result(report, prep.strategies, prep.objectives));
        return out;
      }
      case Endpoint::kCosim:
      case Endpoint::kFaultCampaign: {
        hw::HlsConstraints constraints;
        constraints.goal = hw::HlsGoal::kMinArea;
        // The result's Schedule keeps a pointer to the library, so it
        // must outlive the co-simulation below — never a temporary.
        const hw::ComponentLibrary library = hw::default_library();
        const hw::HlsResult impl =
            hw::synthesize(prep.kernel, library, constraints);
        // The same sample recipe as core::flow's cosim phase, so a
        // service run reproduces a library run exactly.
        const std::vector<std::vector<std::int64_t>> samples =
            core::cosim_samples(prep.kernel, prep.samples, prep.sample_seed);
        sim::SimRequest sreq;
        sreq.impl = &impl;
        sreq.samples = &samples;
        sreq.cosim = prep.cosim;
        const sim::CosimReport report = std::move(sim::run(sreq).cosim).value();
        resp.result_json = obs::json_render(cosim_result(report, prep.samples));
        out.profile = report.profile;
        return out;
      }
      case Endpoint::kLint: {
        analysis::Diagnostics diags;
        for (std::size_t i = 0; i < prep.lint.artifacts.size(); ++i) {
          std::string artifact_error;
          if (!analyze_artifact(prep.lint.artifacts[i], &diags,
                                &artifact_error, prep.lint.ranges)) {
            return {Response::failure(
                400, resp.endpoint,
                "artifacts[" + std::to_string(i) + "]: " + artifact_error)};
          }
        }
        resp.result_json = obs::json_render(lint_result(prep.lint, diags));
        return out;
      }
      case Endpoint::kHealth:
        resp.result_json = obs::json_render(health_result());
        return out;
      case Endpoint::kMetrics:
        resp.result_json = metrics_json();
        return out;
    }
    return {Response::failure(500, resp.endpoint, "unhandled endpoint")};
  } catch (const analysis::VerifyFailure& e) {
    return {Response::failure(400, resp.endpoint, e.what())};
  } catch (const Error& e) {
    return {Response::failure(400, resp.endpoint, e.what())};
  } catch (const std::exception& e) {
    return {Response::failure(500, resp.endpoint, e.what())};
  }
}

Response Dispatcher::handle(const Request& request) {
  return handle(request, obs::TraceContext{}, nullptr);
}

Response Dispatcher::handle(const Request& request,
                            const obs::TraceContext& trace,
                            RequestOutcome* outcome) {
  // The request's scope: everything below, library layers included,
  // records into the request's own sink.
  const obs::ScopedSink scope(trace.sink);
  obs::count("svc.requests");

  // Every traced request gets the root "svc" span — cache hits and
  // coalesced followers included, so their traces show the (short)
  // lookup instead of coming back empty.
  obs::Span root(trace.sink, endpoint_name(request.endpoint), "svc");

  // kHealth and kMetrics bypass the caches: they are cheap and their
  // answers change between calls.
  if (request.endpoint == Endpoint::kHealth ||
      request.endpoint == Endpoint::kMetrics) {
    Prepared prep;
    prep.endpoint = request.endpoint;
    return evaluate(prep).response;
  }

  Prepared prep;
  prep.endpoint = request.endpoint;
  std::string error;
  bool prepared = false;
  switch (request.endpoint) {
    case Endpoint::kFlow:
      prepared = prepare_flow(request.flow, &prep, &error);
      break;
    case Endpoint::kExplore:
      prepared = prepare_explore(request.explore, &prep, &error);
      break;
    case Endpoint::kCosim:
      prepared =
          prepare_cosim(request.cosim, /*campaign=*/false, &prep, &error);
      break;
    case Endpoint::kFaultCampaign:
      prepared =
          prepare_cosim(request.cosim, /*campaign=*/true, &prep, &error);
      break;
    case Endpoint::kLint:
      prepared = prepare_lint(request.lint, &prep, &error);
      break;
    case Endpoint::kHealth:
    case Endpoint::kMetrics:
      break;
  }
  if (!prepared) {
    obs::count("svc.errors");
    return Response::failure(400, endpoint_name(request.endpoint),
                             std::move(error));
  }

  // However the request is satisfied, its recorder facts are a copy of
  // the evaluation's own profile, and a failed evaluation counts as an
  // error for the leader and for every rider.
  const auto answer = [outcome](const Evaluation& e) {
    if (!e.response.ok()) obs::count("svc.errors");
    if (outcome != nullptr) outcome->profile = e.profile;
    return e.response;
  };

  std::shared_ptr<const Evaluation> cached;
  if (results_.lookup(prep.key, &cached)) {
    obs::count("svc.cache.hits");
    root.arg("cache_hit", "true");
    if (outcome != nullptr) outcome->cache_hit = true;
    return answer(*cached);
  }

  // Coalesce: the first arrival of a key evaluates; concurrent
  // duplicates wait on the leader's InFlight and share its result.
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto [it, inserted] =
        in_flight_.try_emplace(prep.key, std::make_shared<InFlight>());
    flight = it->second;
    leader = inserted;
  }
  if (!leader) {
    obs::count("svc.coalesced");
    root.arg("coalesced", "true");
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    flight->cv.wait(lock, [&flight] { return flight->done; });
    if (outcome != nullptr) outcome->coalesced = true;
    return answer(*flight->result);
  }

  obs::count("svc.evaluations");
  auto shared = std::make_shared<const Evaluation>(evaluate(prep));
  // Only successes are cached: a failed evaluation should be retryable.
  if (shared->response.ok()) {
    results_.get_or_compute(prep.key, [&shared] { return shared; });
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    flight->result = shared;
    flight->done = true;
    in_flight_.erase(prep.key);
  }
  flight->cv.notify_all();
  return answer(*shared);
}

Dispatcher& default_dispatcher() {
  static Dispatcher dispatcher;
  return dispatcher;
}

Response run(const Request& request) {
  return default_dispatcher().handle(request);
}

}  // namespace mhs::svc
