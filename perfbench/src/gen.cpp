#include "gen.h"

#include <algorithm>
#include <utility>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "ir/serialize.h"
#include "ir/task_graph_gen.h"

namespace mhsbench {

namespace mhs_ir = mhs::ir;
using mhs::Rng;

namespace {

struct Family {
  const char* name;
  std::vector<std::size_t> params;  ///< empty = one fixed body
};

const std::vector<Family>& families() {
  static const std::vector<Family> kFamilies = {
      {"fir", {4, 8, 12, 16}}, {"xtea", {2, 4, 8}},
      {"checksum", {4, 8, 16}}, {"sad", {4, 8}},
      {"matmul", {2, 3}},      {"quantize", {4, 8}},
      {"dct8", {}},            {"median5", {}},
      {"sobel3", {}},          {"iir", {}},
  };
  return kFamilies;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Share of generated tasks that carry no kernel (annotation-only costs,
/// like dsp_chain's acquire and report stages).
constexpr double kAnnotationOnlyShare = 0.15;

}  // namespace

mhs_ir::Cdfg KernelSpec::build() const {
  namespace apps = mhs::apps;
  if (family == "fir") return apps::fir_kernel(param);
  if (family == "xtea") return apps::xtea_kernel(param);
  if (family == "checksum") return apps::checksum_kernel(param);
  if (family == "sad") return apps::sad_kernel(param);
  if (family == "matmul") return apps::matmul_kernel(param);
  if (family == "quantize") return apps::quantize_kernel(param);
  if (family == "dct8") return apps::dct8_kernel();
  if (family == "median5") return apps::median5_kernel();
  if (family == "sobel3") return apps::sobel3_kernel();
  return apps::iir_biquad_kernel();
}

KernelSpec draw_kernel(Rng& rng) {
  const Family& f = families()[pick(rng, families().size())];
  KernelSpec spec;
  spec.family = f.name;
  if (!f.params.empty()) spec.param = f.params[pick(rng, f.params.size())];
  return spec;
}

Spec generate_spec(Rng& rng, std::size_t tasks, const std::string& name,
                   bool any_shape) {
  mhs_ir::TaskGraphGenConfig config;
  constexpr mhs_ir::GraphShape kShapes[] = {mhs_ir::GraphShape::kLayered,
                                            mhs_ir::GraphShape::kPipeline,
                                            mhs_ir::GraphShape::kForkJoin};
  config.shape = any_shape ? kShapes[pick(rng, 3)] : kShapes[0];
  config.num_tasks = tasks;
  config.width = 3.0;
  Spec spec;
  spec.name = name;
  spec.graph = mhs_ir::generate_task_graph(config, rng);
  spec.graph.set_name(name);
  const std::size_t n = spec.graph.num_tasks();
  spec.storage.reserve(n);
  std::vector<bool> backed(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(kAnnotationOnlyShare)) continue;
    spec.storage.push_back(draw_kernel(rng).build());
    backed[i] = true;
  }
  spec.kernels.assign(n, nullptr);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (backed[i]) spec.kernels[i] = &spec.storage[next++];
  }
  return spec;
}

Spec dsp_chain_spec() {
  mhs::apps::KernelBackedWorkload w = mhs::apps::dsp_chain_workload();
  Spec spec;
  spec.name = "dsp_chain";
  spec.graph = std::move(w.graph);
  // Moving the vector keeps its buffer, so the kernel pointers stay valid.
  spec.storage = std::move(w.kernel_storage);
  spec.kernels = std::move(w.kernels);
  return spec;
}

OpStream make_stream(Rng& rng, std::size_t ops, double repeat_p) {
  OpStream s;
  s.input.reserve(ops);
  s.first.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    if (s.distinct > 0 && rng.bernoulli(repeat_p)) {
      s.input.push_back(pick(rng, s.distinct));
      s.first.push_back(false);
    } else {
      s.input.push_back(s.distinct++);
      s.first.push_back(true);
    }
  }
  return s;
}

Sweep make_sweep(const Spec& spec) {
  Sweep sweep;
  const mhs::core::FlowConfig base =
      mhs::core::FlowConfig::defaults().without_cosim();
  // The second variant prices the HW/SW boundary on a slower bus: same
  // kernels, same estimator environment, so its annotation reuses every
  // per-kernel estimate of the first.
  mhs::partition::CommModel slow_bus;
  slow_bus.cross_overhead_cycles = 64.0;
  slow_bus.cross_bytes_per_cycle = 2.0;
  sweep.configs = {base, base.with_comm(slow_bus)};

  // Latency targets scaled to the spec: a rough all-software latency of
  // two cycles per kernel op (annotation-only tasks count 100 ops).
  double scale = 0.0;
  for (const mhs_ir::Cdfg* kernel : spec.kernels) {
    scale += 2.0 * static_cast<double>(kernel ? kernel->num_ops() : 100);
  }
  for (const double fraction : {0.3, 0.45, 0.6, 0.8}) {
    for (const double area_weight : {0.02, 0.1}) {
      mhs::partition::Objective objective;
      objective.latency_target = fraction * scale;
      objective.area_weight = area_weight;
      sweep.objectives.push_back(objective);
    }
  }
  sweep.strategies.assign(std::begin(mhs::partition::kSearchStrategies),
                          std::end(mhs::partition::kSearchStrategies));
  return sweep;
}

void spec_to_wire(const Spec& spec, std::string* graph,
                  std::vector<std::string>* kernels) {
  *graph = mhs_ir::to_text(spec.graph);
  kernels->clear();
  for (const mhs_ir::Cdfg* kernel : spec.kernels) {
    kernels->push_back(kernel ? mhs_ir::to_text(*kernel) : std::string());
  }
}

Spec spec_from_wire(const std::string& graph,
                    const std::vector<std::string>& kernels) {
  Spec spec;
  spec.graph = mhs_ir::task_graph_from_text(graph);
  spec.name = spec.graph.name();
  spec.storage.reserve(kernels.size());
  spec.kernels.assign(kernels.size(), nullptr);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    if (kernels[i].empty()) continue;
    spec.storage.push_back(mhs_ir::cdfg_from_text(kernels[i]));
    spec.kernels[i] = &spec.storage.back();
  }
  return spec;
}

ServeRequest generate_request(Rng& rng, std::size_t serial) {
  namespace svc = mhs::svc;
  svc::Request req;
  const std::string name = "req" + std::to_string(serial);
  // The endpoint shares are an assumption, not measured traffic: cosim
  // (the sim engine) is the most common request, flow (HLS) and lint
  // (analysis) share most of the rest, and explore (a 5-point partition
  // search) is the rarest.
  switch (rng.weighted_index({0.40, 0.25, 0.25, 0.10})) {
    case 0: {
      req.endpoint = svc::Endpoint::kCosim;
      req.cosim.kernel_text = mhs_ir::to_text(draw_kernel(rng).build());
      req.cosim.samples = 256;
      // Wire numbers are JSON doubles: keep the seed exactly representable.
      req.cosim.seed = rng.next() >> 32;
      break;
    }
    case 1: {
      req.endpoint = svc::Endpoint::kFlow;
      const Spec spec = generate_spec(
          rng, static_cast<std::size_t>(rng.uniform_int(4, 8)), name);
      spec_to_wire(spec, &req.flow.graph, &req.flow.kernels);
      req.flow.strategy = rng.bernoulli(0.5) ? "kl" : "gclp";
      req.flow.cosimulate = rng.bernoulli(0.5);
      break;
    }
    case 2: {
      req.endpoint = svc::Endpoint::kLint;
      const Spec spec = generate_spec(
          rng, static_cast<std::size_t>(rng.uniform_int(3, 6)), name);
      std::string graph;
      std::vector<std::string> kernels;
      spec_to_wire(spec, &graph, &kernels);
      req.lint.artifacts.push_back(graph);
      for (std::string& k : kernels) {
        if (!k.empty()) req.lint.artifacts.push_back(std::move(k));
      }
      req.lint.strict = rng.bernoulli(0.5);
      req.lint.ranges = rng.bernoulli(0.5);
      break;
    }
    default: {
      req.endpoint = svc::Endpoint::kExplore;
      const Spec spec = generate_spec(
          rng, static_cast<std::size_t>(rng.uniform_int(5, 7)), name);
      spec_to_wire(spec, &req.explore.graph, &req.explore.kernels);
      for (const mhs::partition::Strategy s :
           mhs::partition::kSearchStrategies) {
        req.explore.strategies.push_back(mhs::partition::strategy_name(s));
      }
      // One objective, with the latency target hot-spot and unload need.
      req.explore.latency_targets = {
          make_sweep(spec).objectives[4].latency_target};
      req.explore.threads = 1;
      break;
    }
  }
  return ServeRequest{req.json(), svc::endpoint_path(req.endpoint)};
}

}  // namespace mhsbench
