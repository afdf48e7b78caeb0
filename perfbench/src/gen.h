// The benchmark's one seeded input generator. Every workload draws its
// inputs here, from the seed alone:
//
//   * a parametric kernel family — fir(taps), xtea(rounds),
//     checksum(words), sad(n), matmul(n), quantize(n), dct8, median5,
//     sobel3, iir — small enough that bodies repeat within a spec and
//     across specs;
//   * kernel-backed task-graph specs (ir::generate_task_graph plus one
//     family kernel per task);
//   * the serve request mix (cosim / flow / lint / explore requests);
//   * op streams in which about half of the ops repeat an earlier op's
//     input, so every workload has repeated ("hit") and first-seen
//     ("miss") ops.
//
// The program under test only ever sees the generated values.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/flow.h"
#include "ir/cdfg.h"
#include "ir/task_graph.h"
#include "partition/algorithms.h"
#include "svc/api.h"

namespace mhsbench {

/// One member of the parametric kernel family.
struct KernelSpec {
  std::string family;
  std::size_t param = 0;  ///< taps / rounds / words / n (0 = fixed body)
  mhs::ir::Cdfg build() const;
};

/// Draws a family member uniformly (family first, then its parameter).
KernelSpec draw_kernel(mhs::Rng& rng);

/// A task graph whose tasks carry behavioural kernels. Move-only: the
/// kernel pointers index into `storage`, whose buffer a move keeps.
struct Spec {
  std::string name;
  mhs::ir::TaskGraph graph;
  std::vector<mhs::ir::Cdfg> storage;
  std::vector<const mhs::ir::Cdfg*> kernels;  ///< parallel to tasks

  Spec() = default;
  Spec(Spec&&) = default;
  Spec& operator=(Spec&&) = default;
  Spec(const Spec&) = delete;
  Spec& operator=(const Spec&) = delete;
};

/// A generated spec of `tasks` tasks, about 85% of them backed by a
/// family kernel (the rest keep annotation-only costs, as in dsp_chain).
/// The shape is layered, or drawn from layered / pipeline / fork-join
/// when `any_shape` is set.
Spec generate_spec(mhs::Rng& rng, std::size_t tasks, const std::string& name,
                   bool any_shape = true);

/// The in-tree dsp_chain workload as a Spec.
Spec dsp_chain_spec();

/// A stream of op inputs: entry i names the distinct input op i uses.
/// With probability `repeat_p` an op repeats a uniformly chosen earlier
/// distinct input, otherwise it takes the next fresh one. Op 0 is always
/// fresh. `first` marks the ops that see their input for the first time.
struct OpStream {
  std::vector<std::size_t> input;
  std::vector<bool> first;
  std::size_t distinct = 0;
};
OpStream make_stream(mhs::Rng& rng, std::size_t ops, double repeat_p);

/// The explore workload's sweep definition over one spec: 2 flow
/// variants × 8 objectives × 5 search strategies.
struct Sweep {
  std::vector<mhs::core::FlowConfig> configs;
  std::vector<mhs::partition::Objective> objectives;
  std::vector<mhs::partition::Strategy> strategies;
  std::size_t points() const {
    return configs.size() * objectives.size() * strategies.size();
  }
};
/// Objectives carry latency targets scaled to the spec's size (every
/// search strategy, hot-spot and unload included, needs one).
Sweep make_sweep(const Spec& spec);

/// One serve request as it travels: its canonical body (Request::json())
/// and the endpoint path it is posted to.
struct ServeRequest {
  std::string body;
  const char* path = "";
};

/// A fresh request of the serve mix: /v1/cosim (256 samples, family
/// kernel, random seed) 40%; /v1/flow (inline 4–8 task spec, kl or gclp,
/// cosim on for half) 25%; /v1/lint (a 3–6 task spec's graph and
/// kernels) 25%; /v1/explore (inline 5–7 task spec, the five search
/// strategies, one objective, 1 thread) 10%.
ServeRequest generate_request(mhs::Rng& rng, std::size_t serial);

/// Serializes a spec's graph and kernels into FlowParams-shaped fields.
void spec_to_wire(const Spec& spec, std::string* graph,
                  std::vector<std::string>* kernels);

/// Rebuilds a Spec from its wire form (graph text + kernel texts).
Spec spec_from_wire(const std::string& graph,
                    const std::vector<std::string>& kernels);

}  // namespace mhsbench
