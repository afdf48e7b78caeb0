// The three workloads and the pieces the untraced runs and the traced
// replay share.
//
//   flow    — closed loop, one caller; each op is one default
//             core::run_codesign_flow (HLS validation, verify_hls = 4,
//             register-level cosim).
//   explore — closed loop, one caller; each op is one 80-point sweep on a
//             fresh 4-thread core::Explorer over a ~32-task spec.
//   serve   — an in-process svc::Server with 2 workers, driven over
//             loopback by 2 keep-alive clients in a closed loop.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "core/explorer.h"
#include "core/flow.h"
#include "gen.h"
#include "measure.h"

namespace mhsbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Untraced runs: every end-to-end metric.
Result run_flow(const Args& args);
Result run_explore(const Args& args);
Result run_serve(const Args& args);

/// Traced runs (replay.cpp): every per-layer metric.
Result trace_workload(const Args& args);

// ----------------------------------------------------------- shared parts

/// Distinct explore specs per run whose 4-thread frontier is checked
/// against a 1-thread sweep (the first ones in stream order).
inline constexpr std::size_t kExploreOracleSpecs = 8;
/// Explorer threads of the explore workload.
inline constexpr std::size_t kExploreThreads = 4;
/// Task count of an explore spec.
inline constexpr std::size_t kExploreTasks = 32;
/// Setup repetitions (setup_s is their median).
inline constexpr int kSetupReps = 61;

/// Per-workload seed salts, so the workloads draw unrelated streams from
/// one --seed.
inline constexpr std::uint64_t kFlowSalt = 0xf10f10f1ull;
inline constexpr std::uint64_t kExploreSalt = 0xe8e8e8e8ull;
inline constexpr std::uint64_t kServeSalt = 0x5e5e5e5eull;

/// A stream's distinct spec inputs. Input k is generated from its own
/// rng, seeded from (seed, k), each time it is asked for: the same seed
/// always yields the same inputs, and the benchmark's memory does not
/// grow with the number of ops a run completes.
class SpecSource {
 public:
  /// `first_dsp_chain`: distinct input 0 is dsp_chain (the flow stream).
  SpecSource(std::uint64_t seed, std::size_t min_tasks, std::size_t max_tasks,
             bool any_shape, bool first_dsp_chain)
      : seed_(seed),
        min_tasks_(min_tasks),
        max_tasks_(max_tasks),
        any_shape_(any_shape),
        first_dsp_chain_(first_dsp_chain) {}
  Spec get(std::size_t k) const;

 private:
  std::uint64_t seed_;
  std::size_t min_tasks_;
  std::size_t max_tasks_;
  bool any_shape_;
  bool first_dsp_chain_;
};

/// One serve client's traffic: its op stream, and its distinct requests
/// generated in order on first use. The stream and the requests draw
/// from separate rngs, so any prefix of either is the same whatever
/// length is asked for.
class RequestPool {
 public:
  RequestPool(std::uint64_t seed, std::size_t client);
  OpStream stream(std::size_t ops);
  const ServeRequest& get(std::size_t k);

 private:
  std::uint64_t seed_;
  mhs::Rng rng_;
  std::size_t client_;
  std::deque<ServeRequest> fresh_;  ///< deque: references stay valid
};

/// The flow workload's output checks: the cosim checksum equals an
/// independent ir::Cdfg::evaluate sum over the same samples (on the
/// unoptimized kernel) and the equivalence gate compared verify_hls
/// vectors. Empty when the report passes, else the reason.
std::string check_flow_report(const Spec& spec,
                              const mhs::core::FlowReport& report,
                              const mhs::core::FlowConfig& config);

/// One sweep of `sweep` over `spec` on a fresh Explorer.
mhs::core::ExploreReport run_sweep(const Spec& spec, const Sweep& sweep,
                                   std::size_t threads);

/// The frontier as text (index, strategy, variant, metrics, mapping of
/// every frontier point); equal strings mean equal frontiers. Empty when
/// any point failed.
std::string frontier_signature(const mhs::core::ExploreReport& report);

/// Seconds of a setup step (construction plus warm-up) as the median of
/// kSetupReps repetitions. `fn` returns an object whose destruction (the
/// teardown) happens outside the timed part.
template <typename F>
double median_setup_s(F&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < kSetupReps; ++r) {
    const double start = now_ms();
    auto state = fn();
    reps.push_back((now_ms() - start) / 1000.0);
  }
  return median(std::move(reps));
}

}  // namespace mhsbench
