#include "sim/system_cosim.h"

#include <algorithm>
#include <cmath>

#include "ir/task_graph_algos.h"
#include "sim/levels.h"

namespace mhs::sim {

namespace {

/// The event-driven engine. Tasks fire when their predecessors' data has
/// arrived; software tasks wait for the CPU; cross-boundary transfers
/// wait for the bus.
class SystemCosim {
 public:
  SystemCosim(const ir::TaskGraph& graph, const partition::Mapping& mapping,
              const SystemCosimConfig& config)
      : graph_(graph), mapping_(mapping), config_(config) {
    MHS_CHECK(mapping.size() == graph.num_tasks(),
              "mapping/task-count mismatch");
    graph.validate();
    const std::size_t n = graph.num_tasks();
    preds_left_.assign(n, 0);
    ready_time_.assign(n, 0.0);
    result_.start.assign(n, 0.0);
    result_.finish.assign(n, 0.0);
    done_.assign(n, false);
    for (const ir::EdgeId e : graph.edge_ids()) {
      ++preds_left_[graph.edge(e).dst.index()];
    }
    // Dispatch priority: b-level under mapped delays (same as the static
    // model uses, so ordering differences come from dynamics alone).
    priority_ = ir::b_levels(
        graph,
        [&](ir::TaskId t) {
          return mapping[t.index()] ? graph.task(t).costs.hw_cycles
                                    : graph.task(t).costs.sw_cycles;
        },
        ir::zero_edge_delay());
  }

  SystemCosimResult run() {
    for (const ir::TaskId t : graph_.task_ids()) {
      if (preds_left_[t.index()] == 0) mark_ready(t);
    }
    dispatch_cpu();
    sim_.run();
    MHS_ASSERT(std::all_of(done_.begin(), done_.end(),
                           [](bool b) { return b; }),
               "system cosim finished with unexecuted tasks");
    result_.makespan = static_cast<double>(sim_.now());
    result_.sim_events = sim_.events_processed();
    return result_;
  }

 private:
  static Time to_time(double v) {
    return static_cast<Time>(std::llround(std::max(0.0, v)));
  }

  void mark_ready(ir::TaskId t) {
    if (mapping_[t.index()]) {
      // Hardware: start as soon as the data is there.
      start_task(t, std::max(ready_time_[t.index()],
                             static_cast<double>(sim_.now())));
    } else {
      sw_ready_.push_back(t);
      dispatch_cpu();
    }
  }

  void dispatch_cpu() {
    if (cpu_busy_flag_ || sw_ready_.empty()) return;
    // Highest priority among tasks whose data has arrived; if none has
    // arrived yet, wake up when the earliest one does.
    const double now = static_cast<double>(sim_.now());
    ir::TaskId best = ir::TaskId::invalid();
    for (const ir::TaskId t : sw_ready_) {
      if (ready_time_[t.index()] > now + 1e-9) continue;
      if (!best.valid() ||
          priority_[t.index()] > priority_[best.index()]) {
        best = t;
      }
    }
    if (!best.valid()) {
      double earliest = 1e300;
      for (const ir::TaskId t : sw_ready_) {
        earliest = std::min(earliest, ready_time_[t.index()]);
      }
      // Wake strictly after `earliest` so the dispatch test passes then;
      // rounding down would respin at the same timestamp forever.
      Time wake = static_cast<Time>(std::ceil(earliest - 1e-9));
      if (static_cast<double>(wake) <= now + 1e-9) {
        wake = sim_.now() + 1;
      }
      sim_.schedule_at(std::max(wake, sim_.now()),
                       [this] { dispatch_cpu(); });
      return;
    }
    sw_ready_.erase(std::find(sw_ready_.begin(), sw_ready_.end(), best));
    cpu_busy_flag_ = true;
    result_.cpu_busy += graph_.task(best).costs.sw_cycles;
    start_task(best, now);
  }

  void start_task(ir::TaskId t, double start) {
    const double duration = mapping_[t.index()]
                                ? graph_.task(t).costs.hw_cycles
                                : graph_.task(t).costs.sw_cycles;
    result_.start[t.index()] = start;
    const double finish = start + duration;
    result_.finish[t.index()] = finish;
    const bool sw = !mapping_[t.index()];
    sim_.schedule_at(to_time(finish), [this, t, sw] {
      done_[t.index()] = true;
      if (sw) {
        cpu_busy_flag_ = false;
      }
      propagate(t);
      if (sw) dispatch_cpu();
    });
  }

  void propagate(ir::TaskId t) {
    const double finish = result_.finish[t.index()];
    for (const ir::EdgeId e : graph_.out_edges(t)) {
      const ir::Edge& edge = graph_.edge(e);
      const bool src_hw = mapping_[edge.src.index()];
      const bool dst_hw = mapping_[edge.dst.index()];
      double arrival = finish;
      if (src_hw != dst_hw) {
        // Cross-boundary: serialize on the single bus.
        const double cost = config_.comm.cross_overhead_cycles +
                            edge.bytes /
                                config_.comm.cross_bytes_per_cycle;
        const double granted = std::max(finish, bus_free_);
        result_.bus_wait += granted - finish;
        bus_free_ = granted + cost;
        result_.bus_busy += cost;
        arrival = bus_free_;
      } else if (src_hw) {
        arrival = finish + config_.comm.hwhw_overhead_cycles +
                  edge.bytes / config_.comm.hwhw_bytes_per_cycle;
      }
      const ir::TaskId dst = edge.dst;
      ready_time_[dst.index()] =
          std::max(ready_time_[dst.index()], arrival);
      if (--preds_left_[dst.index()] == 0) {
        sim_.schedule_at(
            std::max(to_time(ready_time_[dst.index()]), sim_.now()),
            [this, dst] { mark_ready(dst); });
      }
    }
  }

  const ir::TaskGraph& graph_;
  const partition::Mapping& mapping_;
  const SystemCosimConfig& config_;

  Simulator sim_;
  std::vector<std::size_t> preds_left_;
  std::vector<double> ready_time_;
  std::vector<double> priority_;
  std::vector<bool> done_;
  std::vector<ir::TaskId> sw_ready_;
  bool cpu_busy_flag_ = false;
  double bus_free_ = 0.0;
  SystemCosimResult result_;
};

}  // namespace

SystemCosimResult detail::run_system_cosim(const ir::TaskGraph& graph,
                                           const partition::Mapping& mapping,
                                           const SystemCosimConfig& config) {
  SystemCosim engine(graph, mapping, config);
  return engine.run();
}

}  // namespace mhs::sim
