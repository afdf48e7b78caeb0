#include "sim/os_cosim.h"

#include <cmath>
#include <deque>

#include "sim/levels.h"

namespace mhs::sim {

namespace {

/// The engine behind run_message_cosim. One instance per run; actors are
/// cooperative state machines driven by simulator events.
class OsCosim {
 public:
  OsCosim(const ir::ProcessNetwork& net, const std::vector<bool>& in_hw,
          const OsCosimConfig& config)
      : net_(net), in_hw_(in_hw), config_(config) {
    MHS_CHECK(in_hw.size() == net.num_processes(),
              "mapping size " << in_hw.size() << " != process count "
                              << net.num_processes());
    net.validate();
    const std::size_t n = net.num_processes();
    actors_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      actors_[i].id = ir::ProcessId(static_cast<std::uint32_t>(i));
    }
    fifo_fill_.assign(net.num_channels(), 0);
    blocked_on_data_.assign(net.num_channels(), kNoActor);
    blocked_on_space_.assign(net.num_channels(), kNoActor);
    result_.channel_messages.assign(net.num_channels(), 0);
  }

  OsCosimResult run() {
    for (std::size_t i = 0; i < actors_.size(); ++i) advance(i);
    sim_.run();
    result_.makespan = static_cast<double>(sim_.now());
    result_.sim_events = sim_.events_processed();
    for (const Actor& a : actors_) {
      if (!a.done) result_.deadlocked = true;
    }
    return result_;
  }

 private:
  static constexpr std::size_t kNoActor = SIZE_MAX;

  enum class Phase { kCompute, kOps };

  struct Actor {
    ir::ProcessId id;
    Phase phase = Phase::kCompute;
    std::size_t iter = 0;
    std::size_t op_idx = 0;
    bool busy = false;
    bool done = false;
  };

  bool is_hw(std::size_t ai) const { return in_hw_[ai]; }

  double transfer_cost(const ir::Channel& ch, double bytes) const {
    const bool prod_hw = in_hw_[ch.producer.index()];
    const bool cons_hw = in_hw_[ch.consumer.index()];
    double overhead, bw;
    if (prod_hw != cons_hw) {
      overhead = config_.cross_overhead_cycles;
      bw = config_.cross_bytes_per_cycle;
    } else if (prod_hw) {
      overhead = config_.hwhw_overhead_cycles;
      bw = config_.hwhw_bytes_per_cycle;
    } else {
      overhead = config_.swsw_overhead_cycles;
      bw = config_.swsw_bytes_per_cycle;
    }
    return overhead + bytes / bw;
  }

  /// Charges `cycles` of work to actor `ai` and runs `done` afterwards.
  /// SW actors contend for the single CPU; HW actors run immediately.
  void charge(std::size_t ai, double cycles, std::function<void()> done) {
    if (is_hw(ai)) {
      sim_.schedule(to_time(cycles), std::move(done));
    } else {
      cpu_queue_.push_back(CpuRequest{ai, cycles, std::move(done)});
      grant_cpu();
    }
  }

  void grant_cpu() {
    if (cpu_held_ || cpu_queue_.empty()) return;
    CpuRequest req = std::move(cpu_queue_.front());
    cpu_queue_.pop_front();
    cpu_held_ = true;
    double total = req.cycles;
    if (cpu_last_owner_ != req.actor) {
      total += config_.context_switch_cycles;
    }
    cpu_last_owner_ = req.actor;
    result_.cpu_busy_cycles += total;
    sim_.schedule(to_time(total), [this, done = std::move(req.done)] {
      cpu_held_ = false;
      done();
      grant_cpu();
    });
  }

  static Time to_time(double cycles) {
    MHS_CHECK(cycles >= 0.0, "negative cycle cost");
    return static_cast<Time>(std::llround(cycles));
  }

  void wake(std::size_t& slot) {
    if (slot == kNoActor) return;
    const std::size_t ai = slot;
    slot = kNoActor;
    sim_.schedule(0, [this, ai] { advance(ai); });
  }

  void advance(std::size_t ai) {
    Actor& a = actors_[ai];
    if (a.busy || a.done) return;
    const ir::Process& p = net_.process(a.id);

    if (a.phase == Phase::kCompute) {
      if (a.iter == config_.iterations) {
        a.done = true;
        return;
      }
      const double cost = is_hw(ai) ? p.hw_cycles : p.sw_cycles;
      if (is_hw(ai)) result_.hw_busy_cycles += cost;
      a.busy = true;
      charge(ai, cost, [this, ai] {
        Actor& me = actors_[ai];
        me.busy = false;
        me.phase = Phase::kOps;
        me.op_idx = 0;
        advance(ai);
      });
      return;
    }

    // Phase::kOps — execute channel operations in program order.
    while (a.op_idx < p.ops.size()) {
      const ir::ChannelOp& op = p.ops[a.op_idx];
      const ir::Channel& ch = net_.channel(op.channel);
      const std::size_t ci = op.channel.index();

      if (op.kind == ir::ChannelOp::Kind::kSend) {
        if (fifo_fill_[ci] >= ch.capacity) {
          MHS_ASSERT(blocked_on_space_[ci] == kNoActor,
                     "two senders blocked on channel " << ch.name);
          blocked_on_space_[ci] = ai;
          return;
        }
        const double cost = transfer_cost(ch, op.bytes);
        result_.comm_cycles += cost;
        if (in_hw_[ch.producer.index()] != in_hw_[ch.consumer.index()]) {
          result_.cross_comm_cycles += cost;
        }
        a.busy = true;
        charge(ai, cost, [this, ai, ci] {
          Actor& me = actors_[ai];
          me.busy = false;
          ++fifo_fill_[ci];
          ++result_.channel_messages[ci];
          ++me.op_idx;
          wake(blocked_on_data_[ci]);
          advance(ai);
        });
        return;
      }

      // Receive: instantaneous once data is available (the transfer cost
      // was paid by the sender).
      if (fifo_fill_[ci] == 0) {
        MHS_ASSERT(blocked_on_data_[ci] == kNoActor,
                   "two receivers blocked on channel " << ch.name);
        blocked_on_data_[ci] = ai;
        return;
      }
      --fifo_fill_[ci];
      ++a.op_idx;
      wake(blocked_on_space_[ci]);
    }

    // Iteration complete.
    ++a.iter;
    a.phase = Phase::kCompute;
    advance(ai);
  }

  const ir::ProcessNetwork& net_;
  const std::vector<bool>& in_hw_;
  const OsCosimConfig& config_;

  Simulator sim_;
  std::vector<Actor> actors_;
  std::vector<std::size_t> fifo_fill_;
  std::vector<std::size_t> blocked_on_data_;
  std::vector<std::size_t> blocked_on_space_;

  struct CpuRequest {
    std::size_t actor;
    double cycles;
    std::function<void()> done;
  };
  bool cpu_held_ = false;
  std::size_t cpu_last_owner_ = kNoActor;
  std::deque<CpuRequest> cpu_queue_;

  OsCosimResult result_;
};

}  // namespace

OsCosimResult detail::run_message_cosim(const ir::ProcessNetwork& net,
                                        const std::vector<bool>& in_hw,
                                        const OsCosimConfig& config) {
  OsCosim engine(net, in_hw, config);
  return engine.run();
}

}  // namespace mhs::sim
