// System-bus timing and activity model.
//
// One bus connects the CPU (master) to hardware peripherals (slaves). The
// model produces both a cycle cost and simulator events for every access;
// how many events — and how faithful the cycle cost is — depends on the
// interface abstraction level (Fig. 3):
//
//   kPin:      full handshake per word (arbitration, address phase, wait
//              states, data phase), one event per bus cycle. Exact.
//   kRegister: per-word cost without per-word re-arbitration, one event
//              per access. Slightly optimistic under contention.
//   kDriver:   block cost = setup + one cycle per word, one event per
//              block. Ignores wait states and address phases.
//   kMessage:  fixed OS overhead per message regardless of size, one
//              event per message. No bus modelling at all.
#pragma once

#include <cstdint>

#include "fault/fault.h"
#include "sim/interface_level.h"
#include "sim/kernel.h"
#include "sim/signal.h"

namespace mhs::sim {

/// Bus timing parameters (cycles of the reference clock).
struct BusConfig {
  std::size_t width_bytes = 4;       ///< bytes moved per data phase
  Time arbitration_cycles = 1;       ///< master acquires the bus
  Time address_phase_cycles = 1;     ///< address/command cycle
  Time data_wait_states = 1;         ///< slave wait states per data phase
  Time driver_setup_cycles = 20;     ///< driver-call entry/exit overhead
  Time message_overhead_cycles = 200; ///< OS send/receive/wait overhead
};

/// The bus model. All cost functions also advance the simulator and emit
/// the per-level events described above.
class BusModel {
 public:
  BusModel(Simulator& sim, BusConfig config, InterfaceLevel level);

  /// One word access (a register read or write). Returns cycles consumed.
  Time access(std::uint64_t addr, bool is_write);

  /// A block transfer of `bytes`. Returns cycles consumed.
  Time block_transfer(std::uint64_t addr, std::size_t bytes, bool is_write);

  /// A message of `bytes` at the OS level. Returns cycles consumed.
  Time message(std::size_t bytes);

  /// Pure cost queries (no events, no time advance) — used by analytic
  /// estimators and by tests that check the accuracy ladder.
  Time word_cost() const;
  Time block_cost(std::size_t bytes) const;

  /// Multi-master arbitration: reserves the bus for a transfer of
  /// `bytes` starting no earlier than `earliest` and no earlier than the
  /// previous reservation's end. Returns {grant_time, completion_time}
  /// and accounts the busy window. Does not advance the simulator; the
  /// caller schedules its own completion event. Used by DMA engines.
  struct Reservation {
    Time granted;
    Time completed;
  };
  Reservation reserve(Time earliest, std::size_t bytes);

  /// Time at which the bus becomes free (end of the latest reservation).
  Time free_at() const { return free_at_; }

  /// Attaches a fault injector (nullptr detaches). Grant-starvation
  /// faults then lengthen the arbitration wait of every access, block
  /// transfer, message, and DMA reservation — a phantom master holding
  /// the bus. Detached (the default), every path is byte-identical to
  /// the fault-free model.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  std::uint64_t total_accesses() const { return total_accesses_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  /// Cycles during which the bus was occupied (utilization numerator).
  Time busy_cycles() const { return busy_cycles_; }

  const BusConfig& config() const { return config_; }
  InterfaceLevel level() const { return level_; }

  // Pin-level signals (observable at InterfaceLevel::kPin).
  Bus64& addr_pins() { return addr_pins_; }
  Bus64& data_pins() { return data_pins_; }
  Wire& strobe_pin() { return strobe_; }
  Wire& rw_pin() { return rw_; }
  Wire& ack_pin() { return ack_; }

 private:
  std::size_t words_for(std::size_t bytes) const;
  void emit_pin_handshake(std::uint64_t addr, bool is_write, Time offset);

  void record_grant_wait(Time wait) {
    if (grant_wait_hist_ != nullptr) grant_wait_hist_->record(wait);
  }

  /// Extra arbitration delay from an injected grant-starvation fault
  /// (0 when no injector is attached or nothing fires).
  Time starvation_delay() {
    return fault_ == nullptr ? 0
                             : static_cast<Time>(
                                   fault_->grant_starvation_cycles());
  }

  Simulator* sim_;
  BusConfig config_;
  InterfaceLevel level_;
  fault::FaultInjector* fault_ = nullptr;
  /// "bus.grant_wait_cycles" histogram; non-null iff a registry was
  /// installed when the bus was constructed.
  obs::Histogram* grant_wait_hist_ = nullptr;
  std::uint64_t total_accesses_ = 0;
  std::uint64_t total_bytes_ = 0;
  Time busy_cycles_ = 0;
  Time free_at_ = 0;

  Bus64 addr_pins_;
  Bus64 data_pins_;
  Wire strobe_;
  Wire rw_;
  Wire ack_;
};

}  // namespace mhs::sim
