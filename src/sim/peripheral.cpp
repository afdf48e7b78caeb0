#include "sim/peripheral.h"

namespace mhs::sim {

StreamPeripheral::StreamPeripheral(Simulator& sim, const hw::HlsResult& impl,
                                   InterfaceLevel level)
    : sim_(&sim), impl_(&impl), level_(level),
      eval_(impl.schedule.cdfg()),
      input_regs_(eval_.num_inputs(), 0),
      output_regs_(eval_.num_outputs(), 0),
      pending_out_(eval_.num_outputs(), 0) {}

std::int64_t StreamPeripheral::reg_read(std::uint64_t offset) {
  if (offset == PeripheralLayout::kCtrl) {
    return irq_enabled_ ? 2 : 0;
  }
  if (offset == PeripheralLayout::kStatus) {
    return (done_ ? 1 : 0) | (busy_ ? 2 : 0);
  }
  if (offset >= PeripheralLayout::kInputBase &&
      offset < PeripheralLayout::kInputBase + 8 * input_regs_.size()) {
    return input_regs_[(offset - PeripheralLayout::kInputBase) / 8];
  }
  if (offset >= PeripheralLayout::kOutputBase &&
      offset < PeripheralLayout::kOutputBase + 8 * output_regs_.size()) {
    // Reading an output clears DONE once all outputs are consumed; the
    // simple policy (clear on STATUS-after-read) is: reading any output
    // leaves DONE set, software clears it by writing STATUS.
    return output_regs_[(offset - PeripheralLayout::kOutputBase) / 8];
  }
  MHS_CHECK(false, "peripheral register read at invalid offset 0x"
                       << std::hex << offset);
  return 0;
}

void StreamPeripheral::reg_write(std::uint64_t offset, std::int64_t value) {
  if (offset == PeripheralLayout::kCtrl) {
    irq_enabled_ = (value & 2) != 0;
    if ((value & 4) != 0) {
      // RESET: abort the in-flight activation (the generation bump
      // discards its pending completion event) and return to idle.
      busy_ = false;
      done_ = false;
      busy_until_ = 0;
      ++generation_;
      return;
    }
    if ((value & 1) != 0) {
      // Under fault injection a GO while busy is silently ignored (the
      // control latch only accepts a start when idle) — a fault-confused
      // driver must not tear the model down.
      if (busy_ && fault_ != nullptr) return;
      start();
    }
    return;
  }
  if (offset == PeripheralLayout::kStatus) {
    // Writing STATUS acknowledges completion.
    done_ = false;
    return;
  }
  if (offset >= PeripheralLayout::kInputBase &&
      offset < PeripheralLayout::kInputBase + 8 * input_regs_.size()) {
    if (busy_ && fault_ != nullptr) return;  // input latch closed while busy
    MHS_CHECK(!busy_, "peripheral input written while busy");
    input_regs_[(offset - PeripheralLayout::kInputBase) / 8] = value;
    return;
  }
  MHS_CHECK(false, "peripheral register write at invalid offset 0x"
                       << std::hex << offset);
}

void StreamPeripheral::start() {
  MHS_CHECK(!busy_, "peripheral started while busy");
  busy_ = true;
  done_ = false;
  ++activations_;
  const std::uint64_t gen = ++generation_;

  // Compute the functional result from the precompiled datapath: the
  // full-width ir::CompiledEval reference that hw::check_equivalence
  // holds hw::RtlSim to.
  eval_.run(input_regs_, pending_out_);

  const Time latency = impl_->latency;
  if (level_ == InterfaceLevel::kPin) {
    // Pin/RTL-accurate mode: one event per controller state transition
    // (the synthesized schedule's states; an injected stall lengthens
    // only the completion hand-off, not the FSM walk). The walk itself
    // is pure filler — one null batch.
    if (latency > 1) sim_->schedule_null_batch(1, 1, latency - 1);
  }
  const std::uint64_t stall =
      fault_ == nullptr ? 0 : fault_->peripheral_stall_cycles();
  if (stall == fault::FaultSpec::kHang) {
    // Dropped hand-off: the completion never arrives. BUSY stays up
    // until a RESET; only a driver watchdog can notice.
    busy_until_ = kNever;
    return;
  }
  const Time total = latency + static_cast<Time>(stall);
  busy_until_ = sim_->now() + total;
  sim_->schedule(total, [this, gen] {
    if (gen != generation_) return;  // superseded by a reset/restart
    for (std::size_t j = 0; j < output_regs_.size(); ++j) {
      std::int64_t v = pending_out_[j];
      if (fault_ != nullptr) v = fault_->corrupt_kernel_result(v);
      output_regs_[j] = v;
    }
    busy_ = false;
    done_ = true;
    busy_until_ = 0;
    if (irq_enabled_ && irq_) irq_();
  });
}

}  // namespace mhs::sim
