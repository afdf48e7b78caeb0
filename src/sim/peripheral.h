// Memory-mapped hardware accelerator model.
//
// Wraps a synthesized implementation (hw::HlsResult) behind the register
// interface an embedded CPU would see: write the kernel inputs, set the GO
// bit, poll STATUS or take the completion interrupt, read the outputs.
// Functionality comes from the synthesized datapath simulation, latency
// from the synthesized schedule — hardware behaviour and timing are both
// derived from the same specification the software is compiled from.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault.h"
#include "hw/hls.h"
#include "sim/interface_level.h"
#include "sim/kernel.h"

namespace mhs::sim {

/// Register map (byte offsets from the peripheral base address).
struct PeripheralLayout {
  /// bit0 GO, bit1 IRQ_EN, bit2 RESET (aborts in-flight work, clears
  /// BUSY/DONE — the recovery handle resilient drivers pull after a
  /// watchdog timeout).
  static constexpr std::uint64_t kCtrl = 0x00;
  static constexpr std::uint64_t kStatus = 0x08;  ///< bit0 DONE, bit1 BUSY
  static constexpr std::uint64_t kInputBase = 0x40;   ///< input i at +8*i
  static constexpr std::uint64_t kOutputBase = 0x200; ///< output j at +8*j
  static constexpr std::uint64_t kSize = 0x400;   ///< bytes of address space
};

/// The accelerator model.
class StreamPeripheral {
 public:
  /// `impl` must outlive the peripheral.
  StreamPeripheral(Simulator& sim, const hw::HlsResult& impl,
                   InterfaceLevel level);

  /// Register-file access (offsets per PeripheralLayout). Writing GO with
  /// inputs loaded starts a computation; DONE rises (and the IRQ callback
  /// fires, when enabled) after the synthesized latency.
  std::int64_t reg_read(std::uint64_t offset);
  void reg_write(std::uint64_t offset, std::int64_t value);

  /// Called (once per completion) when IRQ_EN is set and work completes.
  void set_irq_callback(std::function<void()> fn) { irq_ = std::move(fn); }

  bool busy() const { return busy_; }
  bool done() const { return done_; }
  std::uint64_t activations() const { return activations_; }

  /// busy_until() when the current activation's completion will never
  /// arrive (an injected hang; only a RESET revives the device).
  static constexpr Time kNever = ~Time{0};
  /// Absolute completion time of the in-flight activation: 0 when idle,
  /// kNever when hung. Analytic driver models use this for exact waits.
  Time busy_until() const { return busy_until_; }

  /// Attaches a fault injector (nullptr detaches). Injected faults can
  /// stall or hang completions and corrupt result values; in addition
  /// the device degrades gracefully instead of asserting on protocol
  /// violations a fault can induce (input writes and GO while busy are
  /// silently ignored, as real hardware latches would).
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Latency of one activation in cycles.
  Time latency() const { return impl_->latency; }

  std::size_t num_inputs() const { return eval_.num_inputs(); }
  std::size_t num_outputs() const { return eval_.num_outputs(); }

 private:
  void start();

  Simulator* sim_;
  const hw::HlsResult* impl_;
  InterfaceLevel level_;
  fault::FaultInjector* fault_ = nullptr;
  Time busy_until_ = 0;
  /// The synthesized kernel precompiled once; each activation is then a
  /// flat array walk instead of a per-call sort + name-map evaluation.
  ir::CompiledEval eval_;
  std::vector<std::int64_t> input_regs_;
  std::vector<std::int64_t> output_regs_;
  /// Results of the in-flight activation, committed to output_regs_ by
  /// the completion event (which captures only {this, generation}).
  std::vector<std::int64_t> pending_out_;
  bool irq_enabled_ = false;
  bool busy_ = false;
  bool done_ = false;
  std::uint64_t activations_ = 0;
  std::uint64_t generation_ = 0;  // guards stale completion events
  std::function<void()> irq_;
};

}  // namespace mhs::sim
