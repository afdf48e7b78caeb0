// Software driver generation for the accelerator peripheral.
//
// Emits the ISA routines an embedded CPU runs to operate a StreamPeripheral:
// copy a sample's inputs to the device, start it, wait (by polling STATUS
// over the bus, or by taking the completion interrupt while doing
// background work), then copy the outputs back. The polling/interrupt
// choice is exactly the driver-style decision Chinook-class interface
// co-synthesis makes (§4.1 of the paper); mhs::cosynth selects between
// these generated drivers.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/kernel.h"
#include "sim/peripheral.h"
#include "sw/codegen.h"
#include "sw/isa.h"

namespace mhs::sim {

/// Default MMIO base of the accelerator.
inline constexpr std::uint64_t kPeripheralBase = 0x10000;

/// Default base of the resilience monitor port: a zero-bus-cost debug
/// window resilient drivers write recovery-protocol events to (watchdog
/// timeout, retry, recovery, degradation). The co-simulation harness
/// maps it to the fault scoreboard; it models the trace/debug port real
/// SoCs expose off the main interconnect.
inline constexpr std::uint64_t kMonitorBase = 0x30000;

/// Monitor register offsets (byte offsets from the monitor base).
struct MonitorLayout {
  static constexpr std::uint64_t kTimeout = 0x00;  ///< watchdog expired
  static constexpr std::uint64_t kRetry = 0x08;    ///< HW retry issued
  static constexpr std::uint64_t kRecover = 0x10;  ///< sample completed
  static constexpr std::uint64_t kDegrade = 0x18;  ///< SW fallback ran
  static constexpr std::uint64_t kSize = 0x20;
};

/// Base of a generated driver's sample buffers. The driver's fixed
/// windows all sit below it: compiler I/O and spills (from 0x1000), the
/// IRQ flag and save area (0x4000, 0x5000), the relocated fallback I/O
/// (from 0x6000), and the default peripheral and monitor MMIO windows
/// (0x10000, 0x30000). A peripheral or monitor window placed higher
/// pushes the buffers past it (see Driver::in_buffer).
inline constexpr std::uint64_t kSampleBufferBase = 0x40000;
static_assert(kSampleBufferBase >= kPeripheralBase + PeripheralLayout::kSize);
static_assert(kSampleBufferBase >= kMonitorBase + MonitorLayout::kSize);

/// Timeout / retry / degradation parameters of resilient drivers.
/// Shared by the generated ISA driver (kPin/kRegister) and the analytic
/// driver models (kDriver/kMessage).
struct ResiliencePolicy {
  /// Wait-loop iterations before the watchdog declares a timeout
  /// (generated ISA drivers). 0 = auto: 4 * latency + 64, far above any
  /// fault-free completion, so the watchdog never fires spuriously.
  std::size_t timeout_polls = 0;
  /// Watchdog window in cycles (analytic kDriver/kMessage models).
  /// 0 = auto: 2 * latency + 64.
  Time timeout_cycles = 0;
  /// Hardware re-activations attempted after the first failure before
  /// giving up on the sample.
  std::size_t max_retries = 3;
  /// Exponential backoff cap: the timeout window doubles per retry but
  /// never exceeds backoff_cap * the initial window.
  std::size_t backoff_cap = 8;
  /// Failed HW invocations (samples whose retries were exhausted) before
  /// the driver degrades permanently to the software fallback for all
  /// remaining samples. 0 = degrade only per-sample, never stick.
  std::size_t degrade_after = 4;
  /// Read back the input registers after writing them and retry on a
  /// mismatch (analytic kDriver model; catches bus data corruption).
  bool verify_writes = false;
  /// Cycle cost of one software-fallback kernel execution (analytic
  /// models). 0 = auto: 8 * latency.
  Time sw_fallback_cycles = 0;
};

/// Parameters of a generated driver program.
struct DriverSpec {
  std::uint64_t periph_base = kPeripheralBase;
  std::size_t num_inputs = 1;
  std::size_t num_outputs = 1;
  /// Number of samples to stream through the device.
  std::size_t samples = 16;
  /// false: poll STATUS over the bus. true: enable the completion
  /// interrupt and wait on an in-memory flag set by the ISR.
  bool use_irq = false;
  /// Completion flag written by the ISR (interrupt-driven mode).
  std::uint64_t flag_addr = 0x4000;
  /// Units of background work attempted per wait-loop iteration (the CPU
  /// cycles freed by interrupt-driven I/O show up as completed units).
  std::size_t background_unroll = 0;

  // --- resilient mode (fault-injection runs) -----------------------------

  /// Generate the resilient driver: bounded watchdog wait loops, device
  /// reset + exponential-backoff retry on expiry, and degradation to an
  /// inlined software fallback once retries are exhausted. When false
  /// (the default) the generated code is the classic driver, unchanged.
  bool resilient = false;
  ResiliencePolicy resilience;
  /// Accelerator latency in cycles (derives the auto watchdog window).
  Time periph_latency = 0;
  /// The software fallback: a compiled, branch-free kernel body (trailing
  /// kHalt stripped) inlined on the degradation path, plus the memory
  /// addresses it reads inputs from / writes outputs to, in kernel port
  /// order. The body must stay clear of the driver's buffers.
  std::vector<sw::Instr> fallback_body;
  std::vector<std::uint64_t> fallback_in_addr;
  std::vector<std::uint64_t> fallback_out_addr;
  /// Monitor (debug) port base the recovery protocol is reported to.
  std::uint64_t monitor_base = kMonitorBase;
  /// Save area for driver registers live across the inlined fallback.
  std::uint64_t save_area = 0x5000;
};

/// A generated driver.
struct Driver {
  std::vector<sw::Instr> code;
  /// Entry of the interrupt service routine (interrupt-driven drivers).
  std::optional<std::size_t> isr_entry;
  /// The sample buffers the driver streams through, sample-major (sample
  /// i's inputs at in_buffer + 8 * i * num_inputs). generate_driver
  /// places them at kSampleBufferBase, or past the spec's peripheral and
  /// monitor windows when either ends higher: all inputs, then all
  /// outputs, so no sample count can overlap the two or a window.
  std::uint64_t in_buffer = 0;
  std::uint64_t out_buffer = 0;
  /// Register accumulating background work units (x7).
  std::size_t background_counter_reg = 7;
};

/// Generates the driver program for `spec`.
Driver generate_driver(const DriverSpec& spec);

}  // namespace mhs::sim
