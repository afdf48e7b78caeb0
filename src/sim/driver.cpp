#include "sim/driver.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "base/error.h"
#include "sim/peripheral.h"

namespace mhs::sim {

namespace {

// Register conventions inside generated drivers.
constexpr std::uint8_t kCounter = 1;   // remaining samples
constexpr std::uint8_t kInPtr = 2;     // current sample input pointer
constexpr std::uint8_t kOutPtr = 3;    // current sample output pointer
constexpr std::uint8_t kTmp = 4;       // data shuttle
constexpr std::uint8_t kOne = 5;       // constant 1
constexpr std::uint8_t kStatusTmp = 6; // STATUS / flag value
constexpr std::uint8_t kBackground = 7;// background work counter
constexpr std::uint8_t kCtrlVal = 8;   // value written to CTRL

// Additional conventions of resilient drivers.
constexpr std::uint8_t kFailCnt = 9;   // failed HW invocations so far
constexpr std::uint8_t kAttempts = 10; // attempts left for this sample
constexpr std::uint8_t kWatchdog = 11; // wait-loop countdown
constexpr std::uint8_t kReload = 12;   // current watchdog reload value
constexpr std::uint8_t kDegraded = 13; // sticky SW-fallback flag
constexpr std::uint8_t kCap = 14;      // watchdog reload cap
constexpr std::uint8_t kThreshold = 15;// degrade_after threshold
constexpr std::uint8_t kResetVal = 16; // CTRL RESET command (4)

using sw::Instr;
using sw::Opcode;

Instr li(std::uint8_t rd, std::int64_t imm) {
  return Instr{Opcode::kLi, rd, 0, 0, imm};
}
Instr ld(std::uint8_t rd, std::int64_t addr) {
  return Instr{Opcode::kLd, rd, sw::kZeroReg, 0, addr};
}
Instr st(std::uint8_t rs2, std::int64_t addr) {
  return Instr{Opcode::kSt, 0, sw::kZeroReg, rs2, addr};
}
Instr addi(std::uint8_t rd, std::uint8_t rs1, std::int64_t imm) {
  return Instr{Opcode::kAddi, rd, rs1, 0, imm};
}

/// An empty driver with its sample buffers placed for `spec`: at
/// kSampleBufferBase, or past the peripheral and monitor windows when
/// either ends higher, so no sample is streamed into a device register.
Driver placed_driver(const DriverSpec& spec) {
  Driver driver;
  driver.in_buffer = std::max({kSampleBufferBase,
                               spec.periph_base + PeripheralLayout::kSize,
                               spec.monitor_base + MonitorLayout::kSize});
  driver.out_buffer = driver.in_buffer + 8 * spec.samples * spec.num_inputs;
  return driver;
}

/// Forward-branch bookkeeping for the resilient driver's control flow:
/// branches are emitted with a label id in `imm`, then patched to the
/// label's absolute instruction index once everything is placed.
class LabelPatcher {
 public:
  /// Reserves a label id.
  std::size_t make() {
    targets_.push_back(kUnbound);
    return targets_.size() - 1;
  }
  /// Binds a label to the next emitted instruction.
  void bind(std::size_t label, const std::vector<Instr>& code) {
    MHS_ASSERT(targets_[label] == kUnbound, "label bound twice");
    targets_[label] = code.size();
  }
  /// Records that code.back() branches to `label`.
  void refer(std::size_t label, const std::vector<Instr>& code) {
    fixups_.push_back({code.size() - 1, label});
  }
  /// Rewrites every recorded branch imm to its label's bound index.
  void patch(std::vector<Instr>& code) const {
    for (const auto& [at, label] : fixups_) {
      MHS_ASSERT(targets_[label] != kUnbound, "branch to unbound label");
      code[at].imm = static_cast<std::int64_t>(targets_[label]);
    }
  }

 private:
  static constexpr std::size_t kUnbound = ~std::size_t{0};
  std::vector<std::size_t> targets_;
  std::vector<std::pair<std::size_t, std::size_t>> fixups_;
};

/// The resilient driver (see DriverSpec::resilient). Structure per
/// sample: attempt the device with a watchdog-bounded wait; on expiry
/// report the timeout, reset the device, back the window off (doubling,
/// capped) and retry; once attempts are exhausted run the inlined
/// software fallback — permanently, after degrade_after failed samples.
Driver generate_resilient_driver(const DriverSpec& spec) {
  MHS_CHECK(!spec.fallback_body.empty(),
            "resilient driver needs a software fallback body");
  MHS_CHECK(spec.fallback_in_addr.size() == spec.num_inputs &&
                spec.fallback_out_addr.size() == spec.num_outputs,
            "fallback I/O addresses must match the kernel ports");
  for (const Instr& instr : spec.fallback_body) {
    MHS_CHECK(instr.op != Opcode::kBeq && instr.op != Opcode::kBne &&
                  instr.op != Opcode::kJmp && instr.op != Opcode::kHalt &&
                  instr.op != Opcode::kIret,
              "fallback body must be straight-line code");
  }

  const auto pb = static_cast<std::int64_t>(spec.periph_base);
  const auto ctrl = pb + static_cast<std::int64_t>(PeripheralLayout::kCtrl);
  const auto status =
      pb + static_cast<std::int64_t>(PeripheralLayout::kStatus);
  const auto in_reg = [&](std::size_t k) {
    return pb + static_cast<std::int64_t>(PeripheralLayout::kInputBase) +
           static_cast<std::int64_t>(8 * k);
  };
  const auto out_reg = [&](std::size_t m) {
    return pb + static_cast<std::int64_t>(PeripheralLayout::kOutputBase) +
           static_cast<std::int64_t>(8 * m);
  };
  const auto mon = [&](std::uint64_t offset) {
    return static_cast<std::int64_t>(spec.monitor_base + offset);
  };
  const auto save_slot = [&](std::size_t slot) {
    return static_cast<std::int64_t>(spec.save_area + 8 * slot);
  };
  const auto flag = static_cast<std::int64_t>(spec.flag_addr);

  const ResiliencePolicy& pol = spec.resilience;
  const auto initial_timeout = static_cast<std::int64_t>(
      pol.timeout_polls != 0 ? pol.timeout_polls
                             : 4 * spec.periph_latency + 64);
  const std::int64_t cap_value =
      initial_timeout *
      static_cast<std::int64_t>(pol.backoff_cap != 0 ? pol.backoff_cap : 1);
  // degrade_after == 0: never stick — an unreachable threshold.
  const std::int64_t threshold =
      pol.degrade_after != 0 ? static_cast<std::int64_t>(pol.degrade_after)
                             : (std::int64_t{1} << 62);

  Driver driver = placed_driver(spec);
  std::vector<Instr>& code = driver.code;
  LabelPatcher labels;
  const std::size_t kLoopTop = labels.make();
  const std::size_t kAttempt = labels.make();
  const std::size_t kWaitTop = labels.make();
  const std::size_t kGiveUp = labels.make();
  const std::size_t kSwPath = labels.make();
  const std::size_t kGotResult = labels.make();
  const std::size_t kNextSample = labels.make();

  // Registers the inlined fallback clobbers (x1..x26) that carry state
  // across samples; saved around the body, constants re-materialized.
  const std::uint8_t dynamic_regs[] = {kCounter, kInPtr,   kOutPtr,
                                       kBackground, kFailCnt, kDegraded};
  const auto emit_constants = [&] {
    code.push_back(li(kOne, 1));
    code.push_back(li(kCtrlVal, spec.use_irq ? 3 : 1));
    code.push_back(li(kCap, cap_value));
    code.push_back(li(kThreshold, threshold));
    code.push_back(li(kResetVal, 4));
  };

  // Prologue.
  code.push_back(li(kCounter, static_cast<std::int64_t>(spec.samples)));
  code.push_back(li(kInPtr, static_cast<std::int64_t>(driver.in_buffer)));
  code.push_back(li(kOutPtr, static_cast<std::int64_t>(driver.out_buffer)));
  code.push_back(li(kBackground, 0));
  code.push_back(li(kFailCnt, 0));
  code.push_back(li(kDegraded, 0));
  emit_constants();
  if (spec.use_irq) code.push_back(st(sw::kZeroReg, flag));

  labels.bind(kLoopTop, code);
  // Sticky degradation short-circuits the hardware entirely.
  code.push_back(Instr{Opcode::kBne, 0, kDegraded, sw::kZeroReg, 0});
  labels.refer(kSwPath, code);
  code.push_back(li(kAttempts,
                    static_cast<std::int64_t>(pol.max_retries + 1)));
  code.push_back(li(kReload, initial_timeout));

  labels.bind(kAttempt, code);
  // A completion that raced the previous watchdog expiry may have left
  // the flag set; every attempt starts from a clean flag.
  if (spec.use_irq) code.push_back(st(sw::kZeroReg, flag));
  for (std::size_t k = 0; k < spec.num_inputs; ++k) {
    code.push_back(Instr{Opcode::kLd, kTmp, kInPtr, 0,
                         static_cast<std::int64_t>(8 * k)});
    code.push_back(st(kTmp, in_reg(k)));
  }
  code.push_back(st(kCtrlVal, ctrl));
  code.push_back(Instr{Opcode::kAdd, kWatchdog, kReload, sw::kZeroReg, 0});

  labels.bind(kWaitTop, code);
  if (!spec.use_irq) {
    code.push_back(ld(kStatusTmp, status));
    code.push_back(Instr{Opcode::kAnd, kStatusTmp, kStatusTmp, kOne, 0});
  } else {
    for (std::size_t u = 0; u < spec.background_unroll; ++u) {
      code.push_back(addi(kBackground, kBackground, 1));
    }
    code.push_back(ld(kStatusTmp, flag));
  }
  code.push_back(Instr{Opcode::kBne, 0, kStatusTmp, sw::kZeroReg, 0});
  labels.refer(kGotResult, code);
  code.push_back(addi(kWatchdog, kWatchdog, -1));
  code.push_back(Instr{Opcode::kBne, 0, kWatchdog, sw::kZeroReg, 0});
  labels.refer(kWaitTop, code);

  // Watchdog expired: report, reset the device, maybe retry.
  code.push_back(st(kOne, mon(MonitorLayout::kTimeout)));
  code.push_back(addi(kFailCnt, kFailCnt, 1));
  code.push_back(st(kResetVal, ctrl));
  code.push_back(addi(kAttempts, kAttempts, -1));
  code.push_back(Instr{Opcode::kBeq, 0, kAttempts, sw::kZeroReg, 0});
  labels.refer(kGiveUp, code);
  // Exponential backoff: reload = min(2 * reload, cap).
  code.push_back(Instr{Opcode::kAdd, kReload, kReload, kReload, 0});
  code.push_back(Instr{Opcode::kSlt, kTmp, kCap, kReload, 0});
  code.push_back(Instr{Opcode::kCmovnz, kReload, kTmp, kCap, 0});
  code.push_back(st(kOne, mon(MonitorLayout::kRetry)));
  code.push_back(Instr{Opcode::kJmp, 0, 0, 0, 0});
  labels.refer(kAttempt, code);

  labels.bind(kGiveUp, code);
  // Stick to the fallback once failcnt >= threshold.
  code.push_back(Instr{Opcode::kSlt, kTmp, kFailCnt, kThreshold, 0});
  code.push_back(Instr{Opcode::kSeq, kTmp, kTmp, sw::kZeroReg, 0});
  code.push_back(Instr{Opcode::kCmovnz, kDegraded, kTmp, kOne, 0});
  // Fall through into the software path for this sample.

  labels.bind(kSwPath, code);
  code.push_back(st(kOne, mon(MonitorLayout::kDegrade)));
  for (std::size_t k = 0; k < spec.num_inputs; ++k) {
    code.push_back(Instr{Opcode::kLd, kTmp, kInPtr, 0,
                         static_cast<std::int64_t>(8 * k)});
    code.push_back(
        st(kTmp, static_cast<std::int64_t>(spec.fallback_in_addr[k])));
  }
  for (std::size_t r = 0; r < std::size(dynamic_regs); ++r) {
    code.push_back(st(dynamic_regs[r], save_slot(r)));
  }
  code.insert(code.end(), spec.fallback_body.begin(),
              spec.fallback_body.end());
  for (std::size_t r = 0; r < std::size(dynamic_regs); ++r) {
    code.push_back(ld(dynamic_regs[r], save_slot(r)));
  }
  emit_constants();
  for (std::size_t m = 0; m < spec.num_outputs; ++m) {
    code.push_back(
        ld(kTmp, static_cast<std::int64_t>(spec.fallback_out_addr[m])));
    code.push_back(Instr{Opcode::kSt, 0, kOutPtr, kTmp,
                         static_cast<std::int64_t>(8 * m)});
  }
  code.push_back(Instr{Opcode::kJmp, 0, 0, 0, 0});
  labels.refer(kNextSample, code);

  labels.bind(kGotResult, code);
  if (spec.use_irq) code.push_back(st(sw::kZeroReg, flag));
  // No-op at the monitor unless a recovery window is open.
  code.push_back(st(kOne, mon(MonitorLayout::kRecover)));
  code.push_back(st(sw::kZeroReg, status));
  for (std::size_t m = 0; m < spec.num_outputs; ++m) {
    code.push_back(ld(kTmp, out_reg(m)));
    code.push_back(Instr{Opcode::kSt, 0, kOutPtr, kTmp,
                         static_cast<std::int64_t>(8 * m)});
  }

  labels.bind(kNextSample, code);
  code.push_back(addi(kInPtr, kInPtr,
                      static_cast<std::int64_t>(8 * spec.num_inputs)));
  code.push_back(addi(kOutPtr, kOutPtr,
                      static_cast<std::int64_t>(8 * spec.num_outputs)));
  code.push_back(addi(kCounter, kCounter, -1));
  code.push_back(Instr{Opcode::kBne, 0, kCounter, sw::kZeroReg, 0});
  labels.refer(kLoopTop, code);
  code.push_back(Instr{Opcode::kHalt, 0, 0, 0, 0});

  if (spec.use_irq) {
    driver.isr_entry = code.size();
    code.push_back(li(sw::kScratch0, 1));
    code.push_back(st(sw::kScratch0, flag));
    code.push_back(Instr{Opcode::kIret, 0, 0, 0, 0});
  }
  labels.patch(code);
  driver.background_counter_reg = kBackground;
  return driver;
}

}  // namespace

Driver generate_driver(const DriverSpec& spec) {
  MHS_CHECK(spec.samples >= 1, "driver needs at least one sample");
  MHS_CHECK(spec.num_inputs >= 1, "driver needs at least one input");
  MHS_CHECK(spec.num_outputs >= 1, "driver needs at least one output");
  if (spec.resilient) return generate_resilient_driver(spec);

  const auto pb = static_cast<std::int64_t>(spec.periph_base);
  const auto ctrl = pb + static_cast<std::int64_t>(PeripheralLayout::kCtrl);
  const auto status =
      pb + static_cast<std::int64_t>(PeripheralLayout::kStatus);
  const auto in_reg = [&](std::size_t k) {
    return pb + static_cast<std::int64_t>(PeripheralLayout::kInputBase) +
           static_cast<std::int64_t>(8 * k);
  };
  const auto out_reg = [&](std::size_t m) {
    return pb + static_cast<std::int64_t>(PeripheralLayout::kOutputBase) +
           static_cast<std::int64_t>(8 * m);
  };

  Driver driver = placed_driver(spec);
  std::vector<Instr>& code = driver.code;

  // Prologue.
  code.push_back(li(kCounter, static_cast<std::int64_t>(spec.samples)));
  code.push_back(li(kInPtr, static_cast<std::int64_t>(driver.in_buffer)));
  code.push_back(li(kOutPtr, static_cast<std::int64_t>(driver.out_buffer)));
  code.push_back(li(kOne, 1));
  code.push_back(li(kBackground, 0));
  // CTRL value: GO, plus IRQ_EN for interrupt-driven operation.
  code.push_back(li(kCtrlVal, spec.use_irq ? 3 : 1));
  if (spec.use_irq) {
    code.push_back(st(sw::kZeroReg, static_cast<std::int64_t>(spec.flag_addr)));
  }

  const std::size_t loop_top = code.size();

  // Copy this sample's inputs into the device registers.
  for (std::size_t k = 0; k < spec.num_inputs; ++k) {
    code.push_back(Instr{Opcode::kLd, kTmp, kInPtr, 0,
                         static_cast<std::int64_t>(8 * k)});
    code.push_back(st(kTmp, in_reg(k)));
  }
  // Start the device.
  code.push_back(st(kCtrlVal, ctrl));

  if (!spec.use_irq) {
    // Polling wait: ld STATUS; test DONE bit; branch back while clear.
    const std::size_t wait_top = code.size();
    code.push_back(ld(kStatusTmp, status));
    code.push_back(
        Instr{Opcode::kAnd, kStatusTmp, kStatusTmp, kOne, 0});
    code.push_back(Instr{Opcode::kBeq, 0, kStatusTmp, sw::kZeroReg,
                         static_cast<std::int64_t>(wait_top)});
  } else {
    // Interrupt wait: do background work, then check the in-memory flag.
    const std::size_t wait_top = code.size();
    for (std::size_t u = 0; u < spec.background_unroll; ++u) {
      code.push_back(addi(kBackground, kBackground, 1));
    }
    code.push_back(
        ld(kStatusTmp, static_cast<std::int64_t>(spec.flag_addr)));
    code.push_back(Instr{Opcode::kBeq, 0, kStatusTmp, sw::kZeroReg,
                         static_cast<std::int64_t>(wait_top)});
    // Clear the flag for the next sample.
    code.push_back(st(sw::kZeroReg, static_cast<std::int64_t>(spec.flag_addr)));
  }

  // Acknowledge completion (clears DONE).
  code.push_back(st(sw::kZeroReg, status));

  // Copy outputs back to memory.
  for (std::size_t m = 0; m < spec.num_outputs; ++m) {
    code.push_back(ld(kTmp, out_reg(m)));
    code.push_back(Instr{Opcode::kSt, 0, kOutPtr, kTmp,
                         static_cast<std::int64_t>(8 * m)});
  }

  // Advance pointers, decrement counter, loop.
  code.push_back(addi(kInPtr, kInPtr,
                      static_cast<std::int64_t>(8 * spec.num_inputs)));
  code.push_back(addi(kOutPtr, kOutPtr,
                      static_cast<std::int64_t>(8 * spec.num_outputs)));
  code.push_back(addi(kCounter, kCounter, -1));
  code.push_back(Instr{Opcode::kBne, 0, kCounter, sw::kZeroReg,
                       static_cast<std::int64_t>(loop_top)});
  code.push_back(Instr{Opcode::kHalt, 0, 0, 0, 0});

  if (spec.use_irq) {
    // ISR: set the completion flag and return. Uses scratch registers so
    // that it never clobbers main-thread state.
    driver.isr_entry = code.size();
    code.push_back(li(sw::kScratch0, 1));
    code.push_back(
        st(sw::kScratch0, static_cast<std::int64_t>(spec.flag_addr)));
    code.push_back(Instr{Opcode::kIret, 0, 0, 0, 0});
  }
  driver.background_counter_reg = kBackground;
  return driver;
}

}  // namespace mhs::sim
