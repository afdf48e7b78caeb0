#include "sim/cosim.h"

#include <algorithm>
#include <cmath>

#include "base/table.h"
#include "obs/obs.h"
#include "sim/levels.h"
#include "sim/peripheral.h"

namespace mhs::sim {

namespace {

/// Folds a kernel output into the run checksum. Injected faults can turn
/// an output into any 64-bit pattern, so the fold is the CDFG's own
/// wraparound add.
void fold_checksum(std::int64_t& checksum, std::int64_t value) {
  checksum = ir::wrap_add(checksum, value);
}

/// Recovery-window bookkeeping shared by the resilience harnesses: a
/// window opens at the first detection of a failing sample and closes
/// when the sample resolves (HW retry success or SW fallback); its span
/// is the recovery latency charged to fault::ResilienceReport and the
/// "fault.recovery_cycles" histogram.
struct RecoveryWindow {
  bool open = false;
  Time start = 0;

  void detect(fault::FaultInjector& fi, Time now) {
    fi.note_detected();
    if (!open) {
      open = true;
      start = now;
    }
  }
  void recover(fault::FaultInjector& fi, Time now) {
    if (!open) return;  // nothing was wrong with this sample
    const Time span = now - start;
    fi.note_recovered(span);
    obs::observe("fault.recovery_cycles", span);
    open = false;
  }
  void degrade(fault::FaultInjector& fi, Time now) {
    Time span = 0;
    if (open) {
      span = now - start;
      obs::observe("fault.recovery_cycles", span);
      open = false;
    }
    fi.note_degraded(span);
  }
};

/// Compiles the kernel as the resilient driver's software fallback:
/// strips the trailing halt and relocates the body's memory-mapped I/O
/// (compiler conventions 0x1000/0x2000) up to 0x6000/0x7000, the
/// fallback I/O window below kSampleBufferBase.
void attach_fallback(const hw::HlsResult& impl, DriverSpec& spec) {
  const ir::Cdfg& cdfg = impl.schedule.cdfg();
  sw::Program prog = sw::compile(cdfg);
  MHS_ASSERT(!prog.code.empty() &&
                 prog.code.back().op == sw::Opcode::kHalt,
             "compiled kernel must end in halt");
  prog.code.pop_back();
  constexpr std::int64_t kRelocate = 0x5000;
  for (sw::Instr& instr : prog.code) {
    if (instr.op == sw::Opcode::kLd && instr.rs1 == sw::kZeroReg &&
        instr.imm >= static_cast<std::int64_t>(sw::kInputBase) &&
        instr.imm < static_cast<std::int64_t>(sw::kOutputBase)) {
      instr.imm += kRelocate;
    } else if (instr.op == sw::Opcode::kSt && instr.rs1 == sw::kZeroReg &&
               instr.imm >= static_cast<std::int64_t>(sw::kOutputBase) &&
               instr.imm < static_cast<std::int64_t>(sw::kSpillBase)) {
      instr.imm += kRelocate;
    }
  }
  for (const ir::OpId id : cdfg.inputs()) {
    spec.fallback_in_addr.push_back(
        prog.input_addr.at(cdfg.op(id).name) +
        static_cast<std::uint64_t>(kRelocate));
  }
  for (const ir::OpId id : cdfg.outputs()) {
    spec.fallback_out_addr.push_back(
        prog.output_addr.at(cdfg.op(id).name) +
        static_cast<std::uint64_t>(kRelocate));
  }
  spec.fallback_body = std::move(prog.code);
}

/// ISS-in-the-loop co-simulation (kPin and kRegister).
CosimReport run_iss_levels(const hw::HlsResult& impl,
                           const CosimConfig& config,
                           const std::vector<std::vector<std::int64_t>>&
                               samples, fault::FaultInjector* fi) {
  Simulator sim;
  BusModel bus(sim, config.bus, config.level);
  StreamPeripheral periph(sim, impl, config.level);
  if (fi != nullptr) {
    bus.set_fault_injector(fi);
    periph.set_fault_injector(fi);
  }

  DriverSpec spec;
  spec.num_inputs = periph.num_inputs();
  spec.num_outputs = periph.num_outputs();
  spec.samples = samples.size();
  spec.use_irq = config.use_irq;
  spec.background_unroll = config.background_unroll;
  if (fi != nullptr) {
    // Fault-injection run: the CPU runs the resilient driver
    // (watchdog + reset/retry with backoff + SW fallback) instead of
    // the classic one, which would poll a hung device forever.
    spec.resilient = true;
    spec.resilience = config.resilience;
    spec.periph_latency = periph.latency();
    attach_fallback(impl, spec);
  }
  const Driver driver = generate_driver(spec);

  sw::Iss iss(config.cpu);
  iss.load_program(driver.code);
  if (driver.isr_entry) iss.set_isr(*driver.isr_entry);
  periph.set_irq_callback([&iss] { iss.raise_irq(); });

  // Software time the lock-step loop has accounted for but not yet
  // committed to the simulator clock (see the lazy advance below). Any
  // hook that reads sim.now() or schedules events must sync first so it
  // observes exactly the eagerly-advanced clock.
  Time deferred = 0;

  // MMIO window: every CPU access to the peripheral crosses the bus —
  // where injected data faults (bit flips, stuck-at lines) strike.
  iss.add_mmio(
      spec.periph_base, spec.periph_base + PeripheralLayout::kSize - 1,
      [&, fi](std::uint64_t addr) {
        if (deferred > sim.now()) sim.advance_to(deferred);
        bus.access(addr, /*is_write=*/false);
        std::int64_t value = periph.reg_read(addr - spec.periph_base);
        if (fi != nullptr) value = fi->corrupt_bus_word(value);
        return value;
      },
      [&, fi](std::uint64_t addr, std::int64_t value) {
        if (deferred > sim.now()) sim.advance_to(deferred);
        bus.access(addr, /*is_write=*/true);
        if (fi != nullptr) value = fi->corrupt_bus_word(value);
        periph.reg_write(addr - spec.periph_base, value);
      });

  // Monitor (debug) port: the resilient driver reports its recovery
  // protocol here at zero bus cost; the harness folds the events into
  // the fault scoreboard.
  RecoveryWindow window;
  if (fi != nullptr) {
    const std::uint64_t mon_base = spec.monitor_base;
    iss.add_mmio(
        mon_base, mon_base + MonitorLayout::kSize - 1,
        [](std::uint64_t) { return std::int64_t{0}; },
        [&sim, &window, &deferred, fi, mon_base](std::uint64_t addr,
                                                 std::int64_t) {
          if (deferred > sim.now()) sim.advance_to(deferred);
          switch (addr - mon_base) {
            case MonitorLayout::kTimeout:
              window.detect(*fi, sim.now());
              break;
            case MonitorLayout::kRetry:
              fi->note_retry();
              break;
            case MonitorLayout::kRecover:
              window.recover(*fi, sim.now());
              break;
            case MonitorLayout::kDegrade:
              window.degrade(*fi, sim.now());
              break;
            default:
              break;
          }
        });
  }

  // Pre-load the sample data.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    MHS_CHECK(samples[i].size() == spec.num_inputs,
              "sample " << i << " has " << samples[i].size()
                        << " inputs, kernel expects " << spec.num_inputs);
    for (std::size_t k = 0; k < spec.num_inputs; ++k) {
      iss.write_word(driver.in_buffer + 8 * (i * spec.num_inputs + k),
                     samples[i][k]);
    }
  }

  // Lock-step execution: the ISS leads; the simulator carries bus and
  // peripheral activity. MMIO stalls advance simulated time inside step(),
  // instruction time is added afterwards.
  double sw_time = 0.0;
  while (!iss.halted()) {
    const Time busy_before = bus.busy_cycles();
    const std::uint64_t instr_cycles = iss.step();
    const Time stall = bus.busy_cycles() - busy_before;
    sw_time += static_cast<double>(instr_cycles) * config.cpu.clock_scale +
               static_cast<double>(stall);
    const Time target = static_cast<Time>(std::llround(sw_time));
    if (target > sim.now()) {
      // Lazy advance: only commit the clock when an event is actually
      // due by the target; otherwise just remember it. Events never fire
      // late — an advance happens the moment one falls inside the
      // window — and the MMIO hooks above re-sync before any code that
      // reads the clock or schedules work, so the observable schedule is
      // identical to advancing after every instruction.
      deferred = target;
      if (sim.next_event_time() <= target) sim.advance_to(target);
    }
    MHS_CHECK(sw_time < static_cast<double>(config.max_sw_cycles),
              "co-simulation exceeded " << config.max_sw_cycles
                                        << " cycles — driver livelock?");
  }
  if (deferred > sim.now()) sim.advance_to(deferred);

  CosimReport report;
  report.level = config.level;
  report.total_cycles = static_cast<double>(sim.now());
  report.sim_events = sim.events_processed();
  report.sw_instructions = iss.total_instructions();
  report.bus_accesses = bus.total_accesses();
  report.bus_busy_cycles = bus.busy_cycles();
  report.signal_transitions =
      bus.addr_pins().transitions() + bus.data_pins().transitions() +
      bus.strobe_pin().transitions() + bus.rw_pin().transitions() +
      bus.ack_pin().transitions();
  report.background_units = iss.reg(driver.background_counter_reg);
  report.hw_activations = periph.activations();
  const std::size_t num_outputs = spec.num_outputs;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (std::size_t m = 0; m < num_outputs; ++m) {
      fold_checksum(report.checksum, iss.read_word(driver.out_buffer +
                                                   8 * (i * num_outputs + m)));
    }
  }

  // Cycle attribution: instruction execution (scaled to the reference
  // clock) and bus transfers claim their cycles; the sub-cycle rounding
  // remainder is idle. Peripheral computation overlaps the CPU's
  // polling/background work at these levels, so it claims no cycles of
  // its own.
  report.profile = obs::Profile(interface_level_name(config.level));
  report.profile.attribute(
      obs::Profile::kSwExecute,
      static_cast<std::uint64_t>(std::llround(iss.total_reference_cycles())));
  report.profile.attribute(obs::Profile::kBus, bus.busy_cycles());
  report.profile.finalize(sim.now());

  // Instruction mix: surface the ISS's per-opcode retirement histogram
  // as counters so the mix appears in Report summaries.
  if (obs::enabled()) {
    const std::vector<std::uint64_t>& mix = iss.opcode_histogram();
    for (std::size_t op = 0; op < mix.size(); ++op) {
      if (mix[op] == 0) continue;
      obs::count(std::string("iss.op.") +
                     sw::opcode_name(static_cast<sw::Opcode>(op)),
                 mix[op]);
    }
  }
  return report;
}

/// Driver-call-level co-simulation: analytic software, evented hardware.
CosimReport run_driver_level(const hw::HlsResult& impl,
                             const CosimConfig& config,
                             const std::vector<std::vector<std::int64_t>>&
                                 samples, fault::FaultInjector* fi) {
  Simulator sim;
  BusModel bus(sim, config.bus, config.level);
  StreamPeripheral periph(sim, impl, config.level);
  const std::size_t num_inputs = periph.num_inputs();
  const std::size_t num_outputs = periph.num_outputs();

  CosimReport report;
  report.level = config.level;
  Time sw_cycles = 0;
  Time peripheral_wait = 0;

  if (fi != nullptr) {
    // Resilient analytic driver: the same write/start/wait/read call
    // sequence, but the wait is a bounded watchdog; on expiry the driver
    // resets the device and retries with an exponentially backed-off
    // window, and after max_retries it completes the sample with the
    // software fallback (a functional kernel evaluation, charged at
    // sw_fallback_cycles). Once degrade_after samples have failed the
    // driver degrades permanently.
    bus.set_fault_injector(fi);
    periph.set_fault_injector(fi);
    // Software fallback path, precompiled: positional inputs/outputs are
    // in cdfg.inputs()/outputs() order, the same order the samples and
    // checksum folds use.
    const ir::CompiledEval eval(impl.schedule.cdfg());
    const ResiliencePolicy& pol = config.resilience;
    const Time window0 = pol.timeout_cycles != 0
                             ? pol.timeout_cycles
                             : 2 * periph.latency() + 64;
    const Time window_cap =
        window0 * static_cast<Time>(pol.backoff_cap != 0 ? pol.backoff_cap
                                                         : 1);
    const Time fallback_cycles = pol.sw_fallback_cycles != 0
                                     ? pol.sw_fallback_cycles
                                     : 8 * periph.latency();
    Time fault_wait = 0;
    std::size_t failed_invocations = 0;
    bool degraded_sticky = false;
    RecoveryWindow window;

    std::vector<std::int64_t> fallback_out(eval.num_outputs(), 0);
    const auto run_fallback = [&](const std::vector<std::int64_t>& sample) {
      sim.advance_to(sim.now() + fallback_cycles);
      fault_wait += fallback_cycles;
      window.degrade(*fi, sim.now());
      eval.run(sample, fallback_out);
      for (const std::int64_t value : fallback_out) {
        fold_checksum(report.checksum, value);
      }
    };

    for (const auto& sample : samples) {
      MHS_CHECK(sample.size() == num_inputs, "sample input arity mismatch");
      if (degraded_sticky) {
        run_fallback(sample);
        continue;
      }
      bool got_result = false;
      Time window_cycles = window0;
      for (std::size_t attempt = 0; attempt <= pol.max_retries; ++attempt) {
        if (attempt > 0) fi->note_retry();
        // write_block driver call; each word may be corrupted in flight.
        for (std::size_t k = 0; k < num_inputs; ++k) {
          periph.reg_write(PeripheralLayout::kInputBase + 8 * k,
                           fi->corrupt_bus_word(sample[k]));
        }
        bus.block_transfer(PeripheralLayout::kInputBase, 8 * num_inputs,
                           /*is_write=*/true);
        sim.advance_to(sim.now() + config.driver_call_sw_cycles);
        sw_cycles += config.driver_call_sw_cycles;
        if (pol.verify_writes) {
          // Read back and compare: catches bus data corruption before
          // the activation wastes a watchdog window.
          bool mismatch = false;
          for (std::size_t k = 0; k < num_inputs; ++k) {
            const std::int64_t got = fi->corrupt_bus_word(
                periph.reg_read(PeripheralLayout::kInputBase + 8 * k));
            if (got != sample[k]) mismatch = true;
          }
          bus.block_transfer(PeripheralLayout::kInputBase, 8 * num_inputs,
                             /*is_write=*/false);
          sim.advance_to(sim.now() + config.driver_call_sw_cycles);
          sw_cycles += config.driver_call_sw_cycles;
          if (mismatch) {
            window.detect(*fi, sim.now());
            continue;
          }
        }
        periph.reg_write(PeripheralLayout::kCtrl, 1);
        // Bounded wait: the device either completes inside the watchdog
        // window or the driver resets it and moves on.
        const Time t_go = sim.now();
        const Time done_at = periph.busy_until();
        if (done_at != StreamPeripheral::kNever &&
            done_at <= t_go + window_cycles) {
          sim.advance_to(done_at);
          peripheral_wait += done_at - t_go;
          MHS_ASSERT(periph.done(), "peripheral not done at busy_until");
          got_result = true;
        } else {
          sim.advance_to(t_go + window_cycles);
          fault_wait += window_cycles;
          window.detect(*fi, sim.now());
          periph.reg_write(PeripheralLayout::kCtrl, 4);  // device reset
          sim.advance_to(sim.now() + config.driver_call_sw_cycles);
          sw_cycles += config.driver_call_sw_cycles;
          window_cycles = std::min(2 * window_cycles, window_cap);
          continue;
        }
        break;
      }
      if (got_result) {
        window.recover(*fi, sim.now());
        periph.reg_write(PeripheralLayout::kStatus, 0);
        bus.block_transfer(PeripheralLayout::kOutputBase, 8 * num_outputs,
                           /*is_write=*/false);
        sim.advance_to(sim.now() + config.driver_call_sw_cycles);
        sw_cycles += config.driver_call_sw_cycles;
        for (std::size_t m = 0; m < num_outputs; ++m) {
          fold_checksum(report.checksum,
                        fi->corrupt_bus_word(periph.reg_read(
                            PeripheralLayout::kOutputBase + 8 * m)));
        }
      } else {
        ++failed_invocations;
        if (pol.degrade_after != 0 &&
            failed_invocations >= pol.degrade_after) {
          degraded_sticky = true;
        }
        run_fallback(sample);
      }
    }
    report.total_cycles = static_cast<double>(sim.now());
    report.sim_events = sim.events_processed();
    report.bus_accesses = bus.total_accesses();
    report.bus_busy_cycles = bus.busy_cycles();
    report.hw_activations = periph.activations();
    report.profile = obs::Profile(interface_level_name(config.level));
    report.profile.attribute(obs::Profile::kSwExecute, sw_cycles);
    report.profile.attribute(obs::Profile::kBus, bus.busy_cycles());
    report.profile.attribute(obs::Profile::kPeripheralWait, peripheral_wait);
    report.profile.attribute(obs::Profile::kFaultRecovery, fault_wait);
    report.profile.finalize(sim.now());
    return report;
  }

  for (const auto& sample : samples) {
    MHS_CHECK(sample.size() == num_inputs, "sample input arity mismatch");
    // write_block driver call: inputs cross the bus as one block.
    for (std::size_t k = 0; k < num_inputs; ++k) {
      periph.reg_write(PeripheralLayout::kInputBase + 8 * k, sample[k]);
    }
    bus.block_transfer(PeripheralLayout::kInputBase, 8 * num_inputs,
                       /*is_write=*/true);
    sim.advance_to(sim.now() + config.driver_call_sw_cycles);
    sw_cycles += config.driver_call_sw_cycles;
    periph.reg_write(PeripheralLayout::kCtrl, 1);
    // wait driver call: block until the completion event has fired.
    sim.advance_to(sim.now() + periph.latency());
    peripheral_wait += periph.latency();
    MHS_ASSERT(periph.done(), "peripheral not done after latency");
    periph.reg_write(PeripheralLayout::kStatus, 0);
    // read_block driver call.
    bus.block_transfer(PeripheralLayout::kOutputBase, 8 * num_outputs,
                       /*is_write=*/false);
    sim.advance_to(sim.now() + config.driver_call_sw_cycles);
    sw_cycles += config.driver_call_sw_cycles;
    for (std::size_t m = 0; m < num_outputs; ++m) {
      fold_checksum(report.checksum,
                    periph.reg_read(PeripheralLayout::kOutputBase + 8 * m));
    }
  }
  report.total_cycles = static_cast<double>(sim.now());
  report.sim_events = sim.events_processed();
  report.bus_accesses = bus.total_accesses();
  report.bus_busy_cycles = bus.busy_cycles();
  report.hw_activations = periph.activations();
  report.profile = obs::Profile(interface_level_name(config.level));
  report.profile.attribute(obs::Profile::kSwExecute, sw_cycles);
  report.profile.attribute(obs::Profile::kBus, bus.busy_cycles());
  report.profile.attribute(obs::Profile::kPeripheralWait, peripheral_wait);
  report.profile.finalize(sim.now());
  return report;
}

/// Message-level co-simulation: send / compute / receive, evaluated
/// functionally. No bus, no device model — the Coumeri/Thomas [3] style.
CosimReport run_message_level(const hw::HlsResult& impl,
                              const CosimConfig& config,
                              const std::vector<std::vector<std::int64_t>>&
                                  samples, fault::FaultInjector* fi) {
  Simulator sim;
  BusModel bus(sim, config.bus, config.level);
  // Kernel evaluation, precompiled: positional slots are in
  // cdfg.inputs()/outputs() order, matching the samples and the
  // checksum-fold order below.
  const ir::CompiledEval eval(impl.schedule.cdfg());
  std::vector<std::int64_t> eval_in(eval.num_inputs(), 0);
  std::vector<std::int64_t> eval_out(eval.num_outputs(), 0);

  CosimReport report;
  report.level = config.level;
  std::uint64_t activations = 0;

  if (fi != nullptr) {
    // Resilient message-passing model: the send gets a reply deadline;
    // a late (stalled) or absent (hung) reply is a detected timeout, and
    // the OS-level retry protocol re-sends with exponential backoff
    // before degrading to local (software) evaluation of the kernel.
    bus.set_fault_injector(fi);
    const ResiliencePolicy& pol = config.resilience;
    const Time window0 = pol.timeout_cycles != 0
                             ? pol.timeout_cycles
                             : 2 * static_cast<Time>(impl.latency) + 64;
    const Time window_cap =
        window0 * static_cast<Time>(pol.backoff_cap != 0 ? pol.backoff_cap
                                                         : 1);
    const Time fallback_cycles =
        pol.sw_fallback_cycles != 0
            ? pol.sw_fallback_cycles
            : 8 * static_cast<Time>(impl.latency);
    Time peripheral_wait = 0;
    Time fault_wait = 0;
    std::size_t failed_invocations = 0;
    bool degraded_sticky = false;
    RecoveryWindow window;

    const auto evaluate_sample =
        [&](const std::vector<std::int64_t>& sample, bool remote) {
          for (std::size_t k = 0; k < eval.num_inputs(); ++k) {
            // Remote evaluation: the marshalled inputs crossed the bus.
            eval_in[k] =
                remote ? fi->corrupt_bus_word(sample[k]) : sample[k];
          }
          eval.run(eval_in, eval_out);
          for (std::int64_t value : eval_out) {
            if (remote) {
              value = fi->corrupt_bus_word(
                  fi->corrupt_kernel_result(value));
            }
            fold_checksum(report.checksum, value);
          }
        };
    const auto run_fallback = [&](const std::vector<std::int64_t>& sample) {
      sim.advance_to(sim.now() + fallback_cycles);
      fault_wait += fallback_cycles;
      window.degrade(*fi, sim.now());
      evaluate_sample(sample, /*remote=*/false);
    };

    for (const auto& sample : samples) {
      MHS_CHECK(sample.size() == eval.num_inputs(),
                "sample input arity mismatch");
      if (degraded_sticky) {
        run_fallback(sample);
        continue;
      }
      bool got_result = false;
      Time window_cycles = window0;
      for (std::size_t attempt = 0; attempt <= pol.max_retries; ++attempt) {
        if (attempt > 0) fi->note_retry();
        bus.message(8 * eval.num_inputs());  // send
        const std::uint64_t stall = fi->peripheral_stall_cycles();
        const Time reply_at =
            fault::FaultSpec::kHang - stall < static_cast<Time>(impl.latency)
                ? fault::FaultSpec::kHang
                : static_cast<Time>(impl.latency) + stall;
        if (stall == fault::FaultSpec::kHang ||
            reply_at > window_cycles) {
          // Reply missed the deadline: timeout, back off, re-send.
          sim.advance_to(sim.now() + window_cycles);
          fault_wait += window_cycles;
          window.detect(*fi, sim.now());
          window_cycles = std::min(2 * window_cycles, window_cap);
          continue;
        }
        sim.advance_to(sim.now() + reply_at);
        peripheral_wait += reply_at;
        bus.message(8 * eval.num_outputs());  // receive
        got_result = true;
        break;
      }
      if (got_result) {
        window.recover(*fi, sim.now());
        evaluate_sample(sample, /*remote=*/true);
        ++activations;
      } else {
        ++failed_invocations;
        if (pol.degrade_after != 0 &&
            failed_invocations >= pol.degrade_after) {
          degraded_sticky = true;
        }
        run_fallback(sample);
      }
    }
    report.total_cycles = static_cast<double>(sim.now());
    report.sim_events = sim.events_processed();
    report.bus_accesses = bus.total_accesses();
    report.bus_busy_cycles = bus.busy_cycles();
    report.hw_activations = activations;
    report.profile = obs::Profile(interface_level_name(config.level));
    report.profile.attribute(obs::Profile::kBus, bus.busy_cycles());
    report.profile.attribute(obs::Profile::kPeripheralWait, peripheral_wait);
    report.profile.attribute(obs::Profile::kFaultRecovery, fault_wait);
    report.profile.finalize(sim.now());
    return report;
  }

  for (const auto& sample : samples) {
    MHS_CHECK(sample.size() == eval.num_inputs(),
              "sample input arity mismatch");
    bus.message(8 * eval.num_inputs());  // send
    // The receive completes once the consumer has produced the result;
    // computation time is folded into the rendezvous rather than being a
    // separately simulated device activation.
    sim.advance_to(sim.now() + impl.latency);
    bus.message(8 * eval.num_outputs());  // receive
    eval.run(sample, eval_out);
    for (const std::int64_t value : eval_out) {
      fold_checksum(report.checksum, value);
    }
    ++activations;
  }
  report.total_cycles = static_cast<double>(sim.now());
  report.sim_events = sim.events_processed();
  report.bus_accesses = bus.total_accesses();
  report.bus_busy_cycles = bus.busy_cycles();
  report.hw_activations = activations;
  report.profile = obs::Profile(interface_level_name(config.level));
  report.profile.attribute(obs::Profile::kBus, bus.busy_cycles());
  report.profile.attribute(obs::Profile::kPeripheralWait,
                           static_cast<Time>(impl.latency) * activations);
  report.profile.finalize(sim.now());
  return report;
}

}  // namespace

namespace {

CosimReport dispatch_cosim(const hw::HlsResult& impl,
                           const CosimConfig& config,
                           const std::vector<std::vector<std::int64_t>>&
                               sample_inputs, fault::FaultInjector* fi) {
  switch (config.level) {
    case InterfaceLevel::kPin:
    case InterfaceLevel::kRegister:
      return run_iss_levels(impl, config, sample_inputs, fi);
    case InterfaceLevel::kDriver:
      return run_driver_level(impl, config, sample_inputs, fi);
    case InterfaceLevel::kMessage:
      return run_message_level(impl, config, sample_inputs, fi);
  }
  MHS_ASSERT(false, "unknown interface level");
  return {};
}

}  // namespace

CosimReport detail::run_cosim(
    const hw::HlsResult& impl, const CosimConfig& config,
    const std::vector<std::vector<std::int64_t>>& sample_inputs) {
  MHS_CHECK(!sample_inputs.empty(), "co-simulation needs at least 1 sample");
  obs::Span span(interface_level_name(config.level), "cosim");
  const obs::Stopwatch watch;
  // A disabled plan hands nullptr to every hook — the entire simulation
  // then takes exactly the fault-free code paths (bit-identical results
  // and timing to a build without mhs::fault in the picture).
  fault::FaultInjector injector(config.fault_seed, config.fault_plan);
  fault::FaultInjector* fi = injector.enabled() ? &injector : nullptr;
  CosimReport report = dispatch_cosim(impl, config, sample_inputs, fi);
  report.resilience = injector.report();
  if (fi != nullptr && span.active()) {
    const fault::ResilienceReport& res = report.resilience;
    obs::count("fault.injected", res.injected);
    obs::count("fault.detected", res.detected);
    obs::count("fault.recovered", res.recovered);
    obs::count("fault.retries", res.retries);
    obs::count("fault.degradations", res.degradations);
  }
  if (span.active()) {
    obs::count("cosim.runs", 1);
    obs::count("cosim.events", report.sim_events);
    obs::count("cosim.bus_accesses", report.bus_accesses);
    obs::count("cosim.samples", sample_inputs.size());
    // Simulation throughput: simulated cycles per wall-clock second.
    const double wall_s = watch.elapsed_us() / 1e6;
    if (wall_s > 0.0) {
      const double throughput = report.total_cycles / wall_s;
      span.arg("sim_cycles_per_wall_s", fmt(throughput, 0));
      obs::gauge("cosim.cycles_per_wall_s", throughput);
    }
    span.arg("level", interface_level_name(config.level));
  }
  return report;
}

}  // namespace mhs::sim
