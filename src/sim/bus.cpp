#include "sim/bus.h"

namespace mhs::sim {

const char* interface_level_name(InterfaceLevel level) {
  switch (level) {
    case InterfaceLevel::kPin:      return "pin";
    case InterfaceLevel::kRegister: return "register";
    case InterfaceLevel::kDriver:   return "driver";
    case InterfaceLevel::kMessage:  return "message";
  }
  return "?";
}

BusModel::BusModel(Simulator& sim, BusConfig config, InterfaceLevel level)
    : sim_(&sim),
      config_(config),
      level_(level),
      addr_pins_(sim, "bus.addr"),
      data_pins_(sim, "bus.data"),
      strobe_(sim, "bus.strobe"),
      rw_(sim, "bus.rw"),
      ack_(sim, "bus.ack") {
  MHS_CHECK(config_.width_bytes >= 1, "bus width must be >= 1 byte");
  if (obs::Registry* r = obs::registry()) {
    grant_wait_hist_ = &r->histogram("bus.grant_wait_cycles");
  }
}

std::size_t BusModel::words_for(std::size_t bytes) const {
  return (bytes + config_.width_bytes - 1) / config_.width_bytes;
}

Time BusModel::word_cost() const {
  return config_.arbitration_cycles + config_.address_phase_cycles +
         config_.data_wait_states + 1;  // +1 data phase
}

Time BusModel::block_cost(std::size_t bytes) const {
  const std::size_t words = words_for(bytes);
  switch (level_) {
    case InterfaceLevel::kPin:
      return static_cast<Time>(words) * word_cost();
    case InterfaceLevel::kRegister:
      // Arbitrate once per burst; address/wait/data per word.
      return config_.arbitration_cycles +
             static_cast<Time>(words) * (config_.address_phase_cycles +
                                         config_.data_wait_states + 1);
    case InterfaceLevel::kDriver:
      // Driver-call abstraction: setup plus one cycle per word.
      return config_.driver_setup_cycles + static_cast<Time>(words);
    case InterfaceLevel::kMessage:
      return config_.message_overhead_cycles;
  }
  return 0;
}

void BusModel::emit_pin_handshake(std::uint64_t addr, bool is_write,
                                  Time offset) {
  // One event per bus cycle: arbitration grant, address phase, each wait
  // state, data phase with ack, release.
  Time t = offset;
  sim_->schedule(t, [this, addr, is_write] {
    addr_pins_.write(addr);
    rw_.write(is_write);
  });
  t += config_.arbitration_cycles;
  sim_->schedule(t, [this] { strobe_.write(true); });
  t += config_.address_phase_cycles;
  // Wait states are pure filler (the slave is simply not ready): null
  // events keep the per-bus-cycle event count without closure cost.
  sim_->schedule_null_batch(t, 1, config_.data_wait_states);
  t += config_.data_wait_states;
  sim_->schedule(t, [this] { ack_.write(true); });
  t += 1;
  sim_->schedule(t, [this] {
    strobe_.write(false);
    ack_.write(false);
  });
}

Time BusModel::access(std::uint64_t addr, bool is_write) {
  ++total_accesses_;
  total_bytes_ += config_.width_bytes;
  const Time t0 = sim_->now();
  // Multi-master arbitration: wait for any in-flight reservation (e.g. a
  // DMA burst) — or an injected phantom master — to release the bus
  // before this access starts.
  const Time start = std::max(t0, free_at_) + starvation_delay();
  const Time wait = start - t0;
  record_grant_wait(wait);
  Time cost = 0;
  switch (level_) {
    case InterfaceLevel::kPin:
      cost = word_cost();
      emit_pin_handshake(addr, is_write, wait);
      break;
    case InterfaceLevel::kRegister:
      cost = word_cost();
      sim_->schedule_null(wait + cost);  // transaction-level access
      break;
    case InterfaceLevel::kDriver:
    case InterfaceLevel::kMessage:
      // Single accesses at these levels cost one abstract interaction.
      cost = block_cost(config_.width_bytes);
      sim_->schedule_null(wait + cost);
      break;
  }
  busy_cycles_ += cost;
  free_at_ = start + cost;
  sim_->advance_to(start + cost);
  return wait + cost;
}

BusModel::Reservation BusModel::reserve(Time earliest, std::size_t bytes) {
  MHS_CHECK(bytes > 0, "zero-byte bus reservation");
  ++total_accesses_;
  total_bytes_ += bytes;
  const Time granted = std::max(earliest, free_at_) + starvation_delay();
  record_grant_wait(granted - earliest);
  const Time cost = block_cost(bytes);
  free_at_ = granted + cost;
  busy_cycles_ += cost;
  return Reservation{granted, free_at_};
}

Time BusModel::block_transfer(std::uint64_t addr, std::size_t bytes,
                              bool is_write) {
  MHS_CHECK(bytes > 0, "zero-byte block transfer");
  ++total_accesses_;
  total_bytes_ += bytes;
  const Time t0 = sim_->now();
  const Time start = std::max(t0, free_at_) + starvation_delay();
  const Time wait = start - t0;
  record_grant_wait(wait);
  const Time cost = block_cost(bytes);
  switch (level_) {
    case InterfaceLevel::kPin: {
      const std::size_t words = words_for(bytes);
      for (std::size_t w = 0; w < words; ++w) {
        emit_pin_handshake(addr + w * config_.width_bytes, is_write,
                           wait + static_cast<Time>(w) * word_cost());
      }
      break;
    }
    case InterfaceLevel::kRegister: {
      const std::size_t words = words_for(bytes);
      // One event per word at the transaction level — the whole burst
      // enqueues as one null batch.
      const Time per_word =
          config_.address_phase_cycles + config_.data_wait_states + 1;
      sim_->schedule_null_batch(wait + config_.arbitration_cycles + per_word,
                                per_word, words);
      break;
    }
    case InterfaceLevel::kDriver:
    case InterfaceLevel::kMessage:
      sim_->schedule_null(wait + cost);
      break;
  }
  busy_cycles_ += cost;
  free_at_ = start + cost;
  sim_->advance_to(start + cost);
  return wait + cost;
}

Time BusModel::message(std::size_t bytes) {
  ++total_accesses_;
  total_bytes_ += bytes;
  const Time t0 = sim_->now();
  const Time start = std::max(t0, free_at_) + starvation_delay();
  const Time cost = config_.message_overhead_cycles;
  sim_->schedule_null(start - t0 + cost);
  busy_cycles_ += cost;
  free_at_ = start + cost;
  sim_->advance_to(start + cost);
  return start + cost - t0;
}

}  // namespace mhs::sim
