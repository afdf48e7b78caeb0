#include "fault/fault.h"

#include <sstream>

#include "base/error.h"

namespace mhs::fault {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBusBitFlip:             return "bus_bit_flip";
    case FaultKind::kBusGrantStarvation:     return "bus_grant_starvation";
    case FaultKind::kDmaDrop:                return "dma_drop";
    case FaultKind::kDmaDuplicate:           return "dma_duplicate";
    case FaultKind::kPeripheralStall:        return "peripheral_stall";
    case FaultKind::kStuckAtPin:             return "stuck_at_pin";
    case FaultKind::kKernelResultCorruption: return "kernel_result_corruption";
  }
  return "?";
}

// ------------------------------------------------------------- FaultSpec

FaultSpec FaultSpec::bus_bit_flip(double rate, std::uint64_t bit) {
  MHS_CHECK(bit <= kRandomBit, "bit index must be 0..63 or kRandomBit");
  return FaultSpec{FaultKind::kBusBitFlip, rate, bit, UINT64_MAX};
}

FaultSpec FaultSpec::bus_grant_starvation(double rate, std::uint64_t cycles) {
  MHS_CHECK(cycles > 0, "starvation of zero cycles is not a fault");
  return FaultSpec{FaultKind::kBusGrantStarvation, rate, cycles, UINT64_MAX};
}

FaultSpec FaultSpec::dma_drop(double rate) {
  return FaultSpec{FaultKind::kDmaDrop, rate, 0, UINT64_MAX};
}

FaultSpec FaultSpec::dma_duplicate(double rate) {
  return FaultSpec{FaultKind::kDmaDuplicate, rate, 0, UINT64_MAX};
}

FaultSpec FaultSpec::peripheral_stall(double rate,
                                      std::uint64_t extra_cycles) {
  MHS_CHECK(extra_cycles > 0, "stall of zero cycles is not a fault");
  return FaultSpec{FaultKind::kPeripheralStall, rate, extra_cycles,
                   UINT64_MAX};
}

FaultSpec FaultSpec::peripheral_hang(double rate) {
  return FaultSpec{FaultKind::kPeripheralStall, rate, kHang, UINT64_MAX};
}

FaultSpec FaultSpec::stuck_at(double rate, std::uint64_t bit, bool value) {
  MHS_CHECK(bit < 64, "stuck-at line index must be 0..63");
  return FaultSpec{FaultKind::kStuckAtPin, rate,
                   bit | (value ? 0x40ull : 0ull), UINT64_MAX};
}

FaultSpec FaultSpec::kernel_result_corruption(double rate,
                                              std::uint64_t xor_mask) {
  return FaultSpec{FaultKind::kKernelResultCorruption, rate, xor_mask,
                   UINT64_MAX};
}

// ------------------------------------------------------------- FaultPlan

bool FaultPlan::enabled() const {
  for (const FaultSpec& spec : specs) {
    if (spec.rate > 0.0 && spec.max_count > 0) return true;
  }
  return false;
}

std::string FaultPlan::summary() const {
  std::ostringstream os;
  if (specs.empty()) {
    os << "(empty fault plan)\n";
    return os.str();
  }
  for (const FaultSpec& spec : specs) {
    os << fault_kind_name(spec.kind) << " rate=" << spec.rate;
    if (spec.param != 0) {
      if (spec.param == FaultSpec::kHang) {
        os << " param=hang";
      } else {
        os << " param=" << spec.param;
      }
    }
    if (spec.max_count != UINT64_MAX) os << " max_count=" << spec.max_count;
    os << "\n";
  }
  return os.str();
}

// ------------------------------------------------------ ResilienceReport

bool ResilienceReport::invariants_hold() const {
  if (detected > injected) return false;
  if (recovered > detected) return false;
  std::uint64_t by_kind = 0;
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    by_kind += injected_by_kind[k];
  }
  return by_kind == injected;
}

void ResilienceReport::merge(const ResilienceReport& other) {
  injected += other.injected;
  detected += other.detected;
  recovered += other.recovered;
  retries += other.retries;
  degradations += other.degradations;
  recovery_cycles += other.recovery_cycles;
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    injected_by_kind[k] += other.injected_by_kind[k];
  }
}

std::string ResilienceReport::summary() const {
  std::ostringstream os;
  os << "faults injected=" << injected << " detected=" << detected
     << " recovered=" << recovered << " retries=" << retries
     << " degradations=" << degradations
     << " recovery_cycles=" << recovery_cycles << "\n";
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    if (injected_by_kind[k] == 0) continue;
    os << "  " << fault_kind_name(kAllFaultKinds[k]) << ": "
       << injected_by_kind[k] << "\n";
  }
  return os.str();
}

// --------------------------------------------------------- FaultInjector

FaultInjector::FaultInjector(std::uint64_t seed, FaultPlan plan)
    : seed_(seed),
      plan_(std::move(plan)),
      enabled_(plan_.enabled()),
      rng_(seed),
      fired_(plan_.specs.size(), 0) {}

bool FaultInjector::fires(std::size_t spec_index) {
  const FaultSpec& spec = plan_.specs[spec_index];
  // Draw unconditionally for every rate>0 spec consulted at this
  // opportunity, even when the budget is spent: the stream position then
  // depends only on the number of opportunities, never on how earlier
  // draws landed, which keeps downstream specs' schedules stable when one
  // spec's budget changes.
  if (spec.rate <= 0.0) return false;
  const bool hit = rng_.uniform() < spec.rate;
  if (!hit || fired_[spec_index] >= spec.max_count) return false;
  ++fired_[spec_index];
  ++report_.injected;
  ++report_.injected_by_kind[static_cast<std::size_t>(spec.kind)];
  return true;
}

std::int64_t FaultInjector::corrupt_bus_word(std::int64_t value) {
  auto word = static_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.kind == FaultKind::kBusBitFlip) {
      // Draw the bit choice only on a hit, after the Bernoulli draw, so
      // the stream advances a fixed amount per miss.
      if (fires(i)) {
        const std::uint64_t bit =
            spec.param == FaultSpec::kRandomBit ? rng_.next() % 64 : spec.param;
        word ^= 1ull << bit;
      }
    } else if (spec.kind == FaultKind::kStuckAtPin) {
      if (!stuck_active_ && fires(i)) {
        stuck_active_ = true;
        stuck_bit_ = spec.param & 0x3f;
        stuck_value_ = (spec.param & 0x40) != 0;
      }
    }
  }
  // A stuck line distorts every word crossing it from the moment it
  // latches. Each actually-distorted word counts as an injection (the
  // spec's budget only limits the latch), so the injected >= detected
  // invariant survives resilience machinery that notices every
  // distortion — e.g. write-verify flagging each corrupted readback.
  if (stuck_active_) {
    const std::uint64_t before = word;
    if (stuck_value_) {
      word |= 1ull << stuck_bit_;
    } else {
      word &= ~(1ull << stuck_bit_);
    }
    if (word != before) {
      ++report_.injected;
      ++report_.injected_by_kind[
          static_cast<std::size_t>(FaultKind::kStuckAtPin)];
    }
  }
  return static_cast<std::int64_t>(word);
}

std::uint64_t FaultInjector::grant_starvation_cycles() {
  std::uint64_t extra = 0;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.kind != FaultKind::kBusGrantStarvation) continue;
    if (fires(i)) extra += spec.param;
  }
  return extra;
}

bool FaultInjector::drop_dma_burst() {
  bool drop = false;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    if (plan_.specs[i].kind != FaultKind::kDmaDrop) continue;
    if (fires(i)) drop = true;
  }
  return drop;
}

bool FaultInjector::duplicate_dma_burst() {
  bool dup = false;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    if (plan_.specs[i].kind != FaultKind::kDmaDuplicate) continue;
    if (fires(i)) dup = true;
  }
  return dup;
}

std::uint64_t FaultInjector::peripheral_stall_cycles() {
  std::uint64_t extra = 0;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.kind != FaultKind::kPeripheralStall) continue;
    if (!fires(i)) continue;
    if (spec.param == FaultSpec::kHang) return FaultSpec::kHang;
    extra += spec.param;
  }
  return extra;
}

std::int64_t FaultInjector::corrupt_kernel_result(std::int64_t value) {
  auto word = static_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.kind != FaultKind::kKernelResultCorruption) continue;
    if (!fires(i)) continue;
    std::uint64_t mask = spec.param;
    if (mask == 0) {
      do {
        mask = rng_.next();
      } while (mask == 0);
    }
    word ^= mask;
  }
  return static_cast<std::int64_t>(word);
}

}  // namespace mhs::fault
