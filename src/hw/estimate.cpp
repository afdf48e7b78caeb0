#include "hw/estimate.h"

#include <algorithm>
#include <cmath>

namespace mhs::hw {

double shared_area(const ComponentLibrary& lib, const FuCounts& max_fu,
                   std::size_t max_regs, std::size_t total_states,
                   double total_wiring) {
  double area = max_fu.area(lib);
  area += lib.register_area * static_cast<double>(max_regs);
  std::size_t ctrl_bits = max_regs;
  for (std::size_t t = 0; t < kNumFuTypes; ++t) ctrl_bits += max_fu.count[t];
  area += lib.controller_base_area +
          lib.controller_area_per_state * static_cast<double>(total_states) +
          lib.controller_area_per_ctrl_bit * static_cast<double>(ctrl_bits);
  area += total_wiring;
  return area;
}

HwProfile profile_from_hls(const HlsResult& impl) {
  HwProfile p;
  p.fu = impl.binding.fu_counts;
  if (impl.binding.register_width.empty()) {
    p.registers = impl.binding.num_registers;
  } else {
    // Narrowed datapath: count word-equivalent registers (total proven
    // bits rounded up to 64-bit words) so the sharing estimator keeps
    // its word-granular units. Uniform 64-bit widths reduce exactly to
    // num_registers.
    std::size_t bits = 0;
    for (const std::size_t w : impl.binding.register_width) bits += w;
    p.registers = (bits + 63) / 64;
  }
  p.states = impl.controller.num_states();
  p.wiring = impl.area.muxes;  // steering logic is function-specific
  return p;
}

HwProfile profile_from_costs(const ir::TaskCosts& costs,
                             const ComponentLibrary& lib) {
  HwProfile p;
  // Interpret hw_area as the stand-alone implementation cost and hw_cycles
  // as its latency. Decompose: ~55% datapath FUs, ~15% registers, ~10%
  // wiring; the controller share is implied by hw_cycles (states).
  const double fu_budget = costs.hw_area * 0.55;
  // Distribute the FU budget over ALU/MUL capacity proportional to the
  // task's parallelism annotation (parallel tasks want wider datapaths).
  const double alu_area = lib.spec(FuType::kAlu).area;
  const double mul_area = lib.spec(FuType::kMul).area;
  const double width = 1.0 + 3.0 * costs.parallelism;
  const double unit = alu_area + 0.5 * mul_area;
  const double copies = std::max(1.0, fu_budget / (unit * width)) * width;
  p.fu[FuType::kAlu] = static_cast<std::size_t>(std::max(1.0, copies));
  p.fu[FuType::kMul] =
      static_cast<std::size_t>(std::max(0.0, std::round(copies * 0.5)));
  p.registers = static_cast<std::size_t>(
      std::max(1.0, costs.hw_area * 0.15 / lib.register_area));
  p.states = static_cast<std::size_t>(std::max(1.0, costs.hw_cycles));
  p.wiring = costs.hw_area * 0.10;
  return p;
}

double shared_area_from_scratch(const ComponentLibrary& lib,
                                std::span<const HwProfile> residents) {
  if (residents.empty()) return 0.0;
  FuCounts max_fu;
  std::size_t max_regs = 0;
  std::size_t total_states = 0;
  double total_wiring = 0.0;
  for (const HwProfile& p : residents) {
    for (std::size_t t = 0; t < kNumFuTypes; ++t) {
      max_fu.count[t] = std::max(max_fu.count[t], p.fu.count[t]);
    }
    max_regs = std::max(max_regs, p.registers);
    total_states += p.states;
    total_wiring += p.wiring;
  }
  return shared_area(lib, max_fu, max_regs, total_states, total_wiring);
}

IncrementalAreaEstimator::IncrementalAreaEstimator(
    const ComponentLibrary& lib)
    : lib_(&lib) {}

void IncrementalAreaEstimator::add(std::size_t key,
                                   const HwProfile& profile) {
  MHS_CHECK(!contains(key), "function " << key << " already resident");
  profiles_.emplace(key, profile);
  for (std::size_t t = 0; t < kNumFuTypes; ++t) {
    ++fu_counts_[t][profile.fu.count[t]];
  }
  ++register_counts_[profile.registers];
  total_states_ += profile.states;
  total_wiring_ += profile.wiring;
}

void IncrementalAreaEstimator::remove(std::size_t key) {
  const auto it = profiles_.find(key);
  MHS_CHECK(it != profiles_.end(), "function " << key << " not resident");
  const HwProfile& profile = it->second;
  for (std::size_t t = 0; t < kNumFuTypes; ++t) {
    auto cit = fu_counts_[t].find(profile.fu.count[t]);
    MHS_ASSERT(cit != fu_counts_[t].end(), "estimator bookkeeping lost");
    if (--cit->second == 0) fu_counts_[t].erase(cit);
  }
  auto rit = register_counts_.find(profile.registers);
  MHS_ASSERT(rit != register_counts_.end(), "estimator bookkeeping lost");
  if (--rit->second == 0) register_counts_.erase(rit);
  total_states_ -= profile.states;
  total_wiring_ -= profile.wiring;
  profiles_.erase(it);
}

bool IncrementalAreaEstimator::contains(std::size_t key) const {
  return profiles_.count(key) != 0;
}

double IncrementalAreaEstimator::area() const {
  if (profiles_.empty()) return 0.0;
  FuCounts max_fu;
  for (std::size_t t = 0; t < kNumFuTypes; ++t) {
    max_fu.count[t] = fu_counts_[t].empty() ? 0 : fu_counts_[t].rbegin()->first;
  }
  const std::size_t max_regs =
      register_counts_.empty() ? 0 : register_counts_.rbegin()->first;
  return shared_area(*lib_, max_fu, max_regs, total_states_, total_wiring_);
}

}  // namespace mhs::hw
