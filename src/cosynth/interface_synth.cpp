#include "cosynth/interface_synth.h"

#include <sstream>
#include <utility>

#include "base/table.h"
#include "cosynth/targets.h"
#include "sim/peripheral.h"
#include "sim/run.h"

namespace mhs::cosynth {

std::string InterfaceDesign::summary() const {
  std::ostringstream os;
  const bool irq =
      selected < candidates.size() && candidates[selected].use_irq;
  os << "interface: " << (irq ? "irq" : "polling") << " driver at 0x"
     << std::hex << base_address << std::dec << ", " << fmt(latency(), 1)
     << " cyc/sample";
  return os.str();
}

AddressMapAllocator::AddressMapAllocator(std::uint64_t window_base,
                                         std::uint64_t window_size)
    : base_(window_base), end_(window_base + window_size),
      next_(window_base) {}

std::uint64_t AddressMapAllocator::allocate(std::uint64_t size,
                                            std::uint64_t alignment) {
  MHS_CHECK(alignment != 0 && (alignment & (alignment - 1)) == 0,
            "alignment must be a power of two");
  std::uint64_t addr = (next_ + alignment - 1) & ~(alignment - 1);
  if (addr + size > end_) {
    throw InfeasibleError("MMIO window exhausted");
  }
  next_ = addr + size;
  return addr;
}

InterfaceDesign detail::synthesize_interface(
    const hw::HlsResult& impl, const InterfaceRequirements& reqs,
    const std::vector<std::vector<std::int64_t>>& sample_inputs,
    AddressMapAllocator& allocator) {
  MHS_CHECK(reqs.latency_weight >= 0.0 && reqs.latency_weight <= 1.0,
            "latency_weight out of [0,1]");
  MHS_CHECK(!sample_inputs.empty(), "need evaluation samples");

  InterfaceDesign design;
  design.base_address =
      allocator.allocate(sim::PeripheralLayout::kSize,
                         sim::PeripheralLayout::kSize);

  // Evaluate both driver styles by co-simulation.
  const std::size_t samples =
      std::min(reqs.eval_samples, sample_inputs.size());
  const std::vector<std::vector<std::int64_t>> eval_set(
      sample_inputs.begin(),
      sample_inputs.begin() + static_cast<std::ptrdiff_t>(samples));

  for (const bool use_irq : {false, true}) {
    sim::CosimConfig cfg;
    cfg.level = reqs.eval_level;
    cfg.use_irq = use_irq;
    cfg.background_unroll = use_irq ? reqs.background_unroll : 0;
    cfg.fault_plan = reqs.fault_plan;
    cfg.fault_seed = reqs.fault_seed;
    cfg.resilience = reqs.resilience;
    DriverCandidate cand;
    cand.use_irq = use_irq;
    sim::SimRequest sreq;
    sreq.impl = &impl;
    sreq.samples = &eval_set;
    sreq.cosim = cfg;
    cand.report = std::move(sim::run(sreq).cosim).value();
    cand.cycles_per_sample =
        cand.report.total_cycles / static_cast<double>(eval_set.size());
    cand.background_per_sample =
        static_cast<double>(cand.report.background_units) /
        static_cast<double>(eval_set.size());
    design.candidates.push_back(cand);
  }

  // Score: weighted latency minus the value of background throughput.
  // Normalize each term by the better candidate so the weight is unitless.
  const double min_latency =
      std::min(design.candidates[0].cycles_per_sample,
               design.candidates[1].cycles_per_sample);
  const double max_background =
      std::max({design.candidates[0].background_per_sample,
                design.candidates[1].background_per_sample, 1e-9});
  for (DriverCandidate& cand : design.candidates) {
    const double latency_term = cand.cycles_per_sample / min_latency - 1.0;
    const double background_term =
        1.0 - cand.background_per_sample / max_background;
    cand.score = reqs.latency_weight * latency_term +
                 (1.0 - reqs.latency_weight) * background_term;
  }
  design.selected =
      design.candidates[0].score <= design.candidates[1].score ? 0 : 1;

  // Generate the selected driver against the allocated base address.
  const ir::Cdfg& cdfg = impl.schedule.cdfg();
  sim::DriverSpec spec;
  spec.periph_base = design.base_address;
  spec.num_inputs = cdfg.inputs().size();
  spec.num_outputs = cdfg.outputs().size();
  spec.samples = sample_inputs.size();
  spec.use_irq = design.candidates[design.selected].use_irq;
  spec.background_unroll = spec.use_irq ? reqs.background_unroll : 0;
  design.driver = sim::generate_driver(spec);
  return design;
}

}  // namespace mhs::cosynth
