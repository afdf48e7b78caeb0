#include "hw/hls.h"

#include "obs/obs.h"

namespace mhs::hw {

namespace {

FuCounts single_of_each_used(const ir::Cdfg& cdfg) {
  FuCounts counts;
  for (const ir::OpId id : cdfg.op_ids()) {
    const ir::Op& op = cdfg.op(id);
    if (ir::op_is_compute(op.kind)) {
      counts[fu_for_op(op.kind)] = 1;
    }
  }
  return counts;
}

Schedule make_schedule(const ir::Cdfg& cdfg, const ComponentLibrary& lib,
                       const HlsConstraints& c) {
  switch (c.goal) {
    case HlsGoal::kMinLatency:
      return asap_schedule(cdfg, lib);
    case HlsGoal::kMinArea:
      return list_schedule(cdfg, lib, single_of_each_used(cdfg));
    case HlsGoal::kLatencyConstrained:
      return force_directed_schedule(cdfg, lib, c.latency_bound);
    case HlsGoal::kResourceConstrained:
      return list_schedule(cdfg, lib, c.resources);
  }
  MHS_ASSERT(false, "unknown HLS goal");
  return asap_schedule(cdfg, lib);
}

}  // namespace

AreaReport compute_area(const Schedule& schedule, const Binding& binding,
                        const Controller& controller) {
  const ComponentLibrary& lib = schedule.library();
  AreaReport area;
  // With proven per-instance widths the word-wide FU/register costs
  // scale by width/64 (the library areas characterize 64-bit units and
  // FU/register area is dominated by the per-bit slice). Without widths
  // the legacy formulas run verbatim so historic area numbers stay
  // bit-exact. Muxes keep the word-wide model either way: steering cost
  // is already a small term and its width is set by the widest value
  // routed through the port, which the binding does not track per port.
  const bool narrowed = schedule.has_op_widths();
  if (narrowed) {
    area.fu = 0.0;
    for (std::size_t ti = 0; ti < kNumFuTypes; ++ti) {
      const FuType type = all_fu_types()[ti];
      for (const std::size_t w : binding.fu_width[ti]) {
        area.fu += lib.spec(type).area * static_cast<double>(w) / 64.0;
      }
    }
    area.registers = 0.0;
    for (const std::size_t w : binding.register_width) {
      area.registers += lib.register_area * static_cast<double>(w) / 64.0;
    }
  } else {
    area.fu = binding.fu_counts.area(lib);
    area.registers =
        lib.register_area * static_cast<double>(binding.num_registers);
  }
  // An n-input mux costs n-1 2:1 legs.
  double legs = 0.0;
  for (const std::size_t sources : binding.mux_port_sources) {
    legs += static_cast<double>(sources - 1);
  }
  area.muxes = lib.mux_leg_area * legs;
  area.controller = controller.area(lib);
  return area;
}

HlsResult synthesize(const ir::Cdfg& cdfg, const ComponentLibrary& lib,
                     const HlsConstraints& constraints) {
  Schedule schedule = make_schedule(cdfg, lib, constraints);
  if (!constraints.op_width.empty()) {
    schedule.set_op_widths(constraints.op_width);
  }
  Binding binding = bind(schedule);
  Controller controller(schedule, binding);
  AreaReport area = compute_area(schedule, binding, controller);
  const std::size_t latency = schedule.num_steps();
  obs::count("hls.syntheses");
  obs::observe("hls.schedule_len", latency);
  return HlsResult{std::move(schedule), std::move(binding),
                   std::move(controller), area, latency};
}

}  // namespace mhs::hw
