#include "cosynth/run.h"

#include "analysis/verify.h"
#include "cosynth/targets.h"
#include "obs/obs.h"

namespace mhs::cosynth {

namespace {

/// Pre-dispatch analysis gate: verifies every IR input the chosen target
/// will read. Returns the findings; throws analysis::VerifyFailure on
/// any ERROR finding (a dispatcher cannot skip a broken input the way
/// the flow skips a broken kernel).
analysis::Diagnostics gate_request(Target target, const Request& request) {
  analysis::Diagnostics diags;
  switch (target) {
    case Target::kCoprocessor:
      if (request.model != nullptr) {
        diags.merge(analysis::verify(request.model->graph()));
      }
      break;
    case Target::kAsip:
      for (const WeightedKernel& app : request.apps) {
        if (app.kernel != nullptr) diags.merge(analysis::verify(*app.kernel));
      }
      break;
    case Target::kMixed:
      if (request.graph != nullptr) {
        diags.merge(analysis::verify(*request.graph));
      }
      if (request.kernels != nullptr) {
        for (const ir::Cdfg* kernel : *request.kernels) {
          if (kernel != nullptr) diags.merge(analysis::verify(*kernel));
        }
      }
      break;
    case Target::kInterface:
      if (request.impl != nullptr) {
        diags.merge(analysis::verify(*request.impl));
      }
      break;
    case Target::kImplSelect:
      break;  // menus carry no IR
    case Target::kMultiprocPeriodic:
      if (request.graph != nullptr) {
        diags.merge(analysis::verify(*request.graph));
      }
      break;
  }
  if (diags.has_errors()) {
    throw analysis::VerifyFailure(target_name(target), diags);
  }
  return diags;
}

}  // namespace

const char* target_name(Target target) {
  switch (target) {
    case Target::kCoprocessor:       return "coprocessor";
    case Target::kAsip:              return "asip";
    case Target::kMixed:             return "mixed";
    case Target::kInterface:         return "interface";
    case Target::kImplSelect:        return "impl_select";
    case Target::kMultiprocPeriodic: return "multiproc_periodic";
  }
  return "?";
}

double Result::latency() const {
  switch (target) {
    case Target::kCoprocessor:       return coprocessor->latency();
    case Target::kAsip:              return asip->latency();
    case Target::kMixed:             return mixed->latency();
    case Target::kInterface:         return iface->latency();
    case Target::kImplSelect:        return impl_select->latency();
    case Target::kMultiprocPeriodic: return multiproc->latency();
  }
  return 0.0;
}

double Result::area() const {
  switch (target) {
    case Target::kCoprocessor:       return coprocessor->area();
    case Target::kAsip:              return asip->area();
    case Target::kMixed:             return mixed->area();
    case Target::kInterface:         return iface->area();
    case Target::kImplSelect:        return impl_select->area();
    case Target::kMultiprocPeriodic: return multiproc->area();
  }
  return 0.0;
}

std::string Result::summary() const {
  switch (target) {
    case Target::kCoprocessor:       return coprocessor->summary();
    case Target::kAsip:              return asip->summary();
    case Target::kMixed:             return mixed->summary();
    case Target::kInterface:         return iface->summary();
    case Target::kImplSelect:        return impl_select->summary();
    case Target::kMultiprocPeriodic: return multiproc->summary();
  }
  return {};
}

Result run(Target target, const Request& request) {
  obs::Span span(target_name(target), "cosynth");
  Result result;
  result.target = target;
  if (request.lint_level != analysis::LintLevel::kOff) {
    obs::Span gate("verify.request", "analysis");
    result.diagnostics = gate_request(target, request);
  }
  switch (target) {
    case Target::kCoprocessor:
      MHS_CHECK(request.model != nullptr,
                "cosynth::run(kCoprocessor) needs request.model");
      result.coprocessor = detail::synthesize_coprocessor(
          *request.model, request.objective, request.strategy);
      break;
    case Target::kAsip:
      result.asip = detail::synthesize_asip(request.apps, request.cpu,
                                            request.area_budget);
      break;
    case Target::kMixed:
      MHS_CHECK(request.graph != nullptr && request.kernels != nullptr,
                "cosynth::run(kMixed) needs request.graph and "
                "request.kernels");
      result.mixed = detail::synthesize_mixed(
          *request.graph, *request.kernels, request.cpu, request.library,
          request.area_budget, request.comm);
      break;
    case Target::kInterface:
      MHS_CHECK(request.impl != nullptr && request.samples != nullptr &&
                    request.allocator != nullptr,
                "cosynth::run(kInterface) needs request.impl, "
                "request.samples, and request.allocator");
      result.iface = detail::synthesize_interface(
          *request.impl, request.interface_reqs, *request.samples,
          *request.allocator);
      break;
    case Target::kImplSelect:
      result.impl_select =
          detail::select_implementations(request.menus, request.area_budget);
      break;
    case Target::kMultiprocPeriodic:
      MHS_CHECK(request.graph != nullptr,
                "cosynth::run(kMultiprocPeriodic) needs request.graph");
      result.multiproc = detail::synthesize_periodic(
          *request.graph,
          request.catalog.empty() ? default_pe_catalog() : request.catalog);
      break;
  }
  return result;
}

}  // namespace mhs::cosynth
