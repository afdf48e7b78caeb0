#include "sim/run.h"

#include "base/table.h"
#include "sim/levels.h"

namespace mhs::sim {

const char* level_name(Level level) {
  switch (level) {
    case Level::kAccelerator: return "accelerator";
    case Level::kProcess:     return "process";
    case Level::kSystem:      return "system";
  }
  return "?";
}

std::optional<Level> parse_level(const std::string& name) {
  for (const Level level : kAllLevels) {
    if (name == level_name(level)) return level;
  }
  return std::nullopt;
}

double SimResult::total_cycles() const {
  switch (level) {
    case Level::kAccelerator: return cosim->total_cycles;
    case Level::kProcess:     return os->makespan;
    case Level::kSystem:      return system->makespan;
  }
  return 0.0;
}

std::uint64_t SimResult::sim_events() const {
  switch (level) {
    case Level::kAccelerator: return cosim->sim_events;
    case Level::kProcess:     return os->sim_events;
    case Level::kSystem:      return system->sim_events;
  }
  return 0;
}

std::string SimResult::summary() const {
  switch (level) {
    case Level::kAccelerator:
      return std::string("cosim[") + interface_level_name(cosim->level) +
             "] cycles=" + fmt(cosim->total_cycles, 1) +
             " events=" + fmt(static_cast<std::size_t>(cosim->sim_events)) +
             " checksum=" + fmt(static_cast<long long>(cosim->checksum));
    case Level::kProcess:
      return std::string("os_cosim makespan=") + fmt(os->makespan, 1) +
             " events=" + fmt(static_cast<std::size_t>(os->sim_events)) +
             (os->deadlocked ? " DEADLOCK" : "");
    case Level::kSystem:
      return std::string("system_cosim makespan=") +
             fmt(system->makespan, 1) +
             " events=" + fmt(static_cast<std::size_t>(system->sim_events));
  }
  return {};
}

SimResult run(const SimRequest& request) {
  SimResult result;
  result.level = request.level;
  switch (request.level) {
    case Level::kAccelerator:
      MHS_CHECK(request.impl != nullptr && request.samples != nullptr,
                "sim::run(kAccelerator) needs request.impl and "
                "request.samples");
      result.cosim =
          detail::run_cosim(*request.impl, request.cosim, *request.samples);
      break;
    case Level::kProcess:
      MHS_CHECK(request.network != nullptr && request.in_hw != nullptr,
                "sim::run(kProcess) needs request.network and "
                "request.in_hw");
      result.os = detail::run_message_cosim(*request.network,
                                            *request.in_hw, request.os);
      break;
    case Level::kSystem:
      MHS_CHECK(request.graph != nullptr && request.mapping != nullptr,
                "sim::run(kSystem) needs request.graph and "
                "request.mapping");
      result.system = detail::run_system_cosim(*request.graph,
                                               *request.mapping,
                                               request.system);
      break;
  }
  return result;
}

}  // namespace mhs::sim
