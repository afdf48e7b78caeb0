#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/json.h"

namespace mhsbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string machine_json() {
  std::ostringstream os;
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"compiler\":\"" << mhs::obs::json_escape(compiler)
     << "\",\"build_type\":\"" << MHSBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void Result::fail(const std::string& why) {
  ++failed;
  std::cerr << "check failed: " << why << "\n";
}

void print_result(const Result& result) {
  std::printf("%-36s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : result.metrics) {
    std::printf("%-36s %16.6f  %-6s %s\n", name.c_str(), m.value,
                m.unit.c_str(),
                m.samples == 0 ? "exact" : std::to_string(m.samples).c_str());
  }
  std::cout << result_json(result, false) << std::endl;
}

std::string result_json(const Result& result, bool detail) {
  std::ostringstream os;
  os << "{\"correct\":" << (result.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << result.attempted
     << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!first) os << ",";
    first = false;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << "\"" << name << "\":{\"value\":" << value << ",\"unit\":\""
       << m.unit << "\"";
    if (detail) os << ",\"samples\":" << m.samples;
    os << "}";
  }
  os << "}";
  if (detail) os << ",\"machine\":" << machine_json();
  os << "}";
  return os.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

double Tracer::total_ms(const std::string& layer) const {
  const auto it = totals_ms_.find(layer);
  return it == totals_ms_.end() ? 0.0 : it->second;
}

void Tracer::close(const char* layer, double start_us) {
  const double end_us = mhs::obs::now_us();
  --depth_;
  const double dur_ms = (end_us - start_us) / 1000.0;
  totals_ms_[layer] += dur_ms;
  if (depth_ == 0) op_top_ms_ += dur_ms;
  mhs::obs::SpanEvent event;
  event.name = layer;
  event.category = "perfbench";
  event.start_us = start_us - registry_.epoch_us();
  event.dur_us = end_us - start_us;
  registry_.record(std::move(event));
}

}  // namespace mhsbench
