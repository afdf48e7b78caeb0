// Measurement helpers of the benchmark driver: sample statistics, the
// process's peak RSS, the machine description, the in-memory span
// recorder the traced run uses, and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace mhsbench {

/// Milliseconds on the obs clock (monotonic).
inline double now_ms() { return mhs::obs::now_us() / 1000.0; }

/// Linearly interpolated quantile (q in [0, 1]) of `samples`; 0 when
/// empty.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set size of this process so far, in MiB (getrusage).
double peak_rss_mb();

/// One JSON object naming nproc, the compiler and the build type.
std::string machine_json();

/// FNV-1a of a byte string (response identity checks).
std::uint64_t fnv1a(const std::string& text);

/// One reported metric: its value, unit and the number of samples behind
/// it (0 for exact counts and ratios of counts).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one benchmark run produced.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< failed or wrong operations
  std::map<std::string, Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records one failed check with its reason on stderr.
  void fail(const std::string& why);
};

/// The JSON result object; with `detail`, each metric also carries its
/// sample count and the object names the machine.
std::string result_json(const Result& result, bool detail);

/// Prints the human-readable table (metric, value, unit, samples) and,
/// as the last line of stdout, the JSON result object.
void print_result(const Result& result);

/// Writes `text` to `path`; false on I/O failure.
bool write_file(const std::string& path, const std::string& text);

/// The traced run's span recorder: each call() times one call into a
/// layer's public function, records it as a span in the registry (so it
/// lands in the Chrome trace) and adds its duration to the layer total.
/// Nested calls are allowed; `top_level_ms()` sums only the outermost
/// calls of the current op, which is what the layer sum compares with
/// the op's untraced wall time.
class Tracer {
 public:
  explicit Tracer(mhs::obs::Registry& registry) : registry_(registry) {}

  template <typename F>
  auto call(const char* layer, F&& fn) {
    const double start = mhs::obs::now_us();
    ++depth_;
    struct Close {
      Tracer* self;
      const char* layer;
      double start;
      ~Close() { self->close(layer, start); }
    } close{this, layer, start};
    return fn();
  }

  /// Starts a new op: resets the per-op top-level sum.
  void begin_op() { op_top_ms_ = 0.0; }
  double top_level_ms() const { return op_top_ms_; }

  /// Total milliseconds spent in `layer` so far (all depths).
  double total_ms(const std::string& layer) const;

 private:
  void close(const char* layer, double start_us);

  mhs::obs::Registry& registry_;
  int depth_ = 0;
  double op_top_ms_ = 0.0;
  std::map<std::string, double> totals_ms_;
};

}  // namespace mhsbench
