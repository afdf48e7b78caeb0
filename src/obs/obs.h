// Flow-wide observability: tracing spans, monotonic counters, value
// distributions, gauges, cycle-attribution profiles, and a thread-safe
// registry that aggregates them.
//
// Every hot layer of the co-design flow (core::Flow phases, the
// Explorer's design points, partition::run strategies, sim::run)
// is instrumented with RAII Spans, Counters, and Histograms that report
// to the current Registry, registry(). The registry exports two views:
//
//   * chrome_trace_json() — Chrome trace_event JSON, loadable in
//     chrome://tracing or https://ui.perfetto.dev, showing where wall
//     time went per thread (histogram percentiles and gauges ride along
//     as counter events);
//   * summary() — deterministic per-(category, name) aggregates (span
//     counts/totals, counter values, histogram p50/p90/p99, gauge
//     values) rendered as a plain-text table, the piece core::Report
//     embeds.
//
// The current registry is the calling thread's ScopedSink when one is
// active (one request's private registry, installed by the serving layer
// for the request and by the Explorer for each parallel_for iteration it
// runs on the request's behalf), and the process-wide registry
// otherwise. So every count()/observe()/gauge()/Span call records into
// the request that caused it, with no sink parameter threaded through
// the layers.
// Code that aggregates across requests names global_registry().
//
// Instrumentation is a no-op behind a null sink: no registry is
// installed by default, Span/count()/observe() check one thread-local
// and one relaxed atomic load and bail, so a tracing-disabled run pays
// nothing measurable (the bench_explorer budget is <= 2% overhead).
// Install a sink with ScopedRegistry (or set_registry) to start
// recording. Recorded content is deterministic modulo the timestamp and
// duration values: the same run produces the same span names,
// categories, args, counter totals, and (for deterministic inputs such
// as simulated cycles) bit-identical histogram aggregates regardless of
// thread scheduling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace mhs::obs {

// ------------------------------------------------------------------ clock
// The one time base shared by traces, bench stopwatches, and report wall
// times (satisfying "benches and traces share one clock").

/// Monotonic microseconds since an arbitrary process-wide epoch.
double now_us();

/// Wall-clock stopwatch over the obs clock.
class Stopwatch {
 public:
  Stopwatch() : start_us_(now_us()) {}
  double elapsed_us() const { return now_us() - start_us_; }
  double elapsed_ms() const { return elapsed_us() / 1000.0; }
  /// Start time on the obs clock (for deriving span timestamps from the
  /// same reads as a wall-time measurement).
  double start_us() const { return start_us_; }

 private:
  double start_us_;
};

// ------------------------------------------------------------- aggregates

/// One completed span, as recorded by ~Span.
struct SpanEvent {
  std::string name;
  std::string category;
  double start_us = 0.0;  ///< microseconds since registry creation
  double dur_us = 0.0;
  std::uint32_t tid = 0;  ///< dense per-registry thread id
  /// Extra key/value annotations (batch index, strategy, ...).
  std::vector<std::pair<std::string, std::string>> args;
};

/// Aggregate of all spans sharing one (category, name).
struct SpanStat {
  std::string category;
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

/// One monotonic counter's final value.
struct CounterStat {
  std::string name;
  std::uint64_t value = 0;
};

/// One histogram's aggregate view: integer totals plus interpolated
/// percentiles. For deterministic recorded values (counts, simulated
/// cycles) every field is bit-identical across thread counts.
struct HistStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// One gauge's last-written value (plus the observed range).
struct GaugeStat {
  std::string name;
  double value = 0.0;  ///< last write wins
  double min = 0.0;
  double max = 0.0;
  std::uint64_t updates = 0;
  /// Absolute obs-clock time of the last write. Never rendered; it is
  /// the ordering key that makes Registry::merge_from commutative ("last
  /// write wins" stays well defined when gauges from several registries
  /// meet).
  double last_us = 0.0;
};

/// The deterministic aggregate view of a registry: span groups sorted by
/// (category, name); counters, histograms, and gauges sorted by name.
/// This is what core::Report embeds.
struct Summary {
  std::vector<SpanStat> spans;
  std::vector<CounterStat> counters;
  std::vector<HistStat> hists;
  std::vector<GaugeStat> gauges;
  bool empty() const {
    return spans.empty() && counters.empty() && hists.empty() &&
           gauges.empty();
  }
  /// Plain-text rendering (tables for timings, counters, histograms, and
  /// gauges, in that order).
  std::string table() const;
};

/// The summary as one JSON object — {"spans":[...],"counters":[...],
/// "histograms":[...],"gauges":[...]} — with deterministic field order
/// (the Summary's own sorted order). /v1/metrics renders its "obs"
/// block through it. The bench reports do not: bench::Reporter::json()
/// writes its own schema-v1 counters, histograms and gauges arrays.
std::string summary_json(const Summary& summary);

/// The summary in Prometheus text exposition format (version 0.0.4):
/// counters as `counter`, histograms as `summary` (quantile series plus
/// _sum/_count), gauges as `gauge`, span groups as two counters
/// (`..._count`, `..._total_us`). Metric names are prefixed `mhs_` and
/// sanitized to [a-zA-Z0-9_:]; emission order is deterministic
/// (counters, histograms, gauges, spans, each in the Summary's sorted
/// order).
std::string summary_prometheus(const Summary& summary);

/// Prometheus-legal metric name: `mhs_` + `name` with every character
/// outside [a-zA-Z0-9_:] replaced by '_'.
std::string prometheus_name(std::string_view name);

// -------------------------------------------------------------- histogram

/// Log2-bucketed histogram of unsigned integer samples with a lock-free
/// record path: bucket b holds values whose bit width is b (bucket 0 is
/// exactly {0}, bucket b >= 1 covers [2^(b-1), 2^b - 1]). All counters
/// are relaxed atomics, so concurrent record() calls never block and the
/// merged totals are exact; percentiles are reconstructed from the
/// buckets by linear interpolation, making every exported statistic a
/// pure function of the recorded multiset — bit-identical across thread
/// counts and interleavings.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 65;  ///< bit widths 0..64

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one sample. Lock-free (relaxed atomic increments).
  void record(std::uint64_t value);

  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Interpolated quantile (q in [0, 1]) of the recorded multiset; 0
  /// when empty. Deterministic given the bucket counts.
  double percentile(double q) const;

  /// Snapshot of every aggregate, named `name`.
  HistStat stat(std::string name) const;

  /// Adds every sample of `other` to this histogram (bucket-exact: the
  /// merged percentiles equal those of recording both multisets into one
  /// histogram). `other` must not be concurrently written.
  void merge_from(const Histogram& other);

  /// Bucket index of a value (its bit width).
  static std::size_t bucket_index(std::uint64_t value);
  /// Smallest / largest value a bucket can hold.
  static std::uint64_t bucket_lo(std::size_t b);
  static std::uint64_t bucket_hi(std::size_t b);

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

// ---------------------------------------------------------------- profile

/// Deterministic cycle-attribution profile of a co-simulation run:
/// every simulated cycle is attributed to exactly one activity class, so
/// the breakdown always sums to the run's total simulated cycles (the
/// invariant tests assert). Categories that overlap on the real timeline
/// (e.g. the peripheral computing while the CPU polls) are attributed by
/// priority: SW execution and bus transfers are charged first; cycles
/// not claimed by any attributed class fall into kIdle at finalize().
class Profile {
 public:
  enum Category : std::size_t {
    kSwExecute = 0,    ///< CPU executing driver/kernel instructions
    kBus,              ///< bus transfers (MMIO, blocks, messages)
    kDma,              ///< DMA bursts moving data without the CPU
    kPeripheralWait,   ///< waiting on accelerator computation
    kFaultRecovery,    ///< watchdog windows, retries, SW fallback runs
    kIdle,             ///< cycles claimed by no attributed activity
    kNumCategories,
  };
  static const char* category_name(Category c);

  Profile() = default;
  explicit Profile(std::string name) : name_(std::move(name)) {}

  /// Adds `cycles` to an attributed category (not kIdle — idle is the
  /// derived remainder).
  void attribute(Category c, std::uint64_t cycles);

  /// Closes the profile against the run's total simulated cycles: idle
  /// becomes the unclaimed remainder. If rounding made the attributed
  /// sum exceed `total_cycles`, the overshoot is shaved from kSwExecute
  /// (then the other classes in enum order) so the exact-sum invariant
  /// holds deterministically.
  void finalize(std::uint64_t total_cycles);

  std::uint64_t cycles(Category c) const { return cycles_[c]; }
  std::uint64_t total() const { return total_; }
  /// Self-normalizing share of the total (0 when the profile is empty).
  double fraction(Category c) const;
  /// Sum over every category, == total() after finalize().
  std::uint64_t attributed() const;

  bool empty() const { return total_ == 0; }
  const std::string& name() const { return name_; }

  /// The breakdown as a plain-text table (category, cycles, share).
  std::string table() const;

 private:
  std::string name_;
  std::uint64_t cycles_[kNumCategories] = {};
  std::uint64_t total_ = 0;
};

// ---------------------------------------------------------------- registry

/// Thread-safe sink for spans, counters, histograms, and gauges.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Records one completed span, stamping the calling thread's id.
  void record(SpanEvent event);
  /// Adds `delta` to the named monotonic counter.
  void count(std::string_view name, std::uint64_t delta);
  /// The named histogram, created on first use. The reference stays
  /// valid for the registry's lifetime; record() on it is lock-free, so
  /// hot paths resolve the name once and keep the pointer.
  Histogram& histogram(std::string_view name);
  /// Sets the named gauge (last write wins; min/max/updates tracked).
  void gauge(std::string_view name, double value);

  /// Microseconds elapsed since this registry was constructed.
  double now_us() const;
  /// This registry's construction time on the process-wide obs clock —
  /// lets a caller convert obs::now_us() readings into registry-relative
  /// span timestamps without a second clock read.
  double epoch_us() const { return epoch_us_; }

  std::size_t num_events() const;
  std::uint64_t counter(std::string_view name) const;  ///< 0 if absent
  /// All recorded events, sorted by (start_us, tid, name).
  std::vector<SpanEvent> events() const;

  Summary summary() const;

  /// Folds everything `other` recorded into this registry: span events
  /// are appended with start_us rebased onto this registry's epoch (tids
  /// kept as recorded — merged traces may interleave thread lanes),
  /// counters and histograms are summed exactly, and gauges merge
  /// commutatively (value from the latest write by obs-clock stamp,
  /// range and update counts combined). Merging K registries yields a
  /// byte-identical summary() regardless of merge order. `other` must
  /// not be concurrently written during the merge.
  void merge_from(const Registry& other);

  /// Chrome trace_event JSON: spans as "ph":"X" complete events,
  /// counters, histogram percentiles, and gauges as trailing "ph":"C"
  /// counter events. Load the string (saved to a .json file) in
  /// chrome://tracing or Perfetto.
  std::string chrome_trace_json() const;

 private:
  std::uint32_t thread_id_locked();

  double epoch_us_ = 0.0;
  mutable std::mutex mutex_;
  std::vector<SpanEvent> events_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  /// unique_ptr so Histogram's address survives map rebalancing and the
  /// atomics never move.
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> hists_;
  std::map<std::string, GaugeStat, std::less<>> gauges_;
  std::map<std::thread::id, std::uint32_t> thread_ids_;
};

/// Installs `registry` as the process-wide sink (nullptr disables all
/// instrumentation — the default).
void set_registry(Registry* registry);
/// The current sink: the calling thread's innermost ScopedSink when one
/// is active, otherwise the process-wide registry (nullptr when tracing
/// is disabled).
Registry* registry();
/// The process-wide registry, ignoring any ScopedSink. For code that
/// aggregates across requests (/v1/metrics, the server's per-request
/// merge); inside a request, registry() is that request's own registry.
Registry* global_registry();
/// True iff a sink is current (see registry()).
inline bool enabled() { return registry() != nullptr; }

/// Per-request trace context: the identity and sink of one request's
/// observability. Created by the serving layer (one per request, with a
/// fresh Registry); the dispatcher installs `sink` as a ScopedSink for
/// the request, so everything recorded into it belongs to exactly this
/// request. The server merges it into the process-wide registry when
/// the request completes.
struct TraceContext {
  std::string trace_id;     ///< stable id, e.g. "r42"
  Registry* sink = nullptr; ///< per-request sink (null = use the current)
  double start_us = 0.0;    ///< obs-clock time the request was admitted
};

/// RAII installation of a registry as the process-wide sink (restores
/// the previous one, so scopes nest).
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& r) : previous_(global_registry()) {
    set_registry(&r);
  }
  ~ScopedRegistry() { set_registry(previous_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

/// RAII request scope: makes `sink` the calling thread's current
/// registry until destruction, then restores the previous scope. A null
/// `sink` changes nothing, so a scope opened for an untraced request
/// keeps whatever was current. The scope covers one request or one
/// parallel_for iteration, never a thread's lifetime: work handed to
/// another thread must carry the sink (read registry() before the
/// hand-off) and open its own scope there.
class ScopedSink {
 public:
  explicit ScopedSink(Registry* sink);
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Registry* previous_;
};

/// RAII span: captures the current sink and start time at construction,
/// records a SpanEvent at destruction. When no sink is current at
/// construction the span is inert (no allocation, no clock read).
class Span {
 public:
  /// Inert span (also what the const char* form degrades to when
  /// tracing is disabled).
  Span() = default;
  /// Static-name span; cheapest form for fixed instrumentation points.
  Span(const char* name, const char* category);
  /// Dynamic-name span; build the string behind an enabled() check so
  /// disabled runs never pay for the formatting.
  Span(std::string name, const char* category);
  /// Span recording into `sink` instead of the current registry (inert
  /// when `sink` is null).
  Span(Registry* sink, const char* name, const char* category);
  ~Span();

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key/value annotation (no-op when inert).
  void arg(const char* key, std::string value);

  bool active() const { return registry_ != nullptr; }

 private:
  void finish();

  Registry* registry_ = nullptr;
  SpanEvent event_;
};

/// Adds `delta` to a monotonic counter on the current sink (no-op when
/// tracing is disabled).
inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (Registry* r = registry()) r->count(name, delta);
}

/// Records one sample into the named histogram on the current sink
/// (no-op when tracing is disabled). Hot loops should instead resolve
/// Registry::histogram(name) once and call record() directly.
inline void observe(std::string_view name, std::uint64_t value) {
  if (Registry* r = registry()) r->histogram(name).record(value);
}

/// Sets the named gauge on the current sink (no-op when disabled).
inline void gauge(std::string_view name, double value) {
  if (Registry* r = registry()) r->gauge(name, value);
}

}  // namespace mhs::obs
