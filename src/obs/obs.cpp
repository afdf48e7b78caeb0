#include "obs/obs.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "base/error.h"
#include "base/table.h"

namespace mhs::obs {

namespace {

std::atomic<Registry*> g_registry{nullptr};
/// The calling thread's innermost ScopedSink (null outside any scope).
thread_local Registry* t_scoped_sink = nullptr;

std::chrono::steady_clock::time_point clock_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - clock_epoch())
      .count();
}

void set_registry(Registry* registry) {
  g_registry.store(registry, std::memory_order_release);
}

Registry* registry() {
  if (Registry* scoped = t_scoped_sink) return scoped;
  return global_registry();
}

Registry* global_registry() {
  return g_registry.load(std::memory_order_acquire);
}

ScopedSink::ScopedSink(Registry* sink) : previous_(t_scoped_sink) {
  if (sink != nullptr) t_scoped_sink = sink;
}

ScopedSink::~ScopedSink() { t_scoped_sink = previous_; }

// --------------------------------------------------------------- Histogram

std::size_t Histogram::bucket_index(std::uint64_t value) {
  return static_cast<std::size_t>(std::bit_width(value));
}

std::uint64_t Histogram::bucket_lo(std::size_t b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

std::uint64_t Histogram::bucket_hi(std::size_t b) {
  if (b == 0) return 0;
  if (b == 64) return UINT64_MAX;
  return (std::uint64_t{1} << b) - 1;
}

void Histogram::record(std::uint64_t value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::percentile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Fractional 0-based rank of the requested quantile; walk the buckets
  // and interpolate linearly inside the one containing it. Every input
  // is an integer, so the result is a pure function of the bucket counts.
  const double rank = q * static_cast<double>(total - 1);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    const double n =
        static_cast<double>(buckets_[b].load(std::memory_order_relaxed));
    if (n == 0.0) continue;
    if (rank < cumulative + n) {
      const double t = (rank - cumulative) / n;
      const double lo = static_cast<double>(bucket_lo(b));
      const double hi = static_cast<double>(bucket_hi(b));
      return lo + t * (hi - lo);
    }
    cumulative += n;
  }
  // rank == count-1 exactly: the largest non-empty bucket's upper edge.
  for (std::size_t b = kNumBuckets; b-- > 0;) {
    if (buckets_[b].load(std::memory_order_relaxed) != 0) {
      return static_cast<double>(bucket_hi(b));
    }
  }
  return 0.0;
}

void Histogram::merge_from(const Histogram& other) {
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    const std::uint64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  const std::uint64_t other_min = other.min_.load(std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (other_min < seen && !min_.compare_exchange_weak(
                                 seen, other_min, std::memory_order_relaxed)) {
  }
  const std::uint64_t other_max = other.max_.load(std::memory_order_relaxed);
  seen = max_.load(std::memory_order_relaxed);
  while (other_max > seen && !max_.compare_exchange_weak(
                                 seen, other_max, std::memory_order_relaxed)) {
  }
}

HistStat Histogram::stat(std::string name) const {
  HistStat s;
  s.name = std::move(name);
  s.count = count();
  s.sum = sum();
  s.min = s.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

// ----------------------------------------------------------------- Profile

const char* Profile::category_name(Category c) {
  switch (c) {
    case kSwExecute:      return "sw execute";
    case kBus:            return "bus transfer";
    case kDma:            return "dma";
    case kPeripheralWait: return "peripheral wait";
    case kFaultRecovery:  return "fault recovery";
    case kIdle:           return "idle";
    case kNumCategories:  break;
  }
  return "?";
}

void Profile::attribute(Category c, std::uint64_t cycles) {
  MHS_CHECK(c < kIdle, "idle is derived at finalize(), not attributed");
  cycles_[c] += cycles;
}

void Profile::finalize(std::uint64_t total_cycles) {
  std::uint64_t claimed = 0;
  for (std::size_t c = 0; c < kIdle; ++c) claimed += cycles_[c];
  if (claimed > total_cycles) {
    // Rounding overshoot (e.g. scaled ISS cycles): shave deterministically,
    // kSwExecute first, so the exact-sum invariant always holds.
    std::uint64_t excess = claimed - total_cycles;
    for (std::size_t c = 0; c < kIdle && excess > 0; ++c) {
      const std::uint64_t cut = std::min(excess, cycles_[c]);
      cycles_[c] -= cut;
      excess -= cut;
    }
    claimed = total_cycles;
  }
  cycles_[kIdle] = total_cycles - claimed;
  total_ = total_cycles;
}

double Profile::fraction(Category c) const {
  return total_ == 0 ? 0.0
                     : static_cast<double>(cycles_[c]) /
                           static_cast<double>(total_);
}

std::uint64_t Profile::attributed() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : cycles_) sum += c;
  return sum;
}

std::string Profile::table() const {
  std::ostringstream os;
  if (!name_.empty()) os << "cycle attribution: " << name_ << "\n";
  TextTable breakdown({"activity", "cycles", "share %"});
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    const auto cat = static_cast<Category>(c);
    breakdown.add_row({category_name(cat),
                       fmt(static_cast<std::size_t>(cycles_[c])),
                       fmt(100.0 * fraction(cat), 1)});
  }
  breakdown.add_row({"total", fmt(static_cast<std::size_t>(total_)), "100.0"});
  os << breakdown.str();
  return os.str();
}

// ---------------------------------------------------------------- Registry

Registry::Registry() : epoch_us_(obs::now_us()) {}

double Registry::now_us() const { return obs::now_us() - epoch_us_; }

std::uint32_t Registry::thread_id_locked() {
  const std::thread::id self = std::this_thread::get_id();
  const auto it = thread_ids_.find(self);
  if (it != thread_ids_.end()) return it->second;
  const std::uint32_t id = static_cast<std::uint32_t>(thread_ids_.size());
  thread_ids_.emplace(self, id);
  return id;
}

void Registry::record(SpanEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  event.tid = thread_id_locked();
  events_.push_back(std::move(event));
}

void Registry::count(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = hists_.find(name);
  if (it != hists_.end()) return *it->second;
  return *hists_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

void Registry::gauge(std::string_view name, double value) {
  const double stamp = obs::now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    GaugeStat& g = it->second;
    g.value = value;
    g.min = std::min(g.min, value);
    g.max = std::max(g.max, value);
    ++g.updates;
    g.last_us = stamp;
    return;
  }
  GaugeStat g;
  g.name = std::string(name);
  g.value = g.min = g.max = value;
  g.updates = 1;
  g.last_us = stamp;
  gauges_.emplace(g.name, g);
}

std::size_t Registry::num_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t Registry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::vector<SpanEvent> Registry::events() const {
  std::vector<SpanEvent> copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = events_;
  }
  std::sort(copy.begin(), copy.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.name < b.name;
            });
  return copy;
}

Summary Registry::summary() const {
  Summary summary;
  std::vector<SpanEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
    for (const auto& [name, value] : counters_) {
      summary.counters.push_back({name, value});
    }
    for (const auto& [name, hist] : hists_) {
      summary.hists.push_back(hist->stat(name));
    }
    for (const auto& [name, gauge] : gauges_) {
      summary.gauges.push_back(gauge);
    }
  }
  // Accumulate in a canonical event order (not insertion order), so the
  // floating-point total of a group is a pure function of the recorded
  // multiset — summaries of merged registries are byte-identical
  // regardless of merge order, and summaries of one registry are stable
  // across thread interleavings.
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.category != b.category) return a.category < b.category;
              if (a.name != b.name) return a.name < b.name;
              if (a.dur_us != b.dur_us) return a.dur_us < b.dur_us;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.tid < b.tid;
            });
  std::map<std::pair<std::string, std::string>, SpanStat> groups;
  for (const SpanEvent& e : events) {
    SpanStat& stat = groups[{e.category, e.name}];
    if (stat.count == 0) {
      stat.category = e.category;
      stat.name = e.name;
      stat.min_us = std::numeric_limits<double>::infinity();
    }
    ++stat.count;
    stat.total_us += e.dur_us;
    stat.min_us = std::min(stat.min_us, e.dur_us);
    stat.max_us = std::max(stat.max_us, e.dur_us);
  }
  for (auto& [key, stat] : groups) {
    if (stat.count == 0) stat.min_us = 0.0;
    summary.spans.push_back(std::move(stat));
  }
  return summary;
}

void Registry::merge_from(const Registry& other) {
  MHS_CHECK(&other != this, "a registry cannot merge into itself");
  // Snapshot the source under its own lock. Histogram contents are read
  // through stable pointers afterwards (the caller guarantees no
  // concurrent writers on `other` during the merge).
  std::vector<SpanEvent> events;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, const Histogram*>> hists;
  std::vector<GaugeStat> gauges;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    events = other.events_;
    counters.assign(other.counters_.begin(), other.counters_.end());
    for (const auto& [name, hist] : other.hists_) {
      hists.emplace_back(name, hist.get());
    }
    for (const auto& [name, gauge] : other.gauges_) gauges.push_back(gauge);
  }
  const double rebase = other.epoch_us_ - epoch_us_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.reserve(events_.size() + events.size());
    for (SpanEvent& e : events) {
      e.start_us += rebase;
      events_.push_back(std::move(e));
    }
    for (const auto& [name, value] : counters) {
      const auto it = counters_.find(name);
      if (it != counters_.end()) {
        it->second += value;
      } else {
        counters_.emplace(name, value);
      }
    }
    for (const GaugeStat& g : gauges) {
      const auto it = gauges_.find(g.name);
      if (it == gauges_.end()) {
        gauges_.emplace(g.name, g);
        continue;
      }
      GaugeStat& mine = it->second;
      mine.min = std::min(mine.min, g.min);
      mine.max = std::max(mine.max, g.max);
      mine.updates += g.updates;
      // Last write wins across registries, ordered by the absolute
      // obs-clock stamp (value breaks exact ties) — a total order, so
      // the merge is commutative and associative.
      if (g.last_us > mine.last_us ||
          (g.last_us == mine.last_us && g.value > mine.value)) {
        mine.value = g.value;
        mine.last_us = g.last_us;
      }
    }
  }
  for (const auto& [name, hist] : hists) {
    histogram(name).merge_from(*hist);
  }
}

std::string Summary::table() const {
  std::ostringstream os;
  if (!spans.empty()) {
    TextTable timings({"category", "span", "count", "total ms", "mean ms",
                       "min ms", "max ms"});
    for (const SpanStat& s : spans) {
      const double mean_us =
          s.count == 0 ? 0.0 : s.total_us / static_cast<double>(s.count);
      timings.add_row({s.category, s.name, fmt(s.count),
                       fmt(s.total_us / 1000.0, 3), fmt(mean_us / 1000.0, 3),
                       fmt(s.min_us / 1000.0, 3), fmt(s.max_us / 1000.0, 3)});
    }
    os << timings.str();
  }
  if (!counters.empty()) {
    TextTable totals({"counter", "value"});
    for (const CounterStat& c : counters) {
      totals.add_row({c.name, fmt(static_cast<std::size_t>(c.value))});
    }
    os << totals.str();
  }
  if (!hists.empty()) {
    TextTable dists({"histogram", "count", "mean", "p50", "p90", "p99",
                     "min", "max"});
    for (const HistStat& h : hists) {
      dists.add_row({h.name, fmt(h.count), fmt(h.mean(), 1), fmt(h.p50, 1),
                     fmt(h.p90, 1), fmt(h.p99, 1),
                     fmt(static_cast<std::size_t>(h.min)),
                     fmt(static_cast<std::size_t>(h.max))});
    }
    os << dists.str();
  }
  if (!gauges.empty()) {
    TextTable vals({"gauge", "value", "min", "max", "updates"});
    for (const GaugeStat& g : gauges) {
      vals.add_row({g.name, fmt(g.value, 3), fmt(g.min, 3), fmt(g.max, 3),
                    fmt(static_cast<std::size_t>(g.updates))});
    }
    os << vals.str();
  }
  return os.str();
}

std::string Registry::chrome_trace_json() const {
  const std::vector<SpanEvent> sorted = events();
  Summary agg = summary();

  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& e : sorted) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.category) << "\",\"ph\":\"X\",\"ts\":" << e.start_us
       << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":" << e.tid;
    if (!e.args.empty()) {
      os << ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) os << ",";
        os << "\"" << json_escape(e.args[i].first) << "\":\""
           << json_escape(e.args[i].second) << "\"";
      }
      os << "}";
    }
    os << "}";
  }
  // Counters, histogram percentiles, and gauges as Chrome counter events,
  // stamped at the end of the trace so they show the final totals.
  const double end_ts = now_us();
  for (const CounterStat& c : agg.counters) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(c.name)
       << "\",\"ph\":\"C\",\"ts\":" << end_ts
       << ",\"pid\":1,\"tid\":0,\"args\":{\"value\":" << c.value << "}}";
  }
  for (const HistStat& h : agg.hists) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(h.name)
       << "\",\"ph\":\"C\",\"ts\":" << end_ts
       << ",\"pid\":1,\"tid\":0,\"args\":{\"p50\":" << h.p50
       << ",\"p90\":" << h.p90 << ",\"p99\":" << h.p99 << "}}";
  }
  for (const GaugeStat& g : agg.gauges) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(g.name)
       << "\",\"ph\":\"C\",\"ts\":" << end_ts
       << ",\"pid\":1,\"tid\":0,\"args\":{\"value\":" << g.value << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

// -------------------------------------------------------------------- Span

Span::Span(const char* name, const char* category)
    : Span(registry(), name, category) {}

Span::Span(std::string name, const char* category) : registry_(registry()) {
  if (registry_ == nullptr) return;
  event_.name = std::move(name);
  event_.category = category;
  event_.start_us = registry_->now_us();
}

Span::Span(Registry* sink, const char* name, const char* category)
    : registry_(sink) {
  if (registry_ == nullptr) return;
  event_.name = name;
  event_.category = category;
  event_.start_us = registry_->now_us();
}

Span::Span(Span&& other) noexcept
    : registry_(other.registry_), event_(std::move(other.event_)) {
  other.registry_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    registry_ = other.registry_;
    event_ = std::move(other.event_);
    other.registry_ = nullptr;
  }
  return *this;
}

void Span::arg(const char* key, std::string value) {
  if (registry_ == nullptr) return;
  event_.args.emplace_back(key, std::move(value));
}

void Span::finish() {
  if (registry_ == nullptr) return;
  event_.dur_us = registry_->now_us() - event_.start_us;
  registry_->record(std::move(event_));
  registry_ = nullptr;
}

Span::~Span() { finish(); }

// -------------------------------------------------------------- exposition

namespace {

/// JSON-safe number: fixed 3-decimal rendering (matching
/// chrome_trace_json), with non-finite values clamped to 0 so the output
/// always parses.
std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << v;
  return os.str();
}

/// Prometheus sample value: plain shortest-round-trip double; Prometheus
/// accepts NaN/Inf spellings but we clamp for symmetry with the JSON.
std::string prom_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "mhs_";
  out.reserve(name.size() + 4);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string summary_json(const Summary& summary) {
  std::ostringstream os;
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < summary.spans.size(); ++i) {
    const SpanStat& s = summary.spans[i];
    if (i > 0) os << ",";
    os << "{\"category\":\"" << json_escape(s.category) << "\",\"name\":\""
       << json_escape(s.name) << "\",\"count\":" << s.count
       << ",\"total_us\":" << json_num(s.total_us)
       << ",\"min_us\":" << json_num(s.min_us)
       << ",\"max_us\":" << json_num(s.max_us) << "}";
  }
  os << "],\"counters\":[";
  for (std::size_t i = 0; i < summary.counters.size(); ++i) {
    const CounterStat& c = summary.counters[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << json_escape(c.name) << "\",\"value\":" << c.value
       << "}";
  }
  os << "],\"histograms\":[";
  for (std::size_t i = 0; i < summary.hists.size(); ++i) {
    const HistStat& h = summary.hists[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << json_escape(h.name) << "\",\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"min\":" << h.min << ",\"max\":" << h.max
       << ",\"p50\":" << json_num(h.p50) << ",\"p90\":" << json_num(h.p90)
       << ",\"p99\":" << json_num(h.p99) << "}";
  }
  os << "],\"gauges\":[";
  for (std::size_t i = 0; i < summary.gauges.size(); ++i) {
    const GaugeStat& g = summary.gauges[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << json_escape(g.name)
       << "\",\"value\":" << json_num(g.value)
       << ",\"min\":" << json_num(g.min) << ",\"max\":" << json_num(g.max)
       << ",\"updates\":" << g.updates << "}";
  }
  os << "]}";
  return os.str();
}

std::string summary_prometheus(const Summary& summary) {
  std::ostringstream os;
  for (const CounterStat& c : summary.counters) {
    const std::string name = prometheus_name(c.name);
    os << "# TYPE " << name << " counter\n" << name << " " << c.value << "\n";
  }
  for (const HistStat& h : summary.hists) {
    const std::string name = prometheus_name(h.name);
    os << "# TYPE " << name << " summary\n"
       << name << "{quantile=\"0.5\"} " << prom_num(h.p50) << "\n"
       << name << "{quantile=\"0.9\"} " << prom_num(h.p90) << "\n"
       << name << "{quantile=\"0.99\"} " << prom_num(h.p99) << "\n"
       << name << "_sum " << h.sum << "\n"
       << name << "_count " << h.count << "\n";
  }
  for (const GaugeStat& g : summary.gauges) {
    const std::string name = prometheus_name(g.name);
    os << "# TYPE " << name << " gauge\n"
       << name << " " << prom_num(g.value) << "\n";
  }
  for (const SpanStat& s : summary.spans) {
    const std::string name =
        prometheus_name("span." + s.category + "." + s.name);
    os << "# TYPE " << name << "_count counter\n"
       << name << "_count " << s.count << "\n"
       << "# TYPE " << name << "_total_us counter\n"
       << name << "_total_us " << prom_num(s.total_us) << "\n";
  }
  return os.str();
}

}  // namespace mhs::obs
