#include "svc/recorder.h"

#include <algorithm>

#include "obs/json.h"
#include "svc/api.h"

namespace mhs::svc {

FlightRecorder::FlightRecorder(std::size_t entries)
    : slots_(entries == 0 ? 1 : entries) {}

std::uint64_t FlightRecorder::record(const RecordedRequest& request) {
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % slots_.size()];
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.entry = request;
  slot.entry->seq = seq;
  return seq;
}

std::vector<RecordedRequest> FlightRecorder::snapshot() const {
  std::vector<RecordedRequest> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.entry.has_value()) out.push_back(*slot.entry);
  }
  std::sort(out.begin(), out.end(),
            [](const RecordedRequest& a, const RecordedRequest& b) {
              return a.seq > b.seq;
            });
  return out;
}

std::string FlightRecorder::json() const {
  obs::JsonValue::Array entries;
  for (const RecordedRequest& r : snapshot()) {
    entries.emplace_back(obs::JsonValue::Object{
        {"seq", r.seq}, {"trace_id", r.trace_id}, {"endpoint", r.endpoint},
        {"status", r.status}, {"parse_us", r.parse_us},
        {"queue_us", r.queue_us}, {"dispatch_us", r.dispatch_us},
        {"respond_us", r.respond_us}, {"total_us", r.total_us},
        {"cache_hit", r.cache_hit}, {"coalesced", r.coalesced},
        {"total_cycles", r.profile.total()},
        {"profile", profile_buckets(r.profile)}});
  }
  return obs::json_render(obs::JsonValue::Object{
      {"capacity", slots_.size()}, {"recorded", recorded()},
      {"entries", std::move(entries)}});
}

// ------------------------------------------------------------- TraceStore

TraceStore::TraceStore(std::size_t recent_capacity,
                       std::size_t pinned_capacity, std::uint64_t slow_us)
    : recent_capacity_(recent_capacity == 0 ? 1 : recent_capacity),
      pinned_capacity_(pinned_capacity),
      slow_us_(slow_us) {}

void TraceStore::store(const std::string& id, std::string chrome_json,
                       std::uint64_t total_us) {
  if (slow_us_ != 0 && pinned_capacity_ != 0 && total_us >= slow_us_) {
    if (pinned_.size() < pinned_capacity_) {
      pinned_[id] = std::move(chrome_json);
      pinned_order_.push_back({id, total_us});
      return;
    }
    // Full: the new trace takes the seat of the fastest pinned trace iff
    // it is strictly slower; otherwise it falls through to the FIFO.
    auto fastest = std::min_element(
        pinned_order_.begin(), pinned_order_.end(),
        [](const PinnedInfo& a, const PinnedInfo& b) {
          return a.total_us < b.total_us;
        });
    if (total_us > fastest->total_us) {
      pinned_.erase(fastest->id);
      pinned_[id] = std::move(chrome_json);
      *fastest = {id, total_us};
      return;
    }
  }
  recent_order_.push_back(id);
  recent_[id] = std::move(chrome_json);
  while (recent_.size() > recent_capacity_) {
    recent_.erase(recent_order_.front());
    recent_order_.pop_front();
  }
}

const std::string* TraceStore::find(const std::string& id) const {
  if (const auto it = pinned_.find(id); it != pinned_.end()) {
    return &it->second;
  }
  if (const auto it = recent_.find(id); it != recent_.end()) {
    return &it->second;
  }
  return nullptr;
}

}  // namespace mhs::svc
