#include "sim/kernel.h"

#include <utility>

namespace mhs::sim {

namespace {
constexpr std::size_t kInitialBuckets = 64;
constexpr std::uint32_t kMaxBucketShift = 16;
}  // namespace

Simulator::Simulator() {
  buckets_.resize(kInitialBuckets);
  bucket_mask_ = kInitialBuckets - 1;
  if (obs::Registry* r = obs::registry()) {
    event_wait_hist_ = &r->histogram("sim.event_wait_cycles");
  }
}

void Simulator::insert(Time t, EventFn fn) {
  // Keep the average bucket occupancy bounded; the width adapts
  // separately (find_min widens on sparse workloads).
  if (size_ + 1 > 4 * buckets_.size()) {
    rebucket(buckets_.size() * 2, bucket_shift_);
  }
  const std::size_t b = bucket_of(t);
  std::vector<Event>& bucket = buckets_[b];
  if (min_valid_) {
    // A new earliest event supersedes the cache (ties keep the cached
    // entry: its sequence number is necessarily smaller).
    if (t < buckets_[min_bucket_][min_index_].time) {
      min_bucket_ = b;
      min_index_ = bucket.size();
    }
  }
  bucket.push_back(Event{t, now_, next_seq_++, std::move(fn)});
  ++size_;
}

void Simulator::rebucket(std::size_t nbuckets, std::uint32_t shift) {
  std::vector<std::vector<Event>> old = std::move(buckets_);
  buckets_.clear();
  buckets_.resize(nbuckets);
  bucket_mask_ = nbuckets - 1;
  bucket_shift_ = shift;
  min_valid_ = false;
  for (std::vector<Event>& bucket : old) {
    for (Event& ev : bucket) {
      buckets_[bucket_of(ev.time)].push_back(std::move(ev));
    }
  }
}

void Simulator::schedule(Time delay, EventFn fn) {
  MHS_CHECK(static_cast<bool>(fn), "scheduling a null event");
  MHS_CHECK(delay <= UINT64_MAX - now_, "event time overflow");
  insert(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(Time t, EventFn fn) {
  MHS_CHECK(t >= now_, "schedule_at(" << t << ") in the past (now=" << now_
                                      << ")");
  MHS_CHECK(static_cast<bool>(fn), "scheduling a null event");
  insert(t, std::move(fn));
}

void Simulator::schedule_null(Time delay) {
  MHS_CHECK(delay <= UINT64_MAX - now_, "event time overflow");
  insert(now_ + delay, EventFn{});
}

void Simulator::schedule_null_batch(Time first_delay, Time stride,
                                    std::uint64_t count) {
  if (count == 0) return;
  MHS_CHECK(first_delay <= UINT64_MAX - now_ &&
                (count - 1) <= (UINT64_MAX - now_ - first_delay) /
                                   (stride == 0 ? 1 : stride),
            "event time overflow");
  Time t = now_ + first_delay;
  for (std::uint64_t k = 0; k < count; ++k, t += stride) {
    insert(t, EventFn{});
  }
}

bool Simulator::year_scan(std::size_t* bucket, std::size_t* index) {
  // Scan one full wheel revolution starting at the bucket covering now()
  // (every pending event's time is >= now(), so nothing lies behind it).
  const std::size_t n = buckets_.size();
  Time day = now_ >> bucket_shift_;
  for (std::size_t step = 0; step < n; ++step, ++day) {
    const std::size_t b = static_cast<std::size_t>(day) & bucket_mask_;
    const Time top = (day + 1) << bucket_shift_;
    const std::vector<Event>& candidates = buckets_[b];
    bool found = false;
    Time best_time = 0;
    std::uint64_t best_seq = 0;
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Event& e = candidates[i];
      if (e.time >= top) continue;  // a later revolution's event
      if (!found || e.time < best_time ||
          (e.time == best_time && e.seq < best_seq)) {
        found = true;
        best_time = e.time;
        best_seq = e.seq;
        best_i = i;
      }
    }
    if (found) {
      min_valid_ = true;
      min_bucket_ = *bucket = b;
      min_index_ = *index = best_i;
      return true;
    }
  }
  return false;
}

bool Simulator::find_min(std::size_t* bucket, std::size_t* index) {
  if (size_ == 0) return false;
  if (min_valid_) {
    *bucket = min_bucket_;
    *index = min_index_;
    return true;
  }
  while (!year_scan(bucket, index)) {
    if (bucket_shift_ < kMaxBucketShift) {
      // Events are sparser than one revolution: widen the wheel so the
      // next extraction finds them without falling back to full scans.
      rebucket(buckets_.size(), bucket_shift_ + 2);
      continue;
    }
    // Wheel already maximally wide — direct search over everything.
    bool found = false;
    Time best_time = 0;
    std::uint64_t best_seq = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      for (std::size_t i = 0; i < buckets_[b].size(); ++i) {
        const Event& e = buckets_[b][i];
        if (!found || e.time < best_time ||
            (e.time == best_time && e.seq < best_seq)) {
          found = true;
          best_time = e.time;
          best_seq = e.seq;
          min_bucket_ = *bucket = b;
          min_index_ = *index = i;
        }
      }
    }
    MHS_ASSERT(found, "calendar queue lost an event");
    min_valid_ = true;
    return true;
  }
  return true;
}

bool Simulator::run_one() {
  std::size_t b = 0;
  std::size_t i = 0;
  if (!find_min(&b, &i)) return false;
  std::vector<Event>& bucket = buckets_[b];
  Event entry = std::move(bucket[i]);
  if (i + 1 != bucket.size()) bucket[i] = std::move(bucket.back());
  bucket.pop_back();
  --size_;
  min_valid_ = false;
  MHS_ASSERT(entry.time >= now_, "event queue went backwards");
  now_ = entry.time;
  ++events_processed_;
  // Per-event service time: simulated cycles the event sat in the queue
  // between scheduling and firing.
  if (event_wait_hist_ != nullptr) {
    event_wait_hist_->record(entry.time - entry.scheduled_at);
  }
  if (entry.fn) entry.fn();
  return true;
}

Time Simulator::next_event_time() {
  std::size_t b = 0;
  std::size_t i = 0;
  if (!find_min(&b, &i)) return kNoEvent;
  return buckets_[b][i].time;
}

void Simulator::run(Time until) {
  while (size_ != 0 && next_event_time() <= until) {
    run_one();
  }
  if (size_ == 0 && until != UINT64_MAX && until > now_) {
    now_ = until;
  }
}

void Simulator::advance_to(Time t) {
  MHS_CHECK(t >= now_, "advance_to(" << t << ") in the past (now=" << now_
                                     << ")");
  while (size_ != 0 && next_event_time() <= t) {
    run_one();
  }
  now_ = t;
}

}  // namespace mhs::sim
