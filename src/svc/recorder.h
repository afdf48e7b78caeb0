// The serve-side flight recorder: a ring buffer retaining the last N
// completed requests (identity, status, latency breakdown, how the
// dispatcher satisfied the request, and the cycle profile of the
// simulated work it represents), plus the store of per-request Chrome
// traces behind GET /v1/trace/<id>.
//
// FlightRecorder is a single-writer ring with one mutex per slot: the
// event-loop thread publishes entries, and readers (GET /v1/requests,
// tests polling from another thread) copy each slot under its lock, so
// every entry a snapshot returns is whole and a reader waits at most for
// one entry copy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"

namespace mhs::svc {

/// One completed request as the flight recorder retains it.
struct RecordedRequest {
  std::uint64_t seq = 0;  ///< admission order (monotonic per server)
  std::string trace_id;   ///< "r<seq>", also the X-Mhs-Trace header
  std::string endpoint;   ///< endpoint_name(), or "requests"/"trace"
  int status = 0;
  // Latency breakdown in microseconds. total_us is stored as the exact
  // sum of the four buckets, so the breakdown always reconciles with
  // the end-to-end figure.
  std::uint64_t parse_us = 0;     ///< first byte → complete HTTP message
  std::uint64_t queue_us = 0;     ///< admission → a worker picked it up
  std::uint64_t dispatch_us = 0;  ///< handler (dispatcher) runtime
  std::uint64_t respond_us = 0;   ///< completion → response bytes queued
  std::uint64_t total_us = 0;
  bool cache_hit = false;   ///< answered from the dispatcher result cache
  bool coalesced = false;   ///< rode an identical in-flight evaluation
  /// The cycle profile of the request's co-simulation, as the dispatcher
  /// reported it (RequestOutcome::profile; empty = no cosim ran).
  obs::Profile profile;
};

/// Ring of the last `entries` completed requests. One writer (the
/// server's event-loop thread); any number of concurrent readers.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t entries);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Publishes one entry (single-writer; the entry's seq field is
  /// ignored — the recorder assigns the next sequence number and
  /// returns it).
  std::uint64_t record(const RecordedRequest& request);

  /// Copies the retained entries, newest first.
  std::vector<RecordedRequest> snapshot() const;

  /// The /v1/requests result object:
  ///   {"capacity":N,"recorded":total,"entries":[...newest first...]}
  std::string json() const;

  std::size_t capacity() const { return slots_.size(); }
  /// Total entries ever published (>= capacity() once the ring wraps).
  std::uint64_t recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    mutable std::mutex mutex;
    std::optional<RecordedRequest> entry;  ///< empty until first publish
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_seq_{0};
};

/// The store of rendered Chrome traces behind GET /v1/trace/<id>: a
/// FIFO of the most recent traces plus a pinned set of the slowest ones
/// (auto-pinned when a request's total latency reaches `slow_us`;
/// slow_us == 0 disables pinning). Not thread-safe — the server reads
/// and writes it only from the event-loop thread.
class TraceStore {
 public:
  TraceStore(std::size_t recent_capacity, std::size_t pinned_capacity,
             std::uint64_t slow_us);

  /// Stores one rendered trace under `id`. A trace at or above the slow
  /// threshold competes for a pinned seat (evicting the fastest pinned
  /// trace when full); everything else rotates through the FIFO.
  void store(const std::string& id, std::string chrome_json,
             std::uint64_t total_us);

  /// The rendered trace, or nullptr when it has aged out (or never
  /// existed).
  const std::string* find(const std::string& id) const;

  std::size_t size() const { return recent_.size() + pinned_.size(); }

 private:
  struct PinnedInfo {
    std::string id;
    std::uint64_t total_us = 0;
  };

  std::size_t recent_capacity_;
  std::size_t pinned_capacity_;
  std::uint64_t slow_us_;
  std::deque<std::string> recent_order_;
  std::unordered_map<std::string, std::string> recent_;
  std::unordered_map<std::string, std::string> pinned_;
  std::vector<PinnedInfo> pinned_order_;
};

}  // namespace mhs::svc
