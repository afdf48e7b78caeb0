// Discrete-event simulation kernel.
//
// A minimal but complete event-wheel simulator: events are closures
// scheduled at absolute or relative times, executed in (time, insertion)
// order. Time is measured in cycles of the reference clock so that the
// software (ISS) and hardware (datapath/bus) worlds share one time base —
// the core mechanic of the paper's co-simulation discussion (§3.1).
//
// Engine internals (see DESIGN.md "The simulation engine"):
//   * the pending set is a calendar queue (Brown '88): a power-of-two
//     wheel of buckets, bucket = (time >> shift) & mask. Insertion is
//     O(1); extraction scans forward from the bucket covering now().
//     The wheel widens itself (shift grows) when events are sparser
//     than one revolution, so both dense pin-level handshake traffic
//     and sparse message-level traffic stay near O(1) per event.
//   * events carry a move-only EventFn with a 64-byte inline buffer, so
//     the closures the bus/peripheral/DMA models capture never touch
//     the heap (std::function spills to the heap past ~16 bytes).
//   * timing-model filler (bus wait states, FSM state walks,
//     transaction markers) is scheduled as *null events*: they consume
//     sequence numbers, count toward pending()/events_processed(), and
//     record queue-wait like closure events — event counts stay
//     bit-identical to the closure-based engine — but store and
//     dispatch nothing. schedule_null_batch() enqueues a whole bus
//     burst or FSM walk in one call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/error.h"
#include "obs/obs.h"

namespace mhs::sim {

/// Simulation time in reference-clock cycles.
using Time = std::uint64_t;

/// Callback executed when an event fires: a move-only callable with a
/// 64-byte inline buffer (heap fallback above that), replacing
/// std::function so that typical simulation closures — a few pointers
/// plus a word or two of state — allocate nothing.
class EventFn {
 public:
  EventFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_v<D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      vtable_ = &kInlineVTable<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      vtable_ = &kHeapVTable<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// True when a callable is held (null events hold none).
  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  void operator()() { vtable_->call(storage_); }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

 private:
  static constexpr std::size_t kInlineBytes = 64;

  struct VTable {
    void (*call)(void*);
    /// Move-constructs dst from src and destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  struct InlineOps {
    static void call(void* p) { (*static_cast<D*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      D* s = static_cast<D*>(src);
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void destroy(void* p) noexcept { static_cast<D*>(p)->~D(); }
  };
  template <typename D>
  struct HeapOps {
    static void call(void* p) { (**static_cast<D**>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D*(*static_cast<D**>(src));
    }
    static void destroy(void* p) noexcept { delete *static_cast<D**>(p); }
  };

  template <typename D>
  static constexpr VTable kInlineVTable{&InlineOps<D>::call,
                                        &InlineOps<D>::relocate,
                                        &InlineOps<D>::destroy};
  template <typename D>
  static constexpr VTable kHeapVTable{&HeapOps<D>::call, &HeapOps<D>::relocate,
                                      &HeapOps<D>::destroy};

  void steal(EventFn& other) noexcept {
    if (other.vtable_ != nullptr) {
      other.vtable_->relocate(storage_, other.storage_);
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

/// The event-driven simulator.
class Simulator {
 public:
  /// Captures the current obs registry (like obs::Span does): when
  /// tracing is enabled, every executed event records its queue wait —
  /// cycles between scheduling and firing — into the
  /// "sim.event_wait_cycles" histogram. With no registry current the
  /// per-event cost is a single null check.
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// next_event_time() result when no events are pending.
  static constexpr Time kNoEvent = ~Time{0};

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedules `fn` to run `delay` cycles from now (0 = this delta).
  void schedule(Time delay, EventFn fn);

  /// Schedules `fn` at absolute time `t`. Precondition: t >= now().
  void schedule_at(Time t, EventFn fn);

  /// Schedules an accounting-only event `delay` cycles from now: it
  /// occupies a queue slot, consumes a sequence number, and counts in
  /// events_processed() and the wait histogram exactly like a closure
  /// event, but runs no code. Timing models use these for pure filler
  /// (wait states, FSM walks) so event counts match the closure engine.
  void schedule_null(Time delay);

  /// Schedules `count` null events at now+first_delay, now+first_delay+
  /// stride, ... — one call per bus burst or FSM walk.
  void schedule_null_batch(Time first_delay, Time stride,
                           std::uint64_t count);

  /// Runs the earliest pending event; returns false if none remain.
  bool run_one();

  /// Runs events until the queue is empty or time would exceed `until`.
  void run(Time until = UINT64_MAX);

  /// Advances simulated time to `t` (>= now), firing due events in order.
  /// Used by the lock-step ISS coupling: software time leads, hardware
  /// events catch up.
  void advance_to(Time t);

  /// Time of the earliest pending event, kNoEvent when none. The
  /// lock-step ISS coupling polls this to skip advance_to() calls that
  /// could not fire anything (the result is cached; the common case is
  /// one comparison).
  Time next_event_time();

  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }

  /// Number of events executed since construction — the cost metric used
  /// by the Figure 3 abstraction-level experiments.
  std::uint64_t events_processed() const { return events_processed_; }

 private:
  struct Event {
    Time time;
    Time scheduled_at;  ///< now() when the event was enqueued
    std::uint64_t seq;
    EventFn fn;  ///< empty for null (accounting-only) events
  };

  void insert(Time t, EventFn fn);
  std::size_t bucket_of(Time t) const {
    return static_cast<std::size_t>(t >> bucket_shift_) & bucket_mask_;
  }
  /// Locates the earliest (time, seq) event; false when empty. Widens
  /// the wheel when the next event is further than one revolution away.
  bool find_min(std::size_t* bucket, std::size_t* index);
  bool year_scan(std::size_t* bucket, std::size_t* index);
  void rebucket(std::size_t nbuckets, std::uint32_t shift);

  std::vector<std::vector<Event>> buckets_;
  std::uint32_t bucket_shift_ = 3;  ///< bucket width = 8 cycles
  std::size_t bucket_mask_ = 0;     ///< buckets_.size() - 1
  std::size_t size_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;

  /// Cached location of the earliest event (invalidated by extraction
  /// and rebucketing; kept current by insertion).
  bool min_valid_ = false;
  std::size_t min_bucket_ = 0;
  std::size_t min_index_ = 0;

  /// Non-null iff a registry was installed at construction.
  obs::Histogram* event_wait_hist_ = nullptr;
};

}  // namespace mhs::sim
