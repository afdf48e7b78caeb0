// Sharded, thread-safe memoization cache.
//
// Some work repeats across threads: the design-space explorer optimizes
// and estimates the same kernels for every configuration variant, and the
// service answers repeated requests. ConcurrentCache memoizes such pure
// computations: keys are hashed onto independently locked shards so
// concurrent lookups of unrelated keys never contend, and hit/miss
// counters quantify the reuse. A lookup takes a lock and hashes the key,
// so it pays only for work that costs far more than that; the
// explorer's cost-model evaluations do not.
//
// Values must be deterministic functions of their key: on a miss the value
// is computed *outside* the shard lock, so two threads racing on the same
// fresh key may both compute it; the first insert wins and both observe
// identical values. That trade keeps long computations from serializing
// the shard.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/error.h"

namespace mhs {

/// Mixes `value` into `seed` (boost-style hash combiner).
inline void hash_combine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ConcurrentCache {
 public:
  explicit ConcurrentCache(std::size_t num_shards = 16)
      : shards_(num_shards == 0 ? 1 : num_shards) {}

  ConcurrentCache(const ConcurrentCache&) = delete;
  ConcurrentCache& operator=(const ConcurrentCache&) = delete;

  /// Returns the cached value for `key`, computing and inserting it via
  /// `compute()` on a miss. `compute` must be a pure function of `key`.
  template <typename Compute>
  Value get_or_compute(const Key& key, Compute&& compute) {
    Shard& shard = shard_for(key);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    Value value = compute();
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto [it, inserted] = shard.map.emplace(key, std::move(value));
    (void)inserted;  // lost a race: keep the first insert (identical value)
    return it->second;
  }

  /// Copies the value for `key` into `*out`; returns false on a miss
  /// (without touching the hit/miss counters).
  bool lookup(const Key& key, Value* out) const {
    const Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return false;
    *out = it->second;
    return true;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.map.size();
    }
    return total;
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.map.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, Value, Hash> map;
  };

  Shard& shard_for(const Key& key) {
    return shards_[Hash{}(key) % shards_.size()];
  }
  const Shard& shard_for(const Key& key) const {
    return shards_[Hash{}(key) % shards_.size()];
  }

  // Shards are neither moved nor copied after construction (vector is
  // sized once), so the contained mutexes stay put.
  std::vector<Shard> shards_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace mhs
