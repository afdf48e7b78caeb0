// Deterministic pseudo-random number generation.
//
// All stochastic components of mhs (workload generators, simulated
// annealing, randomized tie-breaking) draw from mhs::Rng so that every
// experiment is reproducible from a single seed. The generator is
// xoshiro256**, which is fast, has a 256-bit state, and passes BigCrush.
#pragma once

#include <cstdint>
#include <vector>

#include "base/error.h"

namespace mhs {

/// Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  /// Seeds the generator; two Rng constructed with the same seed produce
  /// identical streams on every platform.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Returns the next raw 64-bit value.
  std::uint64_t next();

  /// Returns a uniformly distributed integer in [lo, hi] (inclusive), for
  /// any span up to all of i64. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Returns a uniformly distributed double in [0, 1).
  double uniform();

  /// Returns a uniformly distributed double in [lo, hi).
  /// Precondition: lo < hi.
  double uniform(double lo, double hi);

  /// Returns true with probability p. Precondition: 0 <= p <= 1.
  bool bernoulli(double p);

  /// Returns a normally distributed double (Box–Muller).
  double normal(double mean, double stddev);

  /// Returns an exponentially distributed double with the given mean.
  double exponential(double mean);

  /// Returns an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Precondition: weights non-empty, all >= 0, sum > 0.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher–Yates shuffles `v` in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    MHS_CHECK(!v.empty(), "Rng::pick on empty vector");
    return v[static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// A full 64-bit draw from two 32-bit uniform_int halves, low half first
/// (the stream hw::verify_synthesis and the fuzzers draw inputs from).
std::uint64_t raw_u64(Rng& rng);
/// A draw in [lo, hi] for any i64 span: raw_u64 modulo the span's width,
/// or raw_u64 itself over all of i64 (modulo bias is irrelevant here).
std::int64_t draw_in_range(Rng& rng, std::int64_t lo, std::int64_t hi);

}  // namespace mhs
