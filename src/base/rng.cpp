#include "base/rng.h"

#include <cmath>

namespace mhs {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Expand the seed with splitmix64 as recommended by the xoshiro authors;
  // this avoids the all-zero state even for seed == 0.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MHS_CHECK(lo <= hi, "uniform_int: lo=" << lo << " > hi=" << hi);
  // Unsigned arithmetic: a span wider than INT64_MAX (hi - lo) and the
  // offset added back to lo would overflow as signed values.
  const auto ulo = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - ulo + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return static_cast<std::int64_t>(ulo + v % range);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MHS_CHECK(lo < hi, "uniform: lo=" << lo << " >= hi=" << hi);
  return lo + (hi - lo) * uniform();
}

bool Rng::bernoulli(double p) {
  MHS_CHECK(p >= 0.0 && p <= 1.0, "bernoulli: p=" << p << " out of [0,1]");
  return uniform() < p;
}

double Rng::normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::exponential(double mean) {
  MHS_CHECK(mean > 0.0, "exponential: mean=" << mean << " must be positive");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  MHS_CHECK(!weights.empty(), "weighted_index: empty weight vector");
  double total = 0.0;
  for (const double w : weights) {
    MHS_CHECK(w >= 0.0, "weighted_index: negative weight " << w);
    total += w;
  }
  MHS_CHECK(total > 0.0, "weighted_index: weights sum to zero");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: landed exactly on total
}

std::uint64_t raw_u64(Rng& rng) {
  constexpr std::int64_t kHalf = (std::int64_t{1} << 32) - 1;
  const auto low = static_cast<std::uint64_t>(rng.uniform_int(0, kHalf));
  const auto high = static_cast<std::uint64_t>(rng.uniform_int(0, kHalf));
  return (high << 32) | low;
}

std::int64_t draw_in_range(Rng& rng, std::int64_t lo, std::int64_t hi) {
  const std::uint64_t width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (width == ~std::uint64_t{0}) {
    return static_cast<std::int64_t>(raw_u64(rng));
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   raw_u64(rng) % (width + 1));
}

}  // namespace mhs
