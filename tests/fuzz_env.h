// The fuzz-campaign environment contract, shared by every fuzzer in
// tests/ (absint_fuzz, fault_fuzz, equiv_fuzz):
//
//   * MHS_FUZZ_ITERS         — iteration count for ALL fuzzers (each has
//                              its own default scale; the sanitize gate
//                              dials this down, soak runs dial it up);
//   * MHS_<FUZZER>_SEED      — per-fuzzer base-seed override (e.g.
//                              MHS_EQUIV_SEED, MHS_ABSINT_SEED), so one
//                              campaign can be replayed or re-pointed at
//                              a different region of seed space without
//                              recompiling. Case i of a campaign always
//                              uses seed base + i, so any failure
//                              reproduces from the printed seed alone.
//
// The full-range draws every fuzzer takes its input values from are
// mhs::raw_u64 and mhs::draw_in_range (base/rng.h).
#pragma once

#include <cstdint>
#include <cstdlib>

namespace mhs::fuzz {

/// Campaign size: MHS_FUZZ_ITERS when set to a positive integer, else
/// `default_iters` (each fuzzer's own scale).
inline std::size_t fuzz_iters(std::size_t default_iters) {
  const char* env = std::getenv("MHS_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  return default_iters;
}

/// Base seed: the named env var when set to a valid u64, else
/// `default_base`. Pass the fuzzer's own variable name (e.g.
/// "MHS_EQUIV_SEED") so campaigns stay independently steerable.
inline std::uint64_t fuzz_seed_base(const char* env_name,
                                    std::uint64_t default_base) {
  const char* env = std::getenv(env_name);
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0') {
      return static_cast<std::uint64_t>(v);
    }
  }
  return default_base;
}

}  // namespace mhs::fuzz
