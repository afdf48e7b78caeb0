// Unit tests for mhs::base — error handling, RNG, stats, tables, Q16.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "base/error.h"
#include "base/fixed_point.h"
#include "base/ids.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/table.h"

namespace mhs {
namespace {

TEST(Error, CheckThrowsPreconditionWithContext) {
  try {
    MHS_CHECK(1 == 2, "value was " << 42);
    FAIL() << "MHS_CHECK did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("value was 42"), std::string::npos);
  }
}

TEST(Error, AssertThrowsInternal) {
  EXPECT_THROW(MHS_ASSERT(false, "boom"), InternalError);
  EXPECT_NO_THROW(MHS_ASSERT(true, "fine"));
}

TEST(Error, HierarchyRootsAtError) {
  EXPECT_THROW(
      { throw InfeasibleError("no solution"); }, Error);
  EXPECT_THROW(
      { throw PreconditionError("bad arg"); }, Error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRangeAndCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(2, 1), PreconditionError);
}

TEST(Rng, FullSpanDrawsAreDefined) {
  // Spans wider than INT64_MAX: hi - lo and lo + offset are computed
  // unsigned, so UBSan sees no signed overflow. The full span is the raw
  // stream, and draw_in_range over it is raw_u64's.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.uniform_int(kMin, kMax), static_cast<std::int64_t>(b.next()));
  }
  bool negative = false;
  bool positive = false;
  for (int i = 0; i < 256; ++i) {
    const std::int64_t low_half = a.uniform_int(kMin, 0);
    const std::int64_t high_half = a.uniform_int(-1, kMax);
    EXPECT_LE(low_half, 0);
    EXPECT_GE(high_half, -1);
    negative = negative || low_half < -(std::int64_t{1} << 62);
    positive = positive || high_half > (std::int64_t{1} << 62);
  }
  EXPECT_TRUE(negative);
  EXPECT_TRUE(positive);

  Rng c(11);
  Rng d(11);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(draw_in_range(c, kMin, kMax),
              static_cast<std::int64_t>(raw_u64(d)));
    const std::int64_t v = draw_in_range(c, kMin + 5, -3);
    EXPECT_GE(v, kMin + 5);
    EXPECT_LE(v, -3);
    (void)raw_u64(d);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalHasRoughMoments) {
  Rng rng(13);
  StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialHasRoughMean) {
  Rng rng(17);
  StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.exponential(3.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.15);
}

TEST(Rng, BernoulliRespectsP) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
  EXPECT_THROW(rng.bernoulli(1.5), PreconditionError);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(23);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
  EXPECT_THROW(rng.weighted_index({}), PreconditionError);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), PreconditionError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Stats, AccumulatorBasics) {
  StatAccumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.add(x);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
}

TEST(Stats, EmptyAccumulatorIsSafe) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_THROW(quantile({}, 0.5), PreconditionError);
  EXPECT_THROW(quantile(v, 1.5), PreconditionError);
}

TEST(Stats, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(100.0, 100.0), 0.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW(geometric_mean({1.0, -1.0}), PreconditionError);
}

TEST(Table, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|---"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, FormatsDoublesWithPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(static_cast<std::size_t>(42)), "42");
}

TEST(Ids, StrongTypingAndInvalid) {
  struct TagA {};
  using IdA = Id<TagA>;
  const IdA a(3);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.index(), 3u);
  EXPECT_FALSE(IdA::invalid().valid());
  EXPECT_EQ(IdA(3), a);
  EXPECT_LT(IdA(2), a);
}

TEST(Fixed, RoundTripAndArithmetic) {
  const Q16 a = Q16::from_double(1.5);
  const Q16 b = Q16::from_double(-0.25);
  EXPECT_NEAR((a + b).to_double(), 1.25, 1e-4);
  EXPECT_NEAR((a - b).to_double(), 1.75, 1e-4);
  EXPECT_NEAR((a * b).to_double(), -0.375, 1e-4);
  EXPECT_NEAR((a / b).to_double(), -6.0, 1e-4);
  EXPECT_EQ(Q16::from_int(7).to_int(), 7);
}

TEST(Fixed, DivideByZeroThrows) {
  EXPECT_THROW(Q16::from_int(1) / Q16::from_int(0), PreconditionError);
}

TEST(Fixed, MultiplicationRounds) {
  // 0.5 * 0.5 = 0.25 exactly representable.
  const Q16 h = Q16::from_double(0.5);
  EXPECT_DOUBLE_EQ((h * h).to_double(), 0.25);
}

}  // namespace
}  // namespace mhs
