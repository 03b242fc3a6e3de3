#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace fewstate {
namespace {

TEST(SplitMix64, IsDeterministicAndAdvancesState) {
  uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(SplitMix64(&s1), SplitMix64(&s2));
  EXPECT_EQ(s1, s2);
  const uint64_t first = SplitMix64(&s1);
  EXPECT_NE(first, SplitMix64(&s1));
}

TEST(Mix64, IsAPureFunction) {
  EXPECT_EQ(Mix64(123), Mix64(123));
  EXPECT_NE(Mix64(123), Mix64(124));
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  EXPECT_NE(rng.Next(), rng.Next());
}

TEST(Rng, UniformIntRespectsBound) {
  Rng rng(3);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(Rng, UniformIntBound1IsAlwaysZero) {
  Rng rng(4);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.UniformRange(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    saw_lo |= (v == 10);
    saw_hi |= (v == 12);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(6);
  double sum = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(Rng, UniformDoublePositiveNeverZero) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.UniformDoublePositive(), 0.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_FALSE(rng.Bernoulli(-1.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_TRUE(rng.Bernoulli(2.0));
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(9);
  const int kDraws = 50000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.015);
}

TEST(Rng, GeometricLevelDistribution) {
  // P(level >= k) = 2^{-k}.
  Rng rng(10);
  const int kDraws = 100000;
  std::vector<int> at_least(12, 0);
  for (int i = 0; i < kDraws; ++i) {
    int level = rng.GeometricLevel();
    ASSERT_GE(level, 0);
    for (int k = 0; k <= level && k < 12; ++k) ++at_least[k];
  }
  EXPECT_EQ(at_least[0], kDraws);
  for (int k = 1; k <= 8; ++k) {
    const double expected = std::pow(2.0, -k);
    const double got = static_cast<double>(at_least[k]) / kDraws;
    EXPECT_NEAR(got, expected, 5 * std::sqrt(expected / kDraws) + 0.001)
        << "level " << k;
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  const int kDraws = 50000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < kDraws; ++i) {
    double z = rng.Normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(12);
  Rng c1 = parent.Fork(1);
  Rng c2 = parent.Fork(2);
  Rng c1_again = Rng(12).Fork(1);
  EXPECT_EQ(c1.Next(), c1_again.Next());
  EXPECT_NE(c1.Next(), c2.Next());
}

TEST(PStable, CauchyMedianAbsIsOne) {
  // |Cauchy| has median tan(pi/4) = 1.
  Rng rng(13);
  const int kDraws = 60000;
  int below = 0;
  for (int i = 0; i < kDraws; ++i) {
    below += (std::fabs(SamplePStable(1.0, &rng)) < 1.0);
  }
  EXPECT_NEAR(static_cast<double>(below) / kDraws, 0.5, 0.01);
}

TEST(PStable, GaussianCaseHasVarianceTwo) {
  // p = 2 yields N(0, 2) under the CMS parameterisation.
  Rng rng(14);
  const int kDraws = 60000;
  double sum_sq = 0;
  for (int i = 0; i < kDraws; ++i) {
    double x = SamplePStable(2.0, &rng);
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum_sq / kDraws, 2.0, 0.08);
}

TEST(PStable, StabilityProperty) {
  // For X, Y iid p-stable and any a, b: aX + bY ~ (a^p + b^p)^{1/p} Z.
  // Check via medians of |.| for p = 0.5.
  const double p = 0.5;
  Rng rng(15);
  const int kDraws = 40000;
  std::vector<double> combo(kDraws), single(kDraws);
  const double a = 1.0, b = 2.0;
  const double scale = std::pow(std::pow(a, p) + std::pow(b, p), 1.0 / p);
  for (int i = 0; i < kDraws; ++i) {
    combo[i] = std::fabs(a * SamplePStable(p, &rng) +
                         b * SamplePStable(p, &rng));
    single[i] = std::fabs(scale * SamplePStable(p, &rng));
  }
  std::nth_element(combo.begin(), combo.begin() + kDraws / 2, combo.end());
  std::nth_element(single.begin(), single.begin() + kDraws / 2, single.end());
  EXPECT_NEAR(combo[kDraws / 2] / single[kDraws / 2], 1.0, 0.08);
}

// The Chambers–Mallows–Stuck formula exactly as written, both exponents
// through std::pow. Kept out of line so that no call site's constant p
// lets the compiler fold pow(c, 2.0) into c*c.
__attribute__((noinline)) double LiteralCms(double p, double theta,
                                            double r) {
  const double lead = std::sin(p * theta) / std::pow(std::cos(theta), 1.0 / p);
  return lead *
         std::pow(std::cos(theta * (1.0 - p)) / -std::log(r), (1.0 - p) / p);
}

// PStableFromUniform takes p = 1/2's tail exponent (1) without pow and
// shares one sincos there; that shortcut must return the literal
// formula's bits, and every other p (Cauchy's p = 1 included) must too.
TEST(PStable, TransformIsTheLiteralFormulaBitForBit) {
  for (const double p : {0.5, 1.0, 0.3, 1.7, 2.0}) {
    volatile double opaque_p = p;
    Rng rng(17);
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
      double theta;
      do {
        theta = (rng.UniformDouble() - 0.5) * M_PI;
      } while (theta == -0.5 * M_PI);
      const double r = rng.UniformDoublePositive();
      const double got = PStableFromUniform(opaque_p, theta, r);
      const double want = LiteralCms(opaque_p, theta, r);
      uint64_t got_bits, want_bits;
      std::memcpy(&got_bits, &got, sizeof(got));
      std::memcpy(&want_bits, &want, sizeof(want));
      if (got_bits != want_bits && ++mismatches <= 3) {
        ADD_FAILURE() << "p=" << p << " theta=" << theta << " r=" << r
                      << ": " << got << " != " << want;
      }
    }
    EXPECT_EQ(mismatches, 0) << "p=" << p;
  }
}

}  // namespace
}  // namespace fewstate
