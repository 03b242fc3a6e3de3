#include "common/math_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace fewstate {
namespace {

TEST(FloorLog2, EdgeCases) {
  EXPECT_EQ(FloorLog2(0), -1);
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(4), 2);
  EXPECT_EQ(FloorLog2(1023), 9);
  EXPECT_EQ(FloorLog2(1024), 10);
  EXPECT_EQ(FloorLog2(~0ULL), 63);
}

TEST(CeilLog2, EdgeCases) {
  EXPECT_EQ(CeilLog2(0), 0);
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(4), 2);
  EXPECT_EQ(CeilLog2(5), 3);
  EXPECT_EQ(CeilLog2(1024), 10);
  EXPECT_EQ(CeilLog2(1025), 11);
}

TEST(NextPowerOfTwo, EdgeCases) {
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(4), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
  EXPECT_EQ(NextPowerOfTwo((1ULL << 62) + 1), 1ULL << 63);
  EXPECT_EQ(NextPowerOfTwo(~0ULL), 1ULL << 63);  // saturates
}

TEST(DyadicBucket, GroupsAgesByPowerOfTwo) {
  EXPECT_EQ(DyadicBucket(0), 0);
  EXPECT_EQ(DyadicBucket(1), 0);
  EXPECT_EQ(DyadicBucket(2), 1);
  EXPECT_EQ(DyadicBucket(3), 1);
  EXPECT_EQ(DyadicBucket(4), 2);
  EXPECT_EQ(DyadicBucket(7), 2);
  EXPECT_EQ(DyadicBucket(8), 3);
  // Every age in [2^z, 2^{z+1}) shares bucket z.
  for (int z = 1; z < 20; ++z) {
    EXPECT_EQ(DyadicBucket(1ULL << z), z);
    EXPECT_EQ(DyadicBucket((1ULL << (z + 1)) - 1), z);
  }
}

TEST(PowP, ZeroConventions) {
  EXPECT_EQ(PowP(0.0, 0.0), 1.0);
  EXPECT_EQ(PowP(0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(PowP(3.0, 2.0), 9.0);
  EXPECT_NEAR(PowP(2.0, 0.5), std::sqrt(2.0), 1e-12);
}

TEST(ChebyshevNodes, EndpointsAndCount) {
  auto nodes = ChebyshevNodes(4);
  ASSERT_EQ(nodes.size(), 5u);
  EXPECT_NEAR(nodes.front(), 1.0, 1e-12);
  EXPECT_NEAR(nodes.back(), -1.0, 1e-12);
  for (size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_LT(nodes[i], nodes[i - 1]);  // strictly decreasing
  }
}

TEST(EntropyInterpolationPoints, MatchLemma37Structure) {
  const int k = 4;
  const uint64_t m = 1 << 20;
  auto points = EntropyInterpolationPoints(k, m);
  ASSERT_EQ(points.size(), static_cast<size_t>(k + 1));
  const double ell = 1.0 / (2.0 * (k + 1) * std::log2(static_cast<double>(m)));
  for (double p : points) {
    EXPECT_GT(p, 1.0 - ell - 1e-12);
    EXPECT_LE(p, 1.0 + ell + 1e-12);
    EXPECT_NE(p, 1.0);  // the interpolant is evaluated at 1, nodes avoid it
    EXPECT_GT(p, 0.0);
  }
  // Distinct nodes (required for interpolation).
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      EXPECT_NE(points[i], points[j]);
    }
  }
}

TEST(LagrangeInterpolate, ExactOnPolynomials) {
  // Interpolating x^2 - 3x + 2 through 3 points is exact everywhere.
  std::vector<double> xs = {0.0, 1.0, 3.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(x * x - 3 * x + 2);
  for (double x : {-1.0, 0.5, 2.0, 10.0}) {
    EXPECT_NEAR(LagrangeInterpolate(xs, ys, x), x * x - 3 * x + 2, 1e-9);
  }
}

TEST(LagrangeInterpolate, ReproducesNodeValues) {
  std::vector<double> xs = {0.9, 0.95, 1.05, 1.1};
  std::vector<double> ys = {2.0, -1.0, 4.0, 0.5};
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(LagrangeInterpolate(xs, ys, xs[i]), ys[i], 1e-9);
  }
}

TEST(LagrangeInterpolateDerivative, ExactOnPolynomials) {
  // d/dx (x^3 - 2x) = 3x^2 - 2; 4 nodes determine a cubic exactly.
  std::vector<double> xs = {-1.0, 0.0, 1.0, 2.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(x * x * x - 2 * x);
  for (double x : {-0.5, 0.0, 1.5}) {
    EXPECT_NEAR(LagrangeInterpolateDerivative(xs, ys, x), 3 * x * x - 2,
                1e-9);
  }
}

TEST(LagrangeInterpolateDerivative, LinearCase) {
  std::vector<double> xs = {1.0, 2.0};
  std::vector<double> ys = {3.0, 5.0};
  EXPECT_NEAR(LagrangeInterpolateDerivative(xs, ys, 1.5), 2.0, 1e-12);
}

TEST(Median, OddAndEvenSizes) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({5.0}), 5.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({1.0, 1.0, 9.0, 9.0}), 5.0);
}

// MedianInPlace is the order statistic of a sorted copy (the mean of the
// two middle ones for even sizes), ties and repeated values included.
TEST(Median, InPlaceMatchesSortedOrderStatistics) {
  EXPECT_EQ(MedianInPlace(nullptr, 0), 0.0);
  for (size_t n = 1; n <= 9; ++n) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      std::vector<double> values(n);
      for (size_t i = 0; i < n; ++i) {
        values[i] = static_cast<double>((seed * 7 + i * 13) % 5) + 0.25;
      }
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const double expected =
          n % 2 == 1 ? sorted[n / 2]
                     : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
      EXPECT_EQ(MedianInPlace(values.data(), n), expected)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Mean, Basics) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(FitLogLogSlope, RecoversExactPowerLaws) {
  for (double exponent : {0.0, 0.5, 1.0, 2.0}) {
    std::vector<double> xs, ys;
    for (double x : {10.0, 100.0, 1000.0, 10000.0}) {
      xs.push_back(x);
      ys.push_back(3.7 * std::pow(x, exponent));
    }
    EXPECT_NEAR(FitLogLogSlope(xs, ys), exponent, 1e-9);
  }
}

TEST(FitLogLogSlope, DegenerateInput) {
  EXPECT_EQ(FitLogLogSlope({2.0, 2.0}, {5.0, 5.0}), 0.0);
}

}  // namespace
}  // namespace fewstate
