#include "core/fp_estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stream/adversarial.h"
#include "stream/generators.h"
#include "stream/stream_stats.h"

namespace fewstate {
namespace {

FpEstimatorOptions BaseOptions(uint64_t n, uint64_t m, double p,
                               uint64_t seed = 1) {
  FpEstimatorOptions options;
  options.universe = n;
  options.stream_length_hint = m;
  options.p = p;
  options.eps = 0.35;
  options.seed = seed;
  return options;
}

double MedianRatioOverSeeds(const Stream& stream, uint64_t n, double p,
                            int trials = 3) {
  const StreamStats oracle(stream);
  const double exact = oracle.Fp(p);
  std::vector<double> ratios;
  for (int trial = 0; trial < trials; ++trial) {
    FpEstimator alg(BaseOptions(n, stream.size(), p, 50 + trial));
    alg.Consume(stream);
    ratios.push_back(alg.EstimateFp() / exact);
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  return ratios[ratios.size() / 2];
}

TEST(FpEstimatorOptions, Validation) {
  FpEstimatorOptions options = BaseOptions(100, 100, 2.0);
  EXPECT_TRUE(options.Validate().ok());
  options.p = 0.9;
  EXPECT_FALSE(options.Validate().ok());
  options = BaseOptions(100, 100, 2.0);
  options.repetitions = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(FpEstimator, CreateFactory) {
  std::unique_ptr<FpEstimator> alg;
  EXPECT_TRUE(FpEstimator::Create(BaseOptions(100, 100, 2.0), &alg).ok());
  ASSERT_NE(alg, nullptr);
  FpEstimatorOptions bad;
  bad.universe = 0;
  EXPECT_FALSE(FpEstimator::Create(bad, &alg).ok());
}

TEST(FpEstimator, CreateRejectsOverwideShifts) {
  // levels feeds n >> ell and level_set_shift feeds 1 << (shift + 2);
  // Validate keeps both shifts below the 64-bit word width.
  std::unique_ptr<FpEstimator> alg;
  FpEstimatorOptions options = BaseOptions(100, 100, 2.0);
  options.levels = 64;
  EXPECT_EQ(FpEstimator::Create(options, &alg).code(),
            Status::Code::kInvalidArgument);
  options.levels = 63;
  EXPECT_TRUE(options.Validate().ok());
  options = BaseOptions(100, 100, 2.0);
  options.level_set_shift = 62;
  EXPECT_EQ(FpEstimator::Create(options, &alg).code(),
            Status::Code::kInvalidArgument);
  options.level_set_shift = 61;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(FpEstimator, AccurateOnSkewedStreamsAcrossP) {
  const uint64_t n = 10000, m = 100000;
  const Stream stream = ZipfStream(n, 1.3, m, 20);
  for (double p : {1.5, 2.0, 3.0}) {
    EXPECT_NEAR(MedianRatioOverSeeds(stream, n, p), 1.0, 0.3) << "p=" << p;
  }
}

TEST(FpEstimator, AccurateOnUniformStream) {
  const uint64_t n = 10000, m = 100000;
  const Stream stream = UniformStream(n, m, 21);
  EXPECT_NEAR(MedianRatioOverSeeds(stream, n, 2.0), 1.0, 0.3);
}

TEST(FpEstimator, AccurateOnPermutationStream) {
  // Fp = n for every p: the Theorem 1.4 S2 shape.
  const uint64_t n = 30000;
  const Stream stream = PermutationStream(n, 22);
  EXPECT_NEAR(MedianRatioOverSeeds(stream, n, 2.0), 1.0, 0.45);
}

TEST(FpEstimator, DistinguishesLowerBoundInstances) {
  const uint64_t n = 1 << 15;
  const LowerBoundInstance inst = MakeLowerBoundInstance(n, 181, 23);
  FpEstimator a(BaseOptions(n, n, 2.0, 24));
  FpEstimator b(BaseOptions(n, n, 2.0, 24));
  a.Consume(inst.s1);
  b.Consume(inst.s2);
  // Fp(S1) ~ 2n vs Fp(S2) = n.
  EXPECT_GT(a.EstimateFp(), 1.3 * b.EstimateFp());
}

TEST(FpEstimator, F1IsStreamLengthIsh) {
  const uint64_t n = 5000, m = 50000;
  const Stream stream = ZipfStream(n, 1.2, m, 25);
  EXPECT_NEAR(MedianRatioOverSeeds(stream, n, 1.0), 1.0, 0.35);
}

TEST(FpEstimator, ContributionsAreNonNegativeAndSumToEstimate) {
  const uint64_t n = 2000, m = 20000;
  FpEstimator alg(BaseOptions(n, m, 2.0, 26));
  alg.Consume(ZipfStream(n, 1.3, m, 27));
  const int z = 2 * 15;  // a mid-scale guess
  double total = 0.0;
  for (double c : alg.EstimateContributions(z)) {
    EXPECT_GE(c, 0.0);
    total += c;
  }
  EXPECT_DOUBLE_EQ(total, alg.EstimateFpAtScale(z));
}

TEST(FpEstimator, EstimateLpIsRootOfFp) {
  const uint64_t n = 2000, m = 20000;
  FpEstimator alg(BaseOptions(n, m, 2.0, 28));
  alg.Consume(ZipfStream(n, 1.3, m, 29));
  EXPECT_NEAR(alg.EstimateLp(), std::sqrt(alg.EstimateFp()), 1e-9);
}

TEST(FpEstimator, StateChangesFallBelowStreamLengthInTheRightRegime) {
  // m >> n^{1-1/p} polylog / eps^2: use a small universe and long stream.
  const uint64_t n = 1000, m = 500000;
  FpEstimator alg(BaseOptions(n, m, 2.0, 30));
  alg.Consume(ZipfStream(n, 1.3, m, 31));
  EXPECT_LT(alg.accountant().state_changes(), m / 2);
}

TEST(FpEstimator, EmptyStreamEstimatesZero) {
  FpEstimator alg(BaseOptions(1000, 1000, 2.0, 32));
  EXPECT_DOUBLE_EQ(alg.EstimateFp(), 0.0);
}

TEST(FpEstimator, ScaleSearchIsMonotoneSafe) {
  // The returned estimate never exceeds the max over scales (sanity of the
  // self-consistency rule).
  const uint64_t n = 3000, m = 30000;
  FpEstimator alg(BaseOptions(n, m, 2.0, 33));
  alg.Consume(UniformStream(n, m, 34));
  double max_over_scales = 0.0;
  for (int z = 1; z <= alg.MaxScaleExponent(); ++z) {
    max_over_scales = std::max(max_over_scales, alg.EstimateFpAtScale(z));
  }
  EXPECT_LE(alg.EstimateFp(), max_over_scales + 1e-9);
}

}  // namespace
}  // namespace fewstate
