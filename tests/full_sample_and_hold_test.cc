#include "core/full_sample_and_hold.h"

#include <gtest/gtest.h>

#include "stream/generators.h"
#include "stream/stream_stats.h"

namespace fewstate {
namespace {

FullSampleAndHoldOptions BaseOptions(uint64_t n, uint64_t m,
                                     uint64_t seed = 1) {
  FullSampleAndHoldOptions options;
  options.universe = n;
  options.stream_length_hint = m;
  options.p = 2.0;
  options.eps = 0.4;
  options.seed = seed;
  return options;
}

TEST(FullSampleAndHoldOptions, Validation) {
  FullSampleAndHoldOptions options = BaseOptions(100, 100);
  EXPECT_TRUE(options.Validate().ok());
  options.repetitions = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = BaseOptions(0, 100);
  EXPECT_FALSE(options.Validate().ok());
}

TEST(FullSampleAndHold, CreateFactory) {
  std::unique_ptr<FullSampleAndHold> alg;
  EXPECT_TRUE(FullSampleAndHold::Create(BaseOptions(100, 100), &alg).ok());
  ASSERT_NE(alg, nullptr);
  FullSampleAndHoldOptions bad;
  EXPECT_FALSE(FullSampleAndHold::Create(bad, &alg).ok());
}

TEST(FullSampleAndHold, CreateRejectsOverwideLevels) {
  // Level x shifts by x bits (1 << x, m_hint >> x); Validate keeps the
  // level count below the 64-bit word width.
  std::unique_ptr<FullSampleAndHold> alg;
  FullSampleAndHoldOptions options = BaseOptions(100, 100);
  options.levels = 64;
  EXPECT_EQ(FullSampleAndHold::Create(options, &alg).code(),
            Status::Code::kInvalidArgument);
  options.levels = 63;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(FullSampleAndHold, LevelsDeriveFromStreamHint) {
  FullSampleAndHoldOptions options = BaseOptions(1000, 1 << 12);
  FullSampleAndHold alg(options);
  EXPECT_EQ(alg.levels(), 13u);  // log2(4096) + 1
  EXPECT_EQ(alg.repetitions(), 3u);
}

TEST(FullSampleAndHold, SubstreamLengthsDecayGeometrically) {
  FullSampleAndHold alg(BaseOptions(2000, 32768, 3));
  alg.Consume(ZipfStream(2000, 1.2, 32768, 4));
  for (size_t r = 0; r < alg.repetitions(); ++r) {
    // Level 0 sees everything; its Morris length counter is a coarse
    // (factor ~2) approximation.
    const double level0 = alg.SubstreamLength(r, 0) / 32768.0;
    EXPECT_GT(level0, 0.3);
    EXPECT_LT(level0, 3.0);
    // Depth x sees ~2^{-x}: check the trend over well-separated levels.
    EXPECT_GT(alg.SubstreamLength(r, 0), alg.SubstreamLength(r, 5));
    EXPECT_GT(alg.SubstreamLength(r, 2), alg.SubstreamLength(r, 8));
  }
}

TEST(FullSampleAndHold, AccurateOnPlantedHeavyHitter) {
  const uint64_t n = 10000, m = 100000;
  int good = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Stream stream = PlantedHeavyHitterStream(n, m, 77, 20000, seed);
    FullSampleAndHold alg(BaseOptions(n, m, 40 + seed));
    alg.Consume(stream);
    const double est = alg.EstimateFrequency(77);
    if (est >= 0.7 * 20000 && est <= 1.5 * 20000) ++good;
  }
  EXPECT_GE(good, 4);
}

TEST(FullSampleAndHold, HandlesVeryHeavyItems) {
  // An item with f^p >> m needs the deeper substreams (the Fp = Otilde(n)
  // assumption fails at level 0 for this workload shape).
  const uint64_t n = 1000, m = 200000;
  Stream stream;
  stream.reserve(m);
  for (uint64_t t = 0; t < m; ++t) {
    stream.push_back(t % 2 == 0 ? 5 : (t / 2) % n);
  }
  FullSampleAndHold alg(BaseOptions(n, m, 6));
  alg.Consume(stream);
  EXPECT_NEAR(alg.EstimateFrequency(5) / (m / 2.0), 1.0, 0.4);
}

TEST(FullSampleAndHold, UntrackedItemsEstimateZero) {
  FullSampleAndHold alg(BaseOptions(1000, 1000, 7));
  alg.Consume(PermutationStream(1000, 8));
  // Item outside the universe was never seen.
  EXPECT_DOUBLE_EQ(alg.EstimateFrequency(999999), 0.0);
}

TEST(FullSampleAndHold, TrackedItemsAboveThresholdAreConsistent) {
  const Stream stream = ZipfStream(3000, 1.4, 60000, 9);
  FullSampleAndHold alg(BaseOptions(3000, 60000, 10));
  alg.Consume(stream);
  const auto all = alg.TrackedItems();
  const auto above = alg.TrackedItemsAbove(500.0);
  EXPECT_LE(above.size(), all.size());
  for (const HeavyHitter& hh : above) {
    EXPECT_GE(hh.estimate, 500.0);
    EXPECT_DOUBLE_EQ(hh.estimate, alg.EstimateFrequency(hh.item));
  }
}

TEST(FullSampleAndHold, StateChangesSublinearInStreamLength) {
  const uint64_t n = 2000;
  uint64_t prev_ratio_x1000 = 2000;
  for (uint64_t m : {50000ULL, 200000ULL}) {
    FullSampleAndHold alg(BaseOptions(n, m, 11));
    alg.Consume(ZipfStream(n, 1.3, m, 12));
    const uint64_t ratio_x1000 =
        1000 * alg.accountant().state_changes() / m;
    EXPECT_LT(ratio_x1000, prev_ratio_x1000);
    prev_ratio_x1000 = ratio_x1000;
  }
}

TEST(FullSampleAndHold, MediansSuppressSingleRepetitionFlukes) {
  // Deep-level subsampling flukes are filtered by the reliability bar and
  // medians. With R = 3 repetitions the per-item guarantee is
  // constant-probability (the paper boosts with R = O(log n)), so we bound
  // the *rate* of inflated estimates, not every item.
  const Stream stream = ZipfStream(3000, 1.1, 60000, 13);
  const StreamStats oracle(stream);
  FullSampleAndHold alg(BaseOptions(3000, 60000, 14));
  alg.Consume(stream);
  const auto tracked = alg.TrackedItems();
  ASSERT_FALSE(tracked.empty());
  size_t inflated = 0;
  for (const HeavyHitter& hh : tracked) {
    const double truth = static_cast<double>(oracle.Frequency(hh.item));
    if (hh.estimate > std::max(64.0, 2.0 * truth)) ++inflated;
    // Hard cap: nothing may be reported beyond 4x its frequency + slack.
    EXPECT_LE(hh.estimate, std::max(80.0, 4.0 * truth)) << hh.item;
  }
  EXPECT_LE(inflated * 50, tracked.size());  // <= 2% of items
}

}  // namespace
}  // namespace fewstate
