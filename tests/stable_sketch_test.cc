#include "baselines/stable_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "stream/generators.h"
#include "stream/stream_stats.h"

namespace fewstate {
namespace {

TEST(StableSketch, CauchyScaleFactorIsOne) {
  // median|D_1| = median of |Cauchy| = 1.
  EXPECT_NEAR(StableSketch::MedianAbsPStable(1.0), 1.0, 0.02);
}

TEST(StableSketch, ScaleFactorIsCachedAndDeterministic) {
  EXPECT_DOUBLE_EQ(StableSketch::MedianAbsPStable(0.5),
                   StableSketch::MedianAbsPStable(0.5));
}

TEST(StableSketch, L1OfSingleItemIsItsCount) {
  StableSketch sk(1.0, 128, 5, StableSketch::CounterMode::kExact);
  for (int i = 0; i < 1000; ++i) sk.Update(77);
  // ||f||_1 = 1000 exactly; the sketch sees 1000 * D(77).
  EXPECT_NEAR(sk.EstimateLp() / 1000.0, 1.0, 0.25);
}

TEST(StableSketch, MedianOfTrialsTracksFpAcrossP) {
  const uint64_t n = 2000, m = 30000;
  const Stream stream = ZipfStream(n, 1.2, m, 6);
  const StreamStats oracle(stream);
  for (double p : {0.3, 0.5, 0.8, 1.0}) {
    std::vector<double> ratios;
    for (uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
      StableSketch sk(p, 128, seed, StableSketch::CounterMode::kExact);
      sk.Consume(stream);
      ratios.push_back(sk.EstimateFp() / oracle.Fp(p));
    }
    std::nth_element(ratios.begin(), ratios.begin() + 2, ratios.end());
    EXPECT_NEAR(ratios[2], 1.0, 0.3) << "p=" << p;
  }
}

TEST(StableSketch, MorrisModeMatchesExactModeEstimates) {
  const Stream stream = ZipfStream(2000, 1.3, 30000, 7);
  const double p = 0.5;
  StableSketch exact(p, 96, 9, StableSketch::CounterMode::kExact);
  StableSketch morris(p, 96, 9, StableSketch::CounterMode::kMorris, 1e-4);
  exact.Consume(stream);
  morris.Consume(stream);
  // Same seed => same p-stable entries; only the counter noise differs.
  EXPECT_NEAR(morris.EstimateFp() / exact.EstimateFp(), 1.0, 0.1);
}

TEST(StableSketch, ExactModeWritesEveryUpdate) {
  const Stream stream = ZipfStream(500, 1.2, 4000, 10);
  StableSketch sk(0.5, 32, 11, StableSketch::CounterMode::kExact);
  sk.Consume(stream);
  EXPECT_EQ(sk.accountant().state_changes(), stream.size());
}

TEST(StableSketch, MorrisModeWritesFarLess) {
  const Stream stream = ZipfStream(500, 1.2, 60000, 12);
  StableSketch sk(0.5, 32, 13, StableSketch::CounterMode::kMorris, 1e-2);
  sk.Consume(stream);
  EXPECT_LT(sk.accountant().state_changes(), stream.size() / 2);
  EXPECT_GT(sk.accountant().state_changes(), 0u);
}

TEST(StableSketch, EntriesAreDeterministicPerSeed) {
  StableSketch a(0.5, 8, 42, StableSketch::CounterMode::kExact);
  StableSketch b(0.5, 8, 42, StableSketch::CounterMode::kExact);
  const Stream stream = ZipfStream(100, 1.0, 1000, 14);
  a.Consume(stream);
  b.Consume(stream);
  EXPECT_DOUBLE_EQ(a.EstimateLp(), b.EstimateLp());
}

// Two sketches in the same state: same tracked words, same accounting,
// and the same coins from here on (the RNG cursor).
void ExpectSameSketch(StableSketch* a, StableSketch* b) {
  EXPECT_EQ(a->TrackedWords(), b->TrackedWords());
  EXPECT_EQ(a->accountant().word_writes(), b->accountant().word_writes());
  EXPECT_EQ(a->accountant().state_changes(), b->accountant().state_changes());
  EXPECT_EQ(a->accountant().updates(), b->accountant().updates());
  const Stream more = ZipfStream(300, 1.2, 2000, 16);
  a->Consume(more);
  b->Consume(more);
  EXPECT_EQ(a->TrackedWords(), b->TrackedWords());
}

// The pre-stage's parts are pure and independent: run in reverse order
// they leave the sketch bitwise where a plain UpdateBatch does.
TEST(StableSketch, PreStagePartsInReverseOrderMatchPlainBatch) {
  const Stream stream = ZipfStream(uint64_t{1} << 16, 1.1, 12000, 17);
  for (const auto mode : {StableSketch::CounterMode::kExact,
                          StableSketch::CounterMode::kMorris}) {
    StableSketch plain(0.5, 32, 18, mode, 0.2);
    StableSketch split(0.5, 32, 18, mode, 0.2);
    size_t most_parts = 0;
    for (size_t off = 0; off < stream.size(); off += 4096) {
      const size_t n = std::min<size_t>(4096, stream.size() - off);
      plain.UpdateBatch(stream.data() + off, n);
      const size_t parts = split.PrepareBatch(stream.data() + off, n, 5);
      most_parts = std::max(most_parts, parts);
      for (size_t k = parts; k-- > 0;) split.PreparePart(k);
      split.UpdateBatch(stream.data() + off, n);
    }
    EXPECT_EQ(most_parts, 5u);
    ExpectSameSketch(&plain, &split);
  }
}

// An UpdateBatch runs its own pre-stage unless a complete plan for the
// same (items, n) is waiting: a plan for other items, for another length,
// or with a part never run is ignored.
TEST(StableSketch, StaleOrIncompletePlanIsIgnored) {
  const Stream a = ZipfStream(uint64_t{1} << 16, 1.1, 3000, 19);
  const Stream b = ZipfStream(uint64_t{1} << 16, 1.1, 3000, 20);
  StableSketch plain(0.5, 16, 21, StableSketch::CounterMode::kMorris, 0.2);
  StableSketch planned(0.5, 16, 21, StableSketch::CounterMode::kMorris, 0.2);

  plain.UpdateBatch(b.data(), b.size());
  size_t parts = planned.PrepareBatch(a.data(), a.size(), 3);
  for (size_t k = 0; k < parts; ++k) planned.PreparePart(k);
  planned.UpdateBatch(b.data(), b.size());  // other items
  ExpectSameSketch(&plain, &planned);

  plain.UpdateBatch(a.data(), 1000);
  parts = planned.PrepareBatch(a.data(), a.size(), 3);
  for (size_t k = 0; k < parts; ++k) planned.PreparePart(k);
  planned.UpdateBatch(a.data(), 1000);  // same items, another length
  ExpectSameSketch(&plain, &planned);

  plain.UpdateBatch(a.data(), a.size());
  parts = planned.PrepareBatch(a.data(), a.size(), 3);
  ASSERT_EQ(parts, 3u);
  planned.PreparePart(0);
  planned.PreparePart(2);
  planned.UpdateBatch(a.data(), a.size());  // part 1 never ran
  ExpectSameSketch(&plain, &planned);
}

// No pre-stage when there is nothing to project (every item hits the
// memo) or when the sketch keeps the scalar path (a shared accountant).
TEST(StableSketch, NoPreStageWithoutMisses) {
  StableSketch sk(0.5, 16, 22, StableSketch::CounterMode::kMorris, 0.2);
  const Item hot[] = {7, 7, 7};
  EXPECT_EQ(sk.PrepareBatch(hot, 3, 4), 1u);  // the cold memo misses once
  sk.UpdateBatch(hot, 3);
  EXPECT_EQ(sk.PrepareBatch(hot, 3, 4), 0u);
  sk.UpdateBatch(hot, 3);
  EXPECT_EQ(sk.accountant().updates(), 6u);

  StateAccountant shared;
  StableSketch nested(0.5, 16, 22, StableSketch::CounterMode::kMorris, 0.2,
                      &shared);
  EXPECT_EQ(nested.PrepareBatch(hot, 3, 4), 0u);
}

// The tracked words a seeded stream leaves behind, pinned to literal
// values: any change to the entries (the p-stable transform, its
// uniforms) or to the Morris rounding and coin order shows here. p = 0.5
// takes the transform's exact-exponent branch ((1-p)/p == 1) and p = 1
// (Cauchy) its general pow path. Scalar and batch paths must both land
// on the pinned words.
TEST(StableSketch, TrackedWordsMatchPinnedFingerprint) {
  const Stream stream = ZipfStream(3000, 1.2, 20000, 23);
  struct Case {
    double p;
    StableSketch::CounterMode mode;
    std::vector<uint64_t> words;
  };
  const Case cases[] = {
      // Levels of (positive, negative) counter pairs, row by row.
      {0.5,
       StableSketch::CounterMode::kMorris,
       {74, 99, 75, 91, 61, 78, 69, 85, 66, 74, 73, 92, 94, 70, 65, 82}},
      // Bit patterns of the row sums.
      {1.0,
       StableSketch::CounterMode::kExact,
       {0xc0dc99df1314f6cbULL, 0xc1141eb58055bcd2ULL, 0x40d02f8b5a7ef27dULL,
        0xc0d1cdb05291351bULL, 0xc0d72a7449b56534ULL, 0xc0e0b1462a3d34c6ULL,
        0x410ddbd477b05af0ULL, 0x40afe9499bfbc453ULL}},
  };
  for (const Case& c : cases) {
    StableSketch batch(c.p, 8, 24, c.mode, 0.2);
    batch.Consume(stream);
    StableSketch scalar(c.p, 8, 24, c.mode, 0.2);
    for (const Item item : stream) scalar.Update(item);
    EXPECT_EQ(batch.TrackedWords(), c.words) << "p=" << c.p;
    EXPECT_EQ(scalar.TrackedWords(), c.words) << "p=" << c.p;
  }
}

TEST(StableSketch, EmptyStreamEstimatesZero) {
  StableSketch sk(0.5, 16, 15, StableSketch::CounterMode::kMorris);
  EXPECT_DOUBLE_EQ(sk.EstimateLp(), 0.0);
}

}  // namespace
}  // namespace fewstate
