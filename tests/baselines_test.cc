// Unit tests for the Table 1 baselines: Misra-Gries, CountMin,
// CountSketch, SpaceSaving, plus the AMS F2 sketch. Each test pins the
// structure's classic guarantee and its Theta(m) state-change behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/ams_sketch.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "stream/generators.h"
#include "stream/stream_stats.h"

namespace fewstate {
namespace {

Stream TestStream(uint64_t n = 2000, uint64_t m = 40000, uint64_t seed = 3) {
  return ZipfStream(n, 1.3, m, seed);
}

// ---------- Misra-Gries ----------

TEST(MisraGries, EstimatesAreUnderestimatesWithBoundedError) {
  const Stream stream = TestStream();
  const StreamStats oracle(stream);
  const size_t k = 200;
  MisraGries mg(k);
  mg.Consume(stream);
  for (const auto& [item, f] : oracle.frequencies()) {
    const double est = mg.EstimateFrequency(item);
    EXPECT_LE(est, static_cast<double>(f));
    EXPECT_GE(est, static_cast<double>(f) -
                       static_cast<double>(stream.size()) / (k + 1));
  }
}

TEST(MisraGries, FindsAllTrueL1HeavyHitters) {
  const Stream stream = TestStream();
  const StreamStats oracle(stream);
  const double eps = 0.02;
  const double threshold = eps * static_cast<double>(stream.size());
  MisraGries mg(static_cast<size_t>(4.0 / eps));
  mg.Consume(stream);
  for (Item item : oracle.ItemsAbove(threshold)) {
    EXPECT_GE(mg.EstimateFrequency(item), 0.5 * threshold) << item;
  }
}

TEST(MisraGries, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 4);
  MisraGries mg(50);
  mg.Consume(stream);
  EXPECT_EQ(mg.accountant().state_changes(), stream.size());
}

TEST(MisraGries, CapacityIsRespected) {
  MisraGries mg(10);
  mg.Consume(PermutationStream(1000, 5));
  EXPECT_LE(mg.size(), 10u);
}

TEST(MisraGries, SingleItemStreamIsExact) {
  MisraGries mg(4);
  for (int i = 0; i < 100; ++i) mg.Update(7);
  EXPECT_DOUBLE_EQ(mg.EstimateFrequency(7), 100.0);
}

// ---------- CountMin ----------

TEST(CountMin, EstimatesAreOverestimatesWithBoundedError) {
  const Stream stream = TestStream();
  const StreamStats oracle(stream);
  CountMin cm(5, 1024, 11);
  cm.Consume(stream);
  const double slack =
      2.0 * static_cast<double>(stream.size()) / 1024.0 * 5;  // generous
  for (const auto& [item, f] : oracle.frequencies()) {
    const double est = cm.EstimateFrequency(item);
    EXPECT_GE(est, static_cast<double>(f));
    EXPECT_LE(est, static_cast<double>(f) + slack);
  }
}

TEST(CountMin, ConservativeUpdateIsTighter) {
  const Stream stream = TestStream(1000, 30000, 12);
  const StreamStats oracle(stream);
  CountMin plain(4, 256, 13, /*conservative=*/false);
  CountMin conservative(4, 256, 13, /*conservative=*/true);
  plain.Consume(stream);
  conservative.Consume(stream);
  double plain_err = 0, cons_err = 0;
  for (const auto& [item, f] : oracle.frequencies()) {
    plain_err += plain.EstimateFrequency(item) - static_cast<double>(f);
    cons_err += conservative.EstimateFrequency(item) - static_cast<double>(f);
    // Conservative update never underestimates either.
    EXPECT_GE(conservative.EstimateFrequency(item), static_cast<double>(f));
  }
  EXPECT_LE(cons_err, plain_err);
}

TEST(CountMin, ConservativeUpdateCoversRowsPast64) {
  // The estimate is the min over every row, so a row the update skipped
  // (index 64 and up) would pin every estimate at 0. Both update paths:
  // scalar `Update` and the `UpdateBatch` kernel behind `Consume`.
  const Stream stream = TestStream(1000, 20000, 17);
  const StreamStats oracle(stream);
  CountMin scalar(65, 256, 18, /*conservative=*/true);
  for (const Item item : stream) scalar.Update(item);
  CountMin batched(65, 256, 18, /*conservative=*/true);
  batched.Consume(stream);
  for (const auto& [item, f] : oracle.frequencies()) {
    EXPECT_GE(scalar.EstimateFrequency(item), static_cast<double>(f));
    EXPECT_GE(batched.EstimateFrequency(item), static_cast<double>(f));
  }
}

TEST(CountMin, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 14);
  CountMin cm(4, 512, 15);
  cm.Consume(stream);
  EXPECT_EQ(cm.accountant().state_changes(), stream.size());
}

TEST(CountMin, HeavyHittersByScanFindsPlantedItem) {
  Stream stream = PlantedHeavyHitterStream(5000, 20000, 42, 4000, 16);
  CountMin cm(4, 2048, 17);
  cm.Consume(stream);
  auto hh = cm.HeavyHittersByScan(5000, 2000.0);
  bool found = false;
  for (const auto& h : hh) found |= (h.item == 42);
  EXPECT_TRUE(found);
}

// ---------- CountSketch ----------

TEST(CountSketch, MedianEstimateIsAccurateForHeavyItems) {
  Stream stream = PlantedHeavyHitterStream(5000, 20000, 99, 5000, 18);
  CountSketch cs(5, 1024, 19);
  cs.Consume(stream);
  EXPECT_NEAR(cs.EstimateFrequency(99), 5000.0, 500.0);
}

TEST(CountSketch, F2EstimateIsAccurate) {
  const Stream stream = TestStream(2000, 40000, 20);
  const StreamStats oracle(stream);
  CountSketch cs(5, 2048, 21);
  cs.Consume(stream);
  EXPECT_NEAR(cs.EstimateF2() / oracle.Fp(2.0), 1.0, 0.15);
}

TEST(CountSketch, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 22);
  CountSketch cs(4, 512, 23);
  cs.Consume(stream);
  EXPECT_EQ(cs.accountant().state_changes(), stream.size());
}

// ---------- SpaceSaving ----------

TEST(SpaceSaving, EstimatesAreOverestimatesWithBoundedError) {
  const Stream stream = TestStream();
  const StreamStats oracle(stream);
  const size_t k = 400;
  SpaceSaving ss(k);
  ss.Consume(stream);
  for (const auto& [item, f] : oracle.frequencies()) {
    const double est = ss.EstimateFrequency(item);
    EXPECT_GE(est, static_cast<double>(f));
    EXPECT_LE(est,
              static_cast<double>(f) + static_cast<double>(stream.size()) / k);
  }
}

TEST(SpaceSaving, HoldsExactlyKEntriesOnceSaturated) {
  SpaceSaving ss(16);
  ss.Consume(PermutationStream(1000, 24));
  EXPECT_EQ(ss.size(), 16u);
  EXPECT_GT(ss.min_count(), 0u);
}

TEST(SpaceSaving, TopItemSurvivesReplacementPressure) {
  Stream stream = PlantedHeavyHitterStream(20000, 40000, 7, 8000, 25);
  SpaceSaving ss(64);
  ss.Consume(stream);
  EXPECT_GE(ss.EstimateFrequency(7), 8000.0);
  auto hh = ss.HeavyHitters(7000.0);
  bool found = false;
  for (const auto& h : hh) found |= (h.item == 7);
  EXPECT_TRUE(found);
}

TEST(SpaceSaving, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 26);
  SpaceSaving ss(64);
  ss.Consume(stream);
  EXPECT_EQ(ss.accountant().state_changes(), stream.size());
}

TEST(SpaceSaving, MinCountIsZeroWhileNotFull) {
  SpaceSaving ss(100);
  ss.Update(1);
  ss.Update(2);
  EXPECT_EQ(ss.min_count(), 0u);
}

// ---------- AMS ----------

TEST(AmsSketch, F2EstimateWithinTolerance) {
  const Stream stream = TestStream(2000, 40000, 27);
  const StreamStats oracle(stream);
  AmsSketch ams(5, 64, 28);
  ams.Consume(stream);
  EXPECT_NEAR(ams.EstimateF2() / oracle.Fp(2.0), 1.0, 0.2);
}

TEST(AmsSketch, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 29);
  AmsSketch ams(3, 8, 30);
  ams.Consume(stream);
  EXPECT_EQ(ams.accountant().state_changes(), stream.size());
}

TEST(AmsSketch, SingleItemStreamGivesSquaredCount) {
  AmsSketch ams(5, 32, 31);
  for (int i = 0; i < 500; ++i) ams.Update(3);
  // One item of frequency 500: F2 = 250000 exactly (signs square away).
  EXPECT_NEAR(ams.EstimateF2(), 250000.0, 1.0);
}

}  // namespace
}  // namespace fewstate
