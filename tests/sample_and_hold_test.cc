#include "core/sample_and_hold.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stream/adversarial.h"
#include "stream/generators.h"
#include "stream/stream_stats.h"

namespace fewstate {
namespace {

SampleAndHoldOptions BaseOptions(uint64_t n, uint64_t m, double p = 2.0,
                                 double eps = 0.4, uint64_t seed = 1) {
  SampleAndHoldOptions options;
  options.universe = n;
  options.stream_length_hint = m;
  options.p = p;
  options.eps = eps;
  options.seed = seed;
  return options;
}

TEST(SampleAndHoldOptions, ValidationCatchesBadParameters) {
  SampleAndHoldOptions options = BaseOptions(1000, 1000);
  EXPECT_TRUE(options.Validate().ok());
  options.universe = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = BaseOptions(1000, 1000);
  options.p = 0.5;
  EXPECT_FALSE(options.Validate().ok());
  options = BaseOptions(1000, 1000);
  options.eps = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options = BaseOptions(1000, 1000);
  options.eps = 1.0;
  EXPECT_FALSE(options.Validate().ok());
  options = BaseOptions(1000, 1000);
  options.sample_rate_scale = 0.0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(SampleAndHold, CreateFactoryValidates) {
  std::unique_ptr<SampleAndHold> alg;
  SampleAndHoldOptions bad;
  EXPECT_FALSE(SampleAndHold::Create(bad, &alg).ok());
  EXPECT_EQ(alg, nullptr);
  EXPECT_TRUE(SampleAndHold::Create(BaseOptions(1000, 1000), &alg).ok());
  ASSERT_NE(alg, nullptr);
}

TEST(SampleAndHold, DeterministicPerSeed) {
  const Stream stream = ZipfStream(2000, 1.3, 20000, 5);
  SampleAndHold a(BaseOptions(2000, 20000, 2.0, 0.4, 9));
  SampleAndHold b(BaseOptions(2000, 20000, 2.0, 0.4, 9));
  a.Consume(stream);
  b.Consume(stream);
  EXPECT_EQ(a.accountant().state_changes(), b.accountant().state_changes());
  EXPECT_EQ(a.active_counters(), b.active_counters());
  for (const HeavyHitter& hh : a.TrackedItems()) {
    EXPECT_DOUBLE_EQ(hh.estimate, b.EstimateFrequency(hh.item));
  }
}

TEST(SampleAndHold, EstimatesNeverExceedTrueFrequencyByMuch) {
  // Underestimate property (up to the Morris counter's multiplicative
  // accuracy): est <= (1 + eps) f + 1.
  const Stream stream = ZipfStream(2000, 1.3, 40000, 6);
  const StreamStats oracle(stream);
  SampleAndHold alg(BaseOptions(2000, 40000, 2.0, 0.4, 7));
  alg.Consume(stream);
  for (const HeavyHitter& hh : alg.TrackedItems()) {
    const double truth = static_cast<double>(oracle.Frequency(hh.item));
    EXPECT_LE(hh.estimate, 1.4 * truth + 1.0) << "item " << hh.item;
  }
}

TEST(SampleAndHold, FindsPlantedHeavyHitterAccurately) {
  const uint64_t n = 10000, m = 100000;
  int found = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Stream stream =
        PlantedHeavyHitterStream(n, m, 33, /*heavy_count=*/20000, seed);
    SampleAndHold alg(BaseOptions(n, m, 2.0, 0.4, seed + 100));
    alg.Consume(stream);
    const double est = alg.EstimateFrequency(33);
    if (est >= 0.7 * 20000) ++found;
  }
  EXPECT_GE(found, 4);  // paper guarantee is constant probability; 5 seeds
}

TEST(SampleAndHold, CounterBudgetIsRespected) {
  SampleAndHoldOptions options = BaseOptions(5000, 50000);
  options.counter_budget_override = 32;
  options.reservoir_slots_override = 64;
  options.sample_rate_scale = 50.0;
  SampleAndHold alg(options);
  alg.Consume(ZipfStream(5000, 1.1, 50000, 8));
  EXPECT_LE(alg.active_counters(), 32u);
  EXPECT_GT(alg.maintenance_passes(), 0u);
}

TEST(SampleAndHold, StateChangesAreSublinearOnLongStreams) {
  const uint64_t n = 2000;
  const uint64_t m = 400000;
  SampleAndHold alg(BaseOptions(n, m, 2.0, 0.4, 9));
  alg.Consume(ZipfStream(n, 1.3, m, 10));
  EXPECT_LT(alg.accountant().state_changes(), m / 3);
  EXPECT_GT(alg.accountant().state_changes(), 0u);
}

TEST(SampleAndHold, ExactCountersChangeStateMoreOften) {
  const uint64_t n = 2000, m = 100000;
  const Stream stream = ZipfStream(n, 1.3, m, 11);
  SampleAndHoldOptions morris = BaseOptions(n, m);
  SampleAndHoldOptions exact = BaseOptions(n, m);
  exact.morris_a = -1.0;  // exact hold counters
  SampleAndHold with_morris(morris);
  SampleAndHold with_exact(exact);
  with_morris.Consume(stream);
  with_exact.Consume(stream);
  EXPECT_LT(with_morris.accountant().state_changes(),
            with_exact.accountant().state_changes());
}

TEST(SampleAndHold, ReservoirResidentsEstimateOne) {
  // On a permutation stream no item recurs, so no counters exist, but
  // reservoir residents report frequency 1 (needed for the Theorem 1.4
  // instance S2).
  const uint64_t n = 20000;
  SampleAndHoldOptions options = BaseOptions(n, n);
  options.sample_rate_scale = 50.0;
  SampleAndHold alg(options);
  alg.Consume(PermutationStream(n, 12));
  EXPECT_EQ(alg.active_counters(), 0u);
  const auto tracked = alg.TrackedItems();
  ASSERT_FALSE(tracked.empty());
  for (const HeavyHitter& hh : tracked) {
    EXPECT_DOUBLE_EQ(hh.estimate, 1.0);
  }
}

TEST(SampleAndHold, TrackedItemsAboveFilters) {
  const Stream stream = PlantedHeavyHitterStream(5000, 50000, 3, 25000, 13);
  SampleAndHold alg(BaseOptions(5000, 50000, 2.0, 0.4, 14));
  alg.Consume(stream);
  for (const HeavyHitter& hh : alg.TrackedItemsAbove(1000.0)) {
    EXPECT_GE(hh.estimate, 1000.0);
  }
}

TEST(SampleAndHold, DyadicAgePolicySurvivesCounterexample) {
  // On the §1.4 stream, dyadic-age maintenance retains the true heavy
  // hitter while global-smallest eviction loses it (majority over seeds).
  const CounterexampleStream cx = MakeCounterexampleStream(1 << 16, 15);
  auto run = [&](EvictionPolicy policy, uint64_t seed) {
    SampleAndHoldOptions options =
        BaseOptions(cx.universe, cx.stream.size(), 2.0, 0.5, seed);
    options.eviction = policy;
    // Pressure point: budget comparable to one special block's pseudo-heavy
    // count, so maintenance must choose between fresh pseudo-heavy counters
    // and the older, slower-growing true heavy hitter.
    options.counter_budget_override = 24;
    options.reservoir_slots_override = 24;
    options.sample_rate_scale = 16.0;
    SampleAndHold alg(options);
    alg.Consume(cx.stream);
    return alg.EstimateFrequency(cx.heavy_item) >=
           0.25 * static_cast<double>(cx.heavy_frequency);
  };
  int dyadic_hits = 0, smallest_hits = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    dyadic_hits += run(EvictionPolicy::kDyadicAge, 300 + seed);
    smallest_hits += run(EvictionPolicy::kGlobalSmallest, 300 + seed);
  }
  EXPECT_GE(dyadic_hits, 4);
  EXPECT_LE(smallest_hits, dyadic_hits - 2);
}

TEST(SampleAndHold, SharedAccountantAggregatesAcrossInstances) {
  StateAccountant shared;
  SampleAndHoldOptions options = BaseOptions(1000, 5000);
  SampleAndHold a(options, &shared);
  SampleAndHold b(options, &shared);
  const Stream stream = ZipfStream(1000, 1.2, 5000, 16);
  for (Item item : stream) {
    shared.BeginUpdate();
    a.Update(item);
    b.Update(item);
  }
  // Paper metric: at most one change per update even with two structures.
  EXPECT_LE(shared.state_changes(), stream.size());
  EXPECT_EQ(shared.updates(), stream.size());
}

TEST(SampleAndHold, UpdatesSeenCountsStreamPosition) {
  SampleAndHold alg(BaseOptions(100, 100));
  for (int i = 0; i < 57; ++i) alg.Update(i % 100);
  EXPECT_EQ(alg.updates_seen(), 57u);
}

}  // namespace
}  // namespace fewstate
