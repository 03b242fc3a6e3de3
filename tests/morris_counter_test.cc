#include "counters/morris_counter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/random.h"
#include "state/state_accountant.h"

namespace fewstate {
namespace {

TEST(MorrisCounter, ExactModeCountsExactly) {
  StateAccountant a;
  Rng rng(1);
  MorrisCounter counter(&a, &rng, 0.0);
  for (int i = 0; i < 1000; ++i) counter.Increment();
  EXPECT_DOUBLE_EQ(counter.Estimate(), 1000.0);
  EXPECT_EQ(counter.level_changes(), 1000u);
}

TEST(MorrisCounter, StartsAtZero) {
  StateAccountant a;
  Rng rng(2);
  MorrisCounter counter(&a, &rng, 0.1);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 0.0);
  EXPECT_EQ(counter.level(), 0u);
}

TEST(MorrisCounter, FirstIncrementIsDeterministic) {
  // At level 0 the advance probability is (1+a)^0 = 1.
  StateAccountant a;
  Rng rng(3);
  MorrisCounter counter(&a, &rng, 0.5);
  counter.Increment();
  EXPECT_EQ(counter.level(), 1u);
  EXPECT_NEAR(counter.Estimate(), 1.0, 1e-9);
}

TEST(MorrisCounter, UnbiasedAcrossInstances) {
  const double kA = 0.05;
  const uint64_t kN = 5000;
  const int kCounters = 64;
  StateAccountant a;
  Rng rng(4);
  double sum = 0;
  for (int c = 0; c < kCounters; ++c) {
    MorrisCounter counter(&a, &rng, kA);
    for (uint64_t i = 0; i < kN; ++i) counter.Increment();
    sum += counter.Estimate();
  }
  const double mean = sum / kCounters;
  // Relative sd of the mean ~ sqrt(a/2)/sqrt(kCounters) ~ 2%.
  EXPECT_NEAR(mean / kN, 1.0, 0.08);
}

TEST(MorrisCounter, ErrorShrinksWithGrowthParameter) {
  const uint64_t kN = 20000;
  const int kCounters = 48;
  StateAccountant a;
  Rng rng(5);
  double err_small_a = 0, err_big_a = 0;
  for (int c = 0; c < kCounters; ++c) {
    MorrisCounter fine(&a, &rng, 0.002);
    MorrisCounter coarse(&a, &rng, 0.5);
    for (uint64_t i = 0; i < kN; ++i) {
      fine.Increment();
      coarse.Increment();
    }
    err_small_a += std::fabs(fine.Estimate() - kN) / kN;
    err_big_a += std::fabs(coarse.Estimate() - kN) / kN;
  }
  EXPECT_LT(err_small_a / kCounters, 0.05);
  EXPECT_LT(err_small_a, err_big_a);
}

TEST(MorrisCounter, StateChangesAreLogarithmic) {
  const double kA = 0.05;
  StateAccountant a;
  Rng rng(6);
  MorrisCounter counter(&a, &rng, kA);
  const uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) counter.Increment();
  // Expected level ~ log(1 + a n)/log(1 + a) ~ 175; allow generous slack.
  EXPECT_LT(counter.level_changes(), kN / 50);
  EXPECT_GT(counter.level_changes(), 20u);
  // state changes recorded in the accountant match the level changes: no
  // update epochs were opened, so we check word_writes instead.
  EXPECT_EQ(a.word_writes(), counter.level_changes());
}

TEST(MorrisCounter, WeightedAddMatchesUnitIncrements) {
  // Adding 1.0 repeatedly is distributionally the classic Morris rule.
  const double kA = 0.1;
  const int kCounters = 64;
  const uint64_t kN = 2000;
  StateAccountant a;
  Rng rng(7);
  double sum = 0;
  for (int c = 0; c < kCounters; ++c) {
    MorrisCounter counter(&a, &rng, kA);
    for (uint64_t i = 0; i < kN; ++i) counter.Add(1.0);
    sum += counter.Estimate();
  }
  EXPECT_NEAR(sum / kCounters / kN, 1.0, 0.12);
}

TEST(MorrisCounter, WeightedAddUnbiasedForFractionalWeights) {
  const double kA = 0.05;
  const int kCounters = 64;
  StateAccountant a;
  Rng rng(8);
  double sum = 0;
  const double kTotal = 1000.0;
  for (int c = 0; c < kCounters; ++c) {
    MorrisCounter counter(&a, &rng, kA);
    double pushed = 0;
    while (pushed < kTotal) {
      counter.Add(0.37);
      pushed += 0.37;
    }
    sum += counter.Estimate() / pushed;
  }
  EXPECT_NEAR(sum / kCounters, 1.0, 0.1);
}

TEST(MorrisCounter, LargeSingleAddJumpsInOneWrite) {
  StateAccountant a;
  Rng rng(9);
  MorrisCounter counter(&a, &rng, 0.01);
  counter.Add(1e6);
  EXPECT_NEAR(counter.Estimate(), 1e6, 0.02 * 1e6);
  EXPECT_LE(counter.level_changes(), 1u);
}

TEST(MorrisCounter, AddZeroOrNegativeIsNoOp) {
  StateAccountant a;
  Rng rng(10);
  MorrisCounter counter(&a, &rng, 0.1);
  counter.Add(0.0);
  counter.Add(-5.0);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 0.0);
  EXPECT_EQ(counter.level_changes(), 0u);
}

TEST(MorrisCounter, ExactModeWeightedAddStochasticallyRounds) {
  // a = 0: value(X) = X, so Add(0.5) advances with probability 0.5.
  StateAccountant a;
  Rng rng(11);
  MorrisCounter counter(&a, &rng, 0.0);
  const int kAdds = 10000;
  for (int i = 0; i < kAdds; ++i) counter.Add(0.5);
  EXPECT_NEAR(counter.Estimate() / (0.5 * kAdds), 1.0, 0.06);
}

TEST(MorrisCounter, GrowthForAccuracyScalesAsEpsSquaredDelta) {
  EXPECT_DOUBLE_EQ(MorrisCounter::GrowthForAccuracy(0.1, 0.1),
                   2.0 * 0.01 * 0.1);
  EXPECT_LT(MorrisCounter::GrowthForAccuracy(0.01, 0.1),
            MorrisCounter::GrowthForAccuracy(0.1, 0.1));
}

TEST(MorrisCounter, MonotoneEstimates) {
  // Estimates never decrease as increments accumulate.
  StateAccountant a;
  Rng rng(12);
  MorrisCounter counter(&a, &rng, 0.2);
  double last = 0.0;
  for (int i = 0; i < 5000; ++i) {
    counter.Increment();
    const double now = counter.Estimate();
    ASSERT_GE(now, last);
    last = now;
  }
}

// The uncached closed forms, as MorrisCounter computed them before it
// cached its current-level boundaries: the reference the cached counter
// must match bit for bit (same levels, same coins, same RNG cursor).
class ReferenceMorris {
 public:
  ReferenceMorris(Rng* rng, double a)
      : rng_(rng), a_(a < 0 ? 0.0 : a), log1p_a_(std::log1p(a_)) {}

  double ValueAt(double x) const {
    if (a_ == 0.0) return x;
    return std::expm1(x * log1p_a_) / a_;
  }

  void Increment() {
    if (a_ == 0.0 ||
        rng_->Bernoulli(std::exp(-static_cast<double>(level_) * log1p_a_))) {
      ++level_;
      ++level_changes_;
    }
  }

  void Add(double w) {
    if (w <= 0.0) return;
    const double target = ValueAt(level_) + w;
    const double xf =
        a_ == 0.0 ? target : std::log1p(a_ * target) / log1p_a_;
    uint32_t base = static_cast<uint32_t>(xf);
    if (base < level_) base = level_;
    const double lo = ValueAt(base);
    const double gap = ValueAt(base + 1) - lo;
    double q = (target - lo) / gap;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const uint32_t final_level = base + (rng_->Bernoulli(q) ? 1 : 0);
    if (final_level != level_) {
      level_ = final_level;
      ++level_changes_;
    }
  }

  void Merge(const ReferenceMorris& other) { Add(other.Estimate()); }

  void RestoreFrom(const ReferenceMorris& other) {
    level_ = other.level_;
    level_changes_ = other.level_changes_;
  }

  double Estimate() const { return ValueAt(level_); }
  uint32_t level() const { return level_; }
  uint64_t level_changes() const { return level_changes_; }

 private:
  Rng* rng_;
  double a_;
  double log1p_a_;
  uint32_t level_ = 0;
  uint64_t level_changes_ = 0;
};

// Weight that lands the target `ulps` representable doubles away from the
// reference's value(x+1) — the boundary where the cached shortcut must
// hand over to the exact inverse.
double NearBoundaryWeight(const ReferenceMorris& ref, int ulps) {
  const double here = ref.ValueAt(ref.level());
  double edge = ref.ValueAt(ref.level() + 1);
  const double toward = ulps < 0 ? 0.0 : INFINITY;
  for (int i = 0; i < std::abs(ulps); ++i) edge = std::nextafter(edge, toward);
  return edge - here;
}

TEST(MorrisCounter, CachedBoundariesMatchUncachedFormulas) {
  struct Config {
    double a;
    uint32_t level_cap;  // stop jumping here (a = 0.2 overflows ~3890)
  };
  for (const Config config : {Config{0.0, 200000}, Config{1e-3, 20000},
                              Config{0.2, 3000}}) {
    const double a = config.a;
    StateAccountant accountant;
    Rng rng(42);
    Rng ref_rng(42);
    Rng step_rng(7 + static_cast<uint64_t>(a * 1e6));
    MorrisCounter counters[2] = {MorrisCounter(&accountant, &rng, a),
                                 MorrisCounter(&accountant, &rng, a)};
    ReferenceMorris refs[2] = {ReferenceMorris(&ref_rng, a),
                               ReferenceMorris(&ref_rng, a)};
    uint32_t max_level = 0;
    for (int step = 0; step < 40000; ++step) {
      const int c = static_cast<int>(step_rng.Next() & 1);
      MorrisCounter& counter = counters[c];
      ReferenceMorris& ref = refs[c];
      const uint64_t op = step_rng.UniformInt(9);
      const double gap = ref.ValueAt(ref.level() + 1) - ref.Estimate();
      switch (op) {
        case 0:
          counter.Increment();
          ref.Increment();
          break;
        case 1:
        case 2: {  // fraction of the current level gap
          const double w = step_rng.UniformDouble() * 1.5 * gap;
          counter.Add(w);
          ref.Add(w);
          break;
        }
        case 3:
        case 4: {  // target a few ulps either side of value(x+1)
          const int ulps = static_cast<int>(step_rng.UniformInt(9)) - 4;
          const double w = NearBoundaryWeight(ref, ulps);
          counter.Add(w);
          ref.Add(w);
          break;
        }
        case 5: {  // multi-level jump
          if (ref.level() >= config.level_cap) break;
          const uint64_t span = a == 0.0 ? 400 : 60;
          const uint32_t jump =
              2 + static_cast<uint32_t>(step_rng.UniformInt(span));
          const double w = ref.ValueAt(ref.level() + jump) - ref.Estimate() +
                           step_rng.UniformDouble() * gap;
          counter.Add(w);
          ref.Add(w);
          break;
        }
        case 6:
          counter.Merge(counters[1 - c]);
          ref.Merge(refs[1 - c]);
          break;
        case 7:
          counter.RestoreFrom(counters[1 - c]);
          ref.RestoreFrom(refs[1 - c]);
          break;
        default:  // no-op weights
          counter.Add(op == 8 ? 0.0 : -1.0);
          ref.Add(op == 8 ? 0.0 : -1.0);
          break;
      }
      const std::string context = "a=" + std::to_string(a) +
                                  " step=" + std::to_string(step) +
                                  " op=" + std::to_string(op);
      for (int k = 0; k < 2; ++k) {
        ASSERT_EQ(counters[k].level(), refs[k].level()) << context;
        ASSERT_EQ(counters[k].level_changes(), refs[k].level_changes())
            << context;
      }
      Rng next = rng;
      Rng ref_next = ref_rng;
      ASSERT_EQ(next.Next(), ref_next.Next()) << context;
      max_level = std::max(max_level, counter.level());
    }
    // a = 0.2 overflows a double near level 3890, so only the two finer
    // growth parameters reach past 4096.
    if (a != 0.2) {
      EXPECT_GT(max_level, 4096u) << "a=" << a;
    }
  }
}

// value(level) from the closed form, recomputed from scratch: what the
// cached `Estimate()` must return bit for bit after every operation.
double ClosedFormValue(double a, uint32_t level) {
  if (a == 0.0) return static_cast<double>(level);
  return std::expm1(static_cast<double>(level) * std::log1p(a)) / a;
}

TEST(MorrisCounter, EstimateIsTheCurrentLevelsValueAfterEveryOperation) {
  for (const double a : {0.0, 1e-3, 1.0 / 32, 0.2, 1.0}) {
    StateAccountant accountant;
    Rng rng(17);
    Rng step_rng(23);
    BatchUpdateScratch scratch;
    scratch.Begin(false);
    MorrisCounter counters[2] = {MorrisCounter(&accountant, &rng, a),
                                 MorrisCounter(&accountant, &rng, a)};
    const MorrisCounter zero(&accountant, &rng, a);  // restores reset
    uint32_t max_level = 0;
    for (int step = 0; step < 20000; ++step) {
      const int c = static_cast<int>(step_rng.Next() & 1);
      MorrisCounter& counter = counters[c];
      // Weights up to a few level gaps, so Adds both hold and jump.
      const double gap = ClosedFormValue(a, counter.level() + 1) -
                         ClosedFormValue(a, counter.level());
      const double w = step_rng.UniformDouble() * 3.0 * gap;
      const uint64_t op = step_rng.UniformInt(6);
      switch (op) {
        case 0:
          counter.Increment();
          break;
        case 1:
          counter.Add(w);
          break;
        case 2:
          scratch.BeginItem();
          counter.Add(w, &scratch);
          break;
        case 3:
          ASSERT_TRUE(counter.Merge(counters[1 - c]).ok());
          break;
        case 4:
          ASSERT_TRUE(counter.RestoreFrom(counters[1 - c]).ok());
          break;
        default:  // back to level 0 now and then (a = 1 doubles per level)
          if (counter.level() > 200) {
            ASSERT_TRUE(counter.RestoreFrom(zero).ok());
          }
          break;
      }
      for (const MorrisCounter& k : counters) {
        ASSERT_EQ(k.Estimate(), ClosedFormValue(a, k.level()))
            << "a=" << a << " step=" << step << " op=" << op;
        max_level = std::max(max_level, k.level());
      }
    }
    EXPECT_GT(max_level, 20u) << "a=" << a;
  }
}

}  // namespace
}  // namespace fewstate
