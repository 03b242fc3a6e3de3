#include "core/sample_and_hold.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "state/write_log.h"
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

// A step-by-step reference for SampleAndHold on std::maps: the same Rng
// seeding, the same Rng and MorrisCounter calls in the same order, the same
// accountant traffic (a removed counter's cells are released at removal),
// and the specified eviction rule: per group, rank by (estimate desc,
// birth asc, item asc) and keep the first ceil(half). The reservoir size
// comes from the override and rho from the structure under test; both are
// constructor outputs, not the dynamics checked here.
class ReferenceSampleAndHold {
 public:
  ReferenceSampleAndHold(const SampleAndHoldOptions& options, double rho,
                         StateAccountant* accountant, bool owns_epochs)
      : options_(options),
        accountant_(accountant),
        owns_epochs_(owns_epochs),
        rng_(Mix64(options.seed ^ 0x5a3b1e0fd7c68a42ULL)),
        rho_(rho),
        morris_a_(options.morris_a < 0.0 ? 0.0 : options.morris_a),
        reservoir_(accountant, options.reservoir_slots_override, kEmpty) {
    budget_lo_ = std::max<size_t>(
        static_cast<size_t>(options.counter_budget_scale *
                            static_cast<double>(reservoir_.size())),
        8);
    budget_hi_ = budget_lo_ + std::max<size_t>(budget_lo_ / 100, 2);
    bookkeeping_cell_ = accountant_->AllocateCells(1);
    budget_ = rng_.UniformRange(budget_lo_, budget_hi_);
  }

  void Update(Item item) {
    if (owns_epochs_) accountant_->BeginUpdate();
    ++t_;
    accountant_->RecordRead();
    auto held = counters_.find(item);
    if (held != counters_.end()) {
      held->second.counter.Increment();
      return;
    }
    accountant_->RecordRead();
    if (reservoir_count_.count(item) != 0) {
      auto born = counters_.emplace(
          item, Held{MorrisCounter(accountant_, &rng_, morris_a_), t_});
      born.first->second.counter.Increment();
      accountant_->RecordWrite(accountant_->AllocateCells(1));
      MaybeMaintain();
      return;
    }
    if (rng_.Bernoulli(rho_)) {
      const size_t slot = rng_.UniformInt(reservoir_.size());
      const Item old = reservoir_.Peek(slot);
      if (old == item) {
        accountant_->RecordSuppressedWrite();
        return;
      }
      if (old != kEmpty && --reservoir_count_[old] == 0) {
        reservoir_count_.erase(old);
      }
      ++reservoir_count_[item];
      reservoir_.Set(slot, item);
    }
  }

  double Estimate(Item item) const {
    auto held = counters_.find(item);
    if (held != counters_.end()) return held->second.counter.Estimate() + 1.0;
    return reservoir_count_.count(item) != 0 ? 1.0 : 0.0;
  }

  size_t active_counters() const { return counters_.size(); }
  uint64_t maintenance_passes() const { return passes_; }

 private:
  static constexpr Item kEmpty = ~0ULL;

  struct Held {
    MorrisCounter counter;
    Timestamp birth;
  };
  struct Ranked {
    double estimate;
    Timestamp birth;
    Item item;
  };

  void MaybeMaintain() {
    if (counters_.size() < budget_) return;
    ++passes_;
    const bool dyadic = options_.eviction == EvictionPolicy::kDyadicAge;
    std::map<int, std::vector<Ranked>> groups;
    for (const auto& [item, held] : counters_) {
      groups[dyadic ? DyadicBucket(t_ - held.birth) : 0].push_back(
          Ranked{held.counter.Estimate(), held.birth, item});
    }
    for (auto& [group, members] : groups) {
      std::sort(members.begin(), members.end(),
                [](const Ranked& a, const Ranked& b) {
                  if (a.estimate != b.estimate) return a.estimate > b.estimate;
                  if (a.birth != b.birth) return a.birth < b.birth;
                  return a.item < b.item;
                });
      for (size_t i = (members.size() + 1) / 2; i < members.size(); ++i) {
        accountant_->RecordWrite(bookkeeping_cell_);
        accountant_->ReleaseCells(1);          // the birth word
        counters_.erase(members[i].item);      // the level cell
      }
    }
    budget_ = rng_.UniformRange(budget_lo_, budget_hi_);
    accountant_->RecordWrite(bookkeeping_cell_);
  }

  SampleAndHoldOptions options_;
  StateAccountant* accountant_;
  bool owns_epochs_;
  Rng rng_;
  double rho_;
  double morris_a_;
  TrackedArray<Item> reservoir_;
  size_t budget_lo_ = 0;
  size_t budget_hi_ = 0;
  size_t budget_ = 0;
  uint64_t bookkeeping_cell_ = 0;
  uint64_t t_ = 0;
  uint64_t passes_ = 0;
  std::map<Item, Held> counters_;
  std::map<Item, uint32_t> reservoir_count_;
};

// Names the first difference between the two accountants, or "".
std::string AccountantMismatch(const StateAccountant& a,
                               const StateAccountant& b) {
  if (a.updates() != b.updates()) return "updates";
  if (a.state_changes() != b.state_changes()) return "state_changes";
  if (a.word_writes() != b.word_writes()) return "word_writes";
  if (a.suppressed_writes() != b.suppressed_writes()) {
    return "suppressed_writes";
  }
  if (a.word_reads() != b.word_reads()) return "word_reads";
  if (a.allocated_words() != b.allocated_words()) return "allocated_words";
  if (a.peak_allocated_words() != b.peak_allocated_words()) {
    return "peak_allocated_words";
  }
  return "";
}

TEST(SampleAndHold, MatchesReferenceStepByStep) {
  constexpr uint64_t kUniverse = 96;
  constexpr uint64_t kLength = 4000;
  struct NamedStream {
    const char* name;
    Stream items;
  };
  const std::vector<NamedStream> streams = {
      {"zipf", ZipfStream(kUniverse, 1.1, kLength, 21)},
      {"uniform", UniformStream(kUniverse, kLength, 22)}};
  for (const NamedStream& stream : streams) {
    for (EvictionPolicy policy :
         {EvictionPolicy::kDyadicAge, EvictionPolicy::kGlobalSmallest}) {
      for (double morris_a : {-1.0, 0.3}) {  // exact, coarse Morris
        for (bool shared : {false, true}) {
          SCOPED_TRACE(std::string(stream.name) + " policy " +
                       std::to_string(static_cast<int>(policy)) + " a " +
                       std::to_string(morris_a) +
                       (shared ? " shared" : " owned"));
          SampleAndHoldOptions options =
              BaseOptions(kUniverse, kLength, 2.0, 0.4, 31);
          options.reservoir_slots_override = 12;
          options.counter_budget_scale = 1.0;
          options.sample_rate_scale = 0.5;
          options.morris_a = morris_a;
          options.eviction = policy;
          // Shared accountants start with an unrelated allocation, so the
          // structures' addresses do not start at 0.
          StateAccountant shared_sut, shared_ref;
          shared_sut.AllocateCells(5);
          shared_ref.AllocateCells(5);
          SampleAndHold sut(options, shared ? &shared_sut : nullptr);
          StateAccountant owned_ref;
          StateAccountant* ref_accountant = shared ? &shared_ref : &owned_ref;
          ReferenceSampleAndHold ref(options, sut.sample_probability(),
                                     ref_accountant, !shared);
          WriteLog sut_log, ref_log;
          sut.mutable_accountant()->set_write_sink(&sut_log);
          ref_accountant->set_write_sink(&ref_log);
          for (size_t step = 0; step < stream.items.size(); ++step) {
            if (shared) {
              shared_sut.BeginUpdate();
              shared_ref.BeginUpdate();
            }
            sut.Update(stream.items[step]);
            ref.Update(stream.items[step]);
            for (Item x = 0; x < kUniverse; ++x) {
              ASSERT_EQ(sut.EstimateFrequency(x), ref.Estimate(x))
                  << "item " << x << " after step " << step;
            }
            ASSERT_EQ(sut.active_counters(), ref.active_counters())
                << "step " << step;
            ASSERT_EQ(sut.maintenance_passes(), ref.maintenance_passes())
                << "step " << step;
            ASSERT_EQ(AccountantMismatch(sut.accountant(), *ref_accountant),
                      "")
                << "step " << step;
            ASSERT_EQ(sut_log.records().size(), ref_log.records().size())
                << "step " << step;
          }
          for (size_t i = 0; i < sut_log.records().size(); ++i) {
            ASSERT_EQ(sut_log.records()[i].epoch, ref_log.records()[i].epoch)
                << "record " << i;
            ASSERT_EQ(sut_log.records()[i].cell, ref_log.records()[i].cell)
                << "record " << i;
          }
          EXPECT_GT(sut.maintenance_passes(), 20u);
          sut.mutable_accountant()->set_write_sink(nullptr);
          ref_accountant->set_write_sink(nullptr);
        }
      }
    }
  }
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
