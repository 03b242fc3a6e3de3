#include "core/sample_and_hold.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace fewstate {

SampleAndHold::SampleAndHold(const SampleAndHoldOptions& options,
                             StateAccountant* shared_accountant)
    : options_(options), rng_(Mix64(options.seed ^ 0x5a3b1e0fd7c68a42ULL)) {
  if (shared_accountant != nullptr) {
    accountant_ = shared_accountant;
  } else {
    owned_accountant_ = std::make_unique<StateAccountant>();
    accountant_ = owned_accountant_.get();
  }

  const double n = static_cast<double>(options_.universe);
  const double m = static_cast<double>(options_.stream_length_hint > 0
                                           ? options_.stream_length_hint
                                           : options_.universe);
  // When the stream is shorter than the universe, the paper's m < n branch
  // applies: the effective universe is the stream length.
  const double n_eff = std::min(n, m);
  const double p = options_.p;
  const double eps = options_.eps;
  const double logs = std::max(2.0, std::log2(std::max(4.0, n * m)));

  // Sampling probability rho ~ n_eff^{1-1/p} * log(nm) / (eps^2 m)
  // (paper line 3/5 with practical constants).
  rho_ = std::min(1.0, options_.sample_rate_scale *
                           std::pow(n_eff, 1.0 - 1.0 / p) * logs /
                           (eps * eps * m));

  size_t slots = options_.reservoir_slots_override > 0
                     ? options_.reservoir_slots_override
                     : DerivedReservoirSlots(options_);

  // Counter budget k ~ Uni[c*slots, 1.01*c*slots] (paper line 7's
  // randomised budget; the randomisation is load-bearing for Lemma 2.1).
  if (options_.counter_budget_override > 0) {
    budget_lo_ = budget_hi_ = options_.counter_budget_override;
  } else {
    budget_lo_ = static_cast<size_t>(options_.counter_budget_scale *
                                     static_cast<double>(slots));
    budget_lo_ = std::max<size_t>(budget_lo_, 8);
    budget_hi_ = budget_lo_ + std::max<size_t>(budget_lo_ / 100, 2);
  }

  // Hold-counter accuracy: (1 + eps/4)-accurate Morris counters by
  // default; morris_a < 0 requests exact counters.
  if (options_.morris_a > 0.0) {
    morris_a_ = options_.morris_a;
  } else if (options_.morris_a == 0.0) {
    morris_a_ = eps * eps / 8.0;
  } else {
    morris_a_ = 0.0;
  }

  reservoir_ =
      std::make_unique<TrackedArray<Item>>(accountant_, slots, kEmptySlot);
  bookkeeping_cell_ = accountant_->AllocateCells(1);
  DrawCounterBudget();
  counters_.reserve(budget_hi_ + 1);
}


size_t SampleAndHold::DerivedReservoirSlots(
    const SampleAndHoldOptions& options) {
  const double n = static_cast<double>(options.universe);
  const double m = static_cast<double>(options.stream_length_hint > 0
                                           ? options.stream_length_hint
                                           : options.universe);
  const double n_eff = std::min(n, m);
  const double p = options.p;
  const double eps = options.eps;
  const double logs = std::max(2.0, std::log2(std::max(4.0, n * m)));
  // Reservoir size kappa: polylog for p < 2 (paper kappa_1), times
  // n_eff^{1-2/p} for p >= 2 (paper kappa_2).
  double kappa;
  if (p < 2.0) {
    kappa = options.reservoir_scale * logs / (eps * eps);
  } else {
    kappa = options.reservoir_scale *
            std::max(1.0, std::pow(n_eff, 1.0 - 2.0 / p)) * logs / (eps * eps);
  }
  return static_cast<size_t>(std::max(8.0, kappa));
}

Status SampleAndHold::Create(const SampleAndHoldOptions& options,
                             std::unique_ptr<SampleAndHold>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  *out = std::make_unique<SampleAndHold>(options);
  return Status::OK();
}

void SampleAndHold::DrawCounterBudget() {
  counter_budget_ =
      static_cast<size_t>(rng_.UniformRange(budget_lo_, budget_hi_));
}

void SampleAndHold::Update(Item item) {
  if (owned_accountant_ != nullptr) accountant_->BeginUpdate();
  ++t_;

  accountant_->RecordRead();  // counter lookup
  auto counter_it = counters_.find(item);
  if (counter_it != counters_.end()) {
    counter_it->second.counter.Increment();
    return;
  }

  accountant_->RecordRead();  // reservoir membership check
  if (reservoir_index_.find(item) != reservoir_index_.end()) {
    // "Hold": the item is in the reservoir — start a counter for it.
    HeldCounter held{MorrisCounter(accountant_, &rng_, morris_a_), t_};
    held.counter.Increment();  // counts this occurrence
    // The birth timestamp is one extra word of algorithmic state.
    const uint64_t birth_cell = accountant_->AllocateCells(1);
    accountant_->RecordWrite(birth_cell);
    counters_.emplace(item, std::move(held));
    MaybeRunMaintenance();
    return;
  }

  // "Sample": with probability rho, overwrite a uniform reservoir slot.
  if (rng_.Bernoulli(rho_)) {
    const size_t slot = static_cast<size_t>(rng_.UniformInt(reservoir_->size()));
    const Item old = reservoir_->Peek(slot);
    if (old == item) {
      accountant_->RecordSuppressedWrite();
      return;
    }
    if (old != kEmptySlot) {
      auto old_it = reservoir_index_.find(old);
      if (old_it != reservoir_index_.end() && --old_it->second == 0) {
        reservoir_index_.erase(old_it);
      }
    }
    ++reservoir_index_[item];
    reservoir_->Set(slot, item);
  }
}

void SampleAndHold::MaybeRunMaintenance() {
  if (counters_.size() < counter_budget_) return;
  ++maintenance_passes_;
  if (options_.eviction == EvictionPolicy::kDyadicAge) {
    RunDyadicAgeMaintenance();
  } else {
    RunGlobalSmallestMaintenance();
  }
  // Redrawing the budget mutates one word of bookkeeping state.
  DrawCounterBudget();
  accountant_->RecordWrite(bookkeeping_cell_);
}

void SampleAndHold::RunDyadicAgeMaintenance() {
  // Group active counters by the dyadic bucket of their age; within each
  // group keep the ceil(half) with largest approximate frequency (paper
  // line 21). Only comparing similar-aged counters protects young true
  // heavy hitters from old pseudo-heavy ones (§1.4).
  struct Candidate {
    double estimate;
    Item item;
  };
  std::unordered_map<int, std::vector<Candidate>> buckets;
  for (const auto& [item, held] : counters_) {
    const uint64_t age = t_ - held.birth;
    buckets[DyadicBucket(age)].push_back(
        Candidate{held.counter.Estimate(), item});
  }
  for (auto& [bucket, group] : buckets) {
    if (group.size() <= 1) continue;
    std::sort(group.begin(), group.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.estimate > b.estimate;
              });
    const size_t keep = (group.size() + 1) / 2;
    for (size_t i = keep; i < group.size(); ++i) {
      RemoveCounter(group[i].item);
    }
  }
}

void SampleAndHold::RunGlobalSmallestMaintenance() {
  // Strawman eviction: drop the half of all counters with the smallest
  // approximate frequencies, regardless of age.
  struct Candidate {
    double estimate;
    Item item;
  };
  std::vector<Candidate> all;
  all.reserve(counters_.size());
  for (const auto& [item, held] : counters_) {
    all.push_back(Candidate{held.counter.Estimate(), item});
  }
  std::sort(all.begin(), all.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.estimate > b.estimate;
            });
  const size_t keep = (all.size() + 1) / 2;
  for (size_t i = keep; i < all.size(); ++i) {
    RemoveCounter(all[i].item);
  }
}

void SampleAndHold::RemoveCounter(Item item) {
  auto it = counters_.find(item);
  if (it == counters_.end()) return;
  // Dropping a counter changes the state (and frees its birth word; the
  // Morris level cell releases itself on destruction).
  accountant_->RecordWrite(bookkeeping_cell_);
  accountant_->ReleaseCells(1);
  counters_.erase(it);
}

double SampleAndHold::EstimateFrequency(Item item) const {
  // +1: every hold counter missed at least one occurrence — the one that
  // put the item into the reservoir — so est+1 is a strictly tighter but
  // still valid underestimate (matters for low-frequency level sets).
  auto it = counters_.find(item);
  if (it != counters_.end()) return it->second.counter.Estimate() + 1.0;
  // A reservoir-resident item was seen at least once: estimate 1. Without
  // this, frequency-1 level sets (e.g. the Theorem 1.4 permutation stream
  // S2, Fp = n) would be invisible — items that never recur can never
  // earn a hold counter.
  if (reservoir_index_.find(item) != reservoir_index_.end()) return 1.0;
  return 0.0;
}

std::vector<HeavyHitter> SampleAndHold::TrackedItems() const {
  std::vector<HeavyHitter> out;
  out.reserve(counters_.size() + reservoir_index_.size());
  for (const auto& [item, held] : counters_) {
    out.push_back(HeavyHitter{item, held.counter.Estimate() + 1.0});
  }
  for (const auto& [item, slots] : reservoir_index_) {
    if (counters_.find(item) == counters_.end()) {
      out.push_back(HeavyHitter{item, 1.0});
    }
  }
  return out;
}

std::vector<HeavyHitter> SampleAndHold::TrackedItemsAbove(
    double threshold) const {
  std::vector<HeavyHitter> out;
  for (const HeavyHitter& hh : TrackedItems()) {
    if (hh.estimate >= threshold) out.push_back(hh);
  }
  return out;
}

}  // namespace fewstate
