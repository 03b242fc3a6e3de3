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

SampleAndHold::Entry& SampleAndHold::Insert(Item item) {
  if (4 * (entries_ + 1) > 3 * table_.size()) Rehash(2 * table_.size());
  ++entries_;
  Entry& entry = table_[Probe(item)];
  entry.item = item;
  return entry;
}

void SampleAndHold::Erase(size_t hole) {
  --entries_;
  const size_t mask = table_.size() - 1;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically after the hole.
  for (size_t j = (hole + 1) & mask; table_[j].estimate != 0.0;
       j = (j + 1) & mask) {
    if (((j - Home(table_[j].item)) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = Entry{};
}

void SampleAndHold::Rehash(size_t size) {
  std::vector<Entry> old(std::max<size_t>(size, 16));
  old.swap(table_);
  table_shift_ = 64 - __builtin_ctzll(table_.size());
  for (const Entry& entry : old) {
    if (entry.estimate != 0.0) table_[Probe(entry.item)] = entry;
  }
}

void SampleAndHold::Update(Item item) {
  if (owned_accountant_ != nullptr) accountant_->BeginUpdate();
  ++t_;
  if (table_.empty()) Rehash(0);

  accountant_->RecordRead();  // counter lookup
  Entry& entry = table_[Probe(item)];
  if (entry.counter != kNoCounter) {
    MorrisCounter& counter = held_[entry.counter]->counter;
    counter.Increment();
    entry.estimate = counter.Estimate() + 1.0;
    return;
  }

  accountant_->RecordRead();  // reservoir membership check
  if (entry.reservoir > 0) {
    // "Hold": the item is in the reservoir — start a counter for it.
    uint32_t slot;
    if (free_held_.empty()) {
      slot = static_cast<uint32_t>(held_.size());
      held_.emplace_back();
    } else {
      slot = free_held_.back();
      free_held_.pop_back();
    }
    held_[slot].reset(new HeldCounter{
        MorrisCounter(accountant_, &rng_, morris_a_), t_, item});
    MorrisCounter& counter = held_[slot]->counter;
    counter.Increment();  // counts this occurrence
    // The birth timestamp is one extra word of algorithmic state.
    const uint64_t birth_cell = accountant_->AllocateCells(1);
    accountant_->RecordWrite(birth_cell);
    entry.counter = slot;
    entry.estimate = counter.Estimate() + 1.0;
    MaybeRunMaintenance();
    return;
  }

  // "Sample": with probability rho, overwrite a uniform reservoir slot.
  // The item has no entry here: a live entry holds a counter or a slot.
  if (rng_.Bernoulli(rho_)) {
    const size_t slot = static_cast<size_t>(rng_.UniformInt(reservoir_->size()));
    const Item old = reservoir_->Peek(slot);
    if (old == item) {
      accountant_->RecordSuppressedWrite();
      return;
    }
    if (old != kEmptySlot) {
      const size_t at = Probe(old);
      Entry& left = table_[at];
      if (--left.reservoir == 0 && left.counter == kNoCounter) Erase(at);
    }
    Entry& sampled = Insert(item);
    sampled.reservoir = 1;
    sampled.estimate = 1.0;
    reservoir_->Set(slot, item);
  }
}

void SampleAndHold::MaybeRunMaintenance() {
  if (active_counters() < counter_budget_) return;
  ++maintenance_passes_;
  // Dyadic-age eviction groups counters by the dyadic bucket of their age
  // and keeps, per group, the ceil(half) with largest approximate
  // frequency (paper line 21): only comparing similar-aged counters
  // protects young true heavy hitters from old pseudo-heavy ones (§1.4).
  // The global-smallest strawman is one group regardless of age.
  const bool dyadic = options_.eviction == EvictionPolicy::kDyadicAge;
  ranked_.clear();
  for (uint32_t slot = 0; slot < held_.size(); ++slot) {
    if (held_[slot] == nullptr) continue;
    const HeldCounter& held = *held_[slot];
    ranked_.push_back(Candidate{dyadic ? DyadicBucket(t_ - held.birth) : 0,
                                held.counter.Estimate(), held.birth, slot});
  }
  std::sort(ranked_.begin(), ranked_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.group != b.group) return a.group < b.group;
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.birth < b.birth;  // births are distinct
            });
  for (size_t begin = 0; begin < ranked_.size();) {
    size_t end = begin + 1;
    while (end < ranked_.size() && ranked_[end].group == ranked_[begin].group) {
      ++end;
    }
    const size_t keep = (end - begin + 1) / 2;
    for (size_t i = begin + keep; i < end; ++i) RemoveCounter(ranked_[i].slot);
    begin = end;
  }
  // Redrawing the budget mutates one word of bookkeeping state.
  DrawCounterBudget();
  accountant_->RecordWrite(bookkeeping_cell_);
}

void SampleAndHold::RemoveCounter(uint32_t slot) {
  const size_t at = Probe(held_[slot]->item);
  // Dropping a counter changes the state and frees its birth word and its
  // Morris level cell, now rather than when the slot is reused.
  accountant_->RecordWrite(bookkeeping_cell_);
  accountant_->ReleaseCells(1);
  held_[slot].reset();
  free_held_.push_back(slot);
  Entry& entry = table_[at];
  if (entry.reservoir == 0) {
    Erase(at);
  } else {
    entry.counter = kNoCounter;
    entry.estimate = 1.0;
  }
}

std::vector<HeavyHitter> SampleAndHold::TrackedItems() const {
  std::vector<HeavyHitter> out;
  out.reserve(entries_);
  for (const Entry& entry : table_) {
    if (entry.estimate != 0.0) {
      out.push_back(HeavyHitter{entry.item, entry.estimate});
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
