#include "core/full_sample_and_hold.h"

#include <algorithm>
#include <unordered_set>

#include "common/math_util.h"

namespace fewstate {

namespace {

// Growth parameter giving the 2-approximate substream length counters of
// Alg. 2 line 4 with O(log m) level advances.
constexpr double kLengthCounterGrowth = 0.25;

}  // namespace

FullSampleAndHold::FullSampleAndHold(const FullSampleAndHoldOptions& options,
                                     StateAccountant* shared_accountant)
    : options_(options),
      rng_(Mix64(options.seed ^ 0xf0117ab1e5a4d392ULL)) {
  if (shared_accountant != nullptr) {
    accountant_ = shared_accountant;
  } else {
    owned_accountant_ = std::make_unique<StateAccountant>();
    accountant_ = owned_accountant_.get();
  }
  repetitions_ = options_.repetitions;
  const uint64_t m_hint = options_.stream_length_hint > 0
                              ? options_.stream_length_hint
                              : options_.universe;
  levels_ = options_.levels > 0
                ? options_.levels
                : std::min<size_t>(static_cast<size_t>(CeilLog2(m_hint)) + 1,
                                   24);
  if (levels_ == 0) levels_ = 1;

  level_rngs_.reserve(repetitions_);
  instances_.reserve(repetitions_ * levels_);
  length_counters_.reserve(repetitions_ * levels_);
  for (size_t r = 0; r < repetitions_; ++r) {
    level_rngs_.emplace_back(
        Mix64(options_.seed ^ (0x9d2c5680ca876546ULL + r)));
    for (size_t x = 0; x < levels_; ++x) {
      SampleAndHoldOptions inner;
      inner.universe = options_.universe;
      inner.stream_length_hint = std::max<uint64_t>(1, m_hint >> x);
      inner.p = options_.p;
      inner.eps = options_.eps;
      inner.seed = Mix64(options_.seed + 0x1000003 * r + 0x10001 * x + 7);
      inner.sample_rate_scale = options_.sample_rate_scale;
      inner.reservoir_scale = options_.reservoir_scale;
      inner.counter_budget_scale = options_.counter_budget_scale;
      inner.morris_a = options_.morris_a;
      inner.eviction = options_.eviction;
      instances_.push_back(
          std::make_unique<SampleAndHold>(inner, accountant_));
      length_counters_.emplace_back(accountant_, &rng_,
                                    kLengthCounterGrowth);
    }
  }
}

Status FullSampleAndHold::Create(const FullSampleAndHoldOptions& options,
                                 std::unique_ptr<FullSampleAndHold>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  *out = std::make_unique<FullSampleAndHold>(options);
  return Status::OK();
}

void FullSampleAndHold::Update(Item item) {
  if (owned_accountant_ != nullptr) accountant_->BeginUpdate();
  ++t_;
  for (size_t r = 0; r < repetitions_; ++r) {
    // Nested subsampling: the update reaches level x iff the geometric
    // level is >= x; level 0 (rate 1) always receives it.
    const size_t deepest = std::min<size_t>(
        static_cast<size_t>(level_rngs_[r].GeometricLevel()), levels_ - 1);
    for (size_t x = 0; x <= deepest; ++x) {
      instances_[Index(r, x)]->Update(item);
      length_counters_[Index(r, x)].Increment();
    }
  }
}

double FullSampleAndHold::EstimateFrequency(Item item) const {
  // Combine levels by the §1.3 max-of-underestimates rule. Level 0 sees
  // the raw stream, so its (median-over-r) estimate is always a valid
  // underestimate. Deeper levels multiply subsampling noise by 2^x, so a
  // level is only trusted once its median substream count clears a small
  // reliability bar — below it, a lucky single survivor at depth x would
  // masquerade as frequency 2^x (this is the practical stand-in for the
  // paper's level-validity test m_x >= (fhat_x)^p plus its much larger
  // repetition count R = O(log n)).
  constexpr double kMinReliableCount = 16.0;
  // The per-level medians reorder a stack buffer in place, so estimating
  // allocates nothing up to kStackRepetitions repetitions.
  constexpr size_t kStackRepetitions = 16;
  double stack[kStackRepetitions];
  std::vector<double> heap(
      repetitions_ > kStackRepetitions ? repetitions_ : 0);
  double* const per_rep = heap.empty() ? stack : heap.data();
  double best = 0.0;
  for (size_t x = 0; x < levels_; ++x) {
    for (size_t r = 0; r < repetitions_; ++r) {
      per_rep[r] = instances_[Index(r, x)]->EstimateFrequency(item);
    }
    const double med = MedianInPlace(per_rep, repetitions_);
    if (x > 0 && med < kMinReliableCount) continue;
    const double rescaled = med * static_cast<double>(1ULL << x);
    best = std::max(best, rescaled);
  }
  return best;
}

std::vector<HeavyHitter> FullSampleAndHold::TrackedItems() const {
  std::unordered_set<Item> seen;
  for (const auto& instance : instances_) {
    for (const HeavyHitter& hh : instance->TrackedItems()) {
      seen.insert(hh.item);
    }
  }
  std::vector<HeavyHitter> out;
  out.reserve(seen.size());
  for (Item item : seen) {
    out.push_back(HeavyHitter{item, EstimateFrequency(item)});
  }
  return out;
}

std::vector<HeavyHitter> FullSampleAndHold::TrackedItemsAbove(
    double threshold) const {
  std::vector<HeavyHitter> out;
  for (const HeavyHitter& hh : TrackedItems()) {
    if (hh.estimate >= threshold) out.push_back(hh);
  }
  return out;
}

double FullSampleAndHold::SubstreamLength(size_t r, size_t x) const {
  return length_counters_[Index(r, x)].Estimate();
}

}  // namespace fewstate
