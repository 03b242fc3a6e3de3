#include "core/fp_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace fewstate {

FpEstimator::FpEstimator(const FpEstimatorOptions& options,
                         StateAccountant* shared_accountant)
    : options_(options) {
  if (shared_accountant != nullptr) {
    accountant_ = shared_accountant;
  } else {
    owned_accountant_ = std::make_unique<StateAccountant>();
    accountant_ = owned_accountant_.get();
  }
  const uint64_t n = options_.universe;
  const uint64_t m_hint =
      options_.stream_length_hint > 0 ? options_.stream_length_hint : n;
  const double eps = options_.eps;
  const double logs =
      std::max(2.0, std::log2(std::max(4.0, static_cast<double>(n) *
                                                static_cast<double>(m_hint))));

  repetitions_ = options_.repetitions;
  levels_ = options_.levels > 0
                ? options_.levels
                : std::min<size_t>(static_cast<size_t>(CeilLog2(n)) + 1, 24);
  if (levels_ == 0) levels_ = 1;

  // Level-set index shift: level set i is read from subsampling level
  // max(1, i - shift); the paper's floor(log(gamma^2 log(nm) / eps^2)).
  if (options_.level_set_shift >= 0) {
    shift_ = options_.level_set_shift;
  } else {
    shift_ = std::max(
        0, static_cast<int>(std::round(std::log2(logs / (eps * eps)))));
  }

  Rng seeder(Mix64(options_.seed ^ 0xf9e87d6c5b4a3928ULL));
  lambda_ = 0.5 + 0.5 * seeder.UniformDouble();

  universe_hashes_.reserve(repetitions_);
  for (size_t r = 0; r < repetitions_; ++r) {
    universe_hashes_.emplace_back(/*independence=*/4,
                                  Mix64(options_.seed + 0x5bd1e995 * r + 11));
  }

  const double inner_morris_a =
      options_.morris_a != 0.0 ? options_.morris_a : eps * eps / 32.0;
  for (size_t r = 0; r < repetitions_; ++r) {
    for (size_t ell = 0; ell < levels_; ++ell) {
      SampleAndHoldOptions inner;
      inner.universe = std::max<uint64_t>(1, n >> ell);
      inner.stream_length_hint = std::max<uint64_t>(1, m_hint >> ell);
      inner.p = options_.p;
      inner.eps = eps;
      inner.seed = Mix64(options_.seed + 0x20001 * r + 0x403 * ell + 13);
      inner.sample_rate_scale = options_.sample_rate_scale;
      inner.reservoir_scale = options_.reservoir_scale;
      inner.counter_budget_scale = options_.counter_budget_scale;
      inner.morris_a = inner_morris_a;
      // A level set mapped to this instance can have ~2^{shift+2}
      // surviving items (that is what the shift is for); the instance
      // must be able to hold them all or eviction churn silently drops
      // contribution mass (the role of the paper's huge kappa constant).
      const size_t floor_slots = static_cast<size_t>(1) << (shift_ + 2);
      const size_t derived = SampleAndHold::DerivedReservoirSlots(inner);
      inner.reservoir_slots_override = std::max(derived, floor_slots);
      inner.counter_budget_override = 4 * inner.reservoir_slots_override;
      sah_instances_.push_back(
          std::make_unique<SampleAndHold>(inner, accountant_));
    }
  }
}

Status FpEstimator::Create(const FpEstimatorOptions& options,
                           std::unique_ptr<FpEstimator>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  *out = std::make_unique<FpEstimator>(options);
  return Status::OK();
}

void FpEstimator::Update(Item item) {
  if (owned_accountant_ != nullptr) accountant_->BeginUpdate();
  ++t_;
  for (size_t r = 0; r < repetitions_; ++r) {
    // Universe subsampling is nested by construction: item j reaches
    // level ell iff its hash-derived geometric level is >= ell.
    const size_t deepest = std::min<size_t>(
        static_cast<size_t>(universe_hashes_[r].GeometricLevel(
            item, static_cast<int>(levels_) - 1)),
        levels_ - 1);
    for (size_t ell = 0; ell <= deepest; ++ell) {
      sah_instances_[Index(r, ell)]->Update(item);
    }
  }
}

std::vector<std::vector<HeavyHitter>> FpEstimator::SnapshotTracked() const {
  std::vector<std::vector<HeavyHitter>> snapshot(repetitions_ * levels_);
  for (size_t r = 0; r < repetitions_; ++r) {
    for (size_t ell = 0; ell < levels_; ++ell) {
      snapshot[Index(r, ell)] = sah_instances_[Index(r, ell)]->TrackedItems();
    }
  }
  return snapshot;
}

std::vector<double> FpEstimator::ContributionsFromSnapshot(
    int z, const std::vector<std::vector<HeavyHitter>>& snapshot) const {
  const double p = options_.p;
  const double mtilde = std::pow(2.0, z);

  // Level sets run until their frequency band drops below 1.
  const int num_sets = std::max(1, z + 1);

  std::vector<double> contributions;
  contributions.reserve(num_sets + 1);
  std::vector<double> per_rep(repetitions_);
  // i = 0 covers [lambda*Mtilde, 2*lambda*Mtilde): a single dominant item
  // with f^p close to Fp can exceed band 1's upper edge lambda*Mtilde when
  // lambda < f^p/Mtilde, so the top band must be included.
  for (int i = 0; i <= num_sets; ++i) {
    const double band_lo = lambda_ * mtilde / std::pow(2.0, i);
    const double band_hi = 2.0 * band_lo;
    // ell(i) = max(1, i - shift), 1-based; instance index is ell - 1.
    int ell = std::max(1, i - shift_);
    if (static_cast<size_t>(ell) > levels_) {
      // Deeper than the instance grid: at the self-consistent scale these
      // level sets hold items with f^p below every tracked band and are
      // insignificant; estimate their contribution as 0.
      contributions.push_back(0.0);
      continue;
    }
    const double inv_rate = std::pow(2.0, ell - 1);
    for (size_t r = 0; r < repetitions_; ++r) {
      double sum = 0.0;
      for (const HeavyHitter& hh :
           snapshot[Index(r, static_cast<size_t>(ell - 1))]) {
        const double fp = PowP(hh.estimate, p);
        if (fp >= band_lo && fp < band_hi) sum += fp;
      }
      per_rep[r] = sum;
    }
    contributions.push_back(inv_rate * Median(per_rep));
  }
  return contributions;
}

std::vector<double> FpEstimator::EstimateContributions(int z) const {
  return ContributionsFromSnapshot(z, SnapshotTracked());
}

int FpEstimator::MaxScaleExponent() const {
  const double m = static_cast<double>(std::max<uint64_t>(t_, 2));
  return static_cast<int>(std::ceil(options_.p * std::log2(m))) + 1;
}

double FpEstimator::EstimateFpAtScale(int z) const {
  double total = 0.0;
  for (double c : EstimateContributions(z)) total += c;
  return total;
}

double FpEstimator::EstimateFp() const {
  // Guess-and-verify over the moment scale (see header comment). A scale
  // guess 2^z is self-consistent when the resulting estimate is at least
  // 2^{z-1} — i.e. the guess could be the paper's Ftilde_p (the power of
  // two with Fp <= Ftilde_p < 2 Fp). The largest self-consistent guess is
  // returned; taking a maximum over all scales instead would inflate flat
  // streams by the maximum of ~p log m noisy estimates.
  const auto snapshot = SnapshotTracked();
  double best = 0.0;
  for (int z = MaxScaleExponent(); z >= 1; --z) {
    double total = 0.0;
    for (double c : ContributionsFromSnapshot(z, snapshot)) total += c;
    if (total >= std::pow(2.0, z - 1)) return total;
    best = std::max(best, total);
  }
  return best;  // no self-consistent scale: fall back to the max
}

double FpEstimator::EstimateLp() const {
  return std::pow(EstimateFp(), 1.0 / options_.p);
}

}  // namespace fewstate
