#include "core/heavy_hitters.h"

#include <cmath>

namespace fewstate {

LpHeavyHitters::LpHeavyHitters(const HeavyHittersOptions& options)
    : options_(options) {
  FullSampleAndHoldOptions freq;
  freq.universe = options_.universe;
  freq.stream_length_hint = options_.stream_length_hint;
  freq.p = options_.p;
  freq.eps = options_.eps;
  freq.seed = Mix64(options_.seed + 1);
  freq.repetitions = options_.repetitions;
  frequencies_ = std::make_unique<FullSampleAndHold>(freq, &accountant_);

  // The norm estimator only needs a 2-approximation of ||f||_p, so it runs
  // at coarse accuracy.
  FpEstimatorOptions norm;
  norm.universe = options_.universe;
  norm.stream_length_hint = options_.stream_length_hint;
  norm.p = options_.p;
  norm.eps = 0.5;
  norm.seed = Mix64(options_.seed + 2);
  norm.repetitions = 3;
  norm_ = std::make_unique<FpEstimator>(norm, &accountant_);
}

Status LpHeavyHitters::Create(const HeavyHittersOptions& options,
                              std::unique_ptr<LpHeavyHitters>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  *out = std::make_unique<LpHeavyHitters>(options);
  return Status::OK();
}

void LpHeavyHitters::Update(Item item) {
  accountant_.BeginUpdate();
  frequencies_->Update(item);
  norm_->Update(item);
}

double LpHeavyHitters::EstimateFrequency(Item item) const {
  return frequencies_->EstimateFrequency(item);
}

double LpHeavyHitters::EstimateLpNorm() const { return norm_->EstimateLp(); }

std::vector<HeavyHitter> LpHeavyHitters::HeavyHitters() const {
  // Reporting threshold (eps/2) * Lp-hat: with a 2-approximate norm and
  // (eps/2)-additive frequency estimates this reports every true eps-heavy
  // hitter and nothing below (eps/4)||f||_p.
  const double threshold = 0.5 * options_.eps * EstimateLpNorm();
  return frequencies_->TrackedItemsAbove(threshold);
}

std::vector<HeavyHitter> LpHeavyHitters::HeavyHittersAbove(
    double threshold) const {
  return frequencies_->TrackedItemsAbove(threshold);
}

}  // namespace fewstate
