#include "core/options.h"

namespace fewstate {

namespace {

Status CheckCommon(uint64_t universe, double p, double eps) {
  if (universe == 0) {
    return Status::InvalidArgument("universe must be > 0");
  }
  if (p < 1.0) {
    return Status::InvalidArgument("p must be >= 1 for this estimator");
  }
  if (eps <= 0.0 || eps >= 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  return Status::OK();
}

}  // namespace

Status SampleAndHoldOptions::Validate() const {
  Status s = CheckCommon(universe, p, eps);
  if (!s.ok()) return s;
  if (sample_rate_scale <= 0.0) {
    return Status::InvalidArgument("sample_rate_scale must be > 0");
  }
  if (reservoir_scale <= 0.0) {
    return Status::InvalidArgument("reservoir_scale must be > 0");
  }
  if (counter_budget_scale < 1.0) {
    return Status::InvalidArgument("counter_budget_scale must be >= 1");
  }
  return Status::OK();
}

Status FullSampleAndHoldOptions::Validate() const {
  Status s = CheckCommon(universe, p, eps);
  if (!s.ok()) return s;
  if (repetitions == 0) {
    return Status::InvalidArgument("repetitions must be >= 1");
  }
  // Level x is rescaled by 1 << x.
  if (levels >= 64) {
    return Status::InvalidArgument("levels must be <= 63");
  }
  return Status::OK();
}

Status FpEstimatorOptions::Validate() const {
  Status s = CheckCommon(universe, p, eps);
  if (!s.ok()) return s;
  if (repetitions == 0) {
    return Status::InvalidArgument("repetitions must be >= 1");
  }
  // Level ell subsamples the universe hint as n >> ell.
  if (levels >= 64) {
    return Status::InvalidArgument("levels must be <= 63");
  }
  // Each inner reservoir holds at least 1 << (shift + 2) slots.
  if (level_set_shift >= 62) {
    return Status::InvalidArgument("level_set_shift must be <= 61");
  }
  return Status::OK();
}

Status SmallPEstimatorOptions::Validate() const {
  if (p <= 0.0 || p > 1.0) {
    return Status::InvalidArgument("p must be in (0, 1]");
  }
  if (eps <= 0.0 || eps >= 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  return Status::OK();
}

Status EntropyEstimatorOptions::Validate() const {
  if (universe == 0) {
    return Status::InvalidArgument("universe must be > 0");
  }
  if (stream_length_hint < 2) {
    return Status::InvalidArgument(
        "stream_length_hint (m) must be >= 2; Theorem 3.8 assumes m known");
  }
  if (eps <= 0.0 || eps > 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  if (degree == 1) {
    return Status::InvalidArgument("degree must be 0 (derived) or >= 2");
  }
  return Status::OK();
}

Status HeavyHittersOptions::Validate() const {
  Status s = CheckCommon(universe, p, eps);
  if (!s.ok()) return s;
  if (repetitions == 0) {
    return Status::InvalidArgument("repetitions must be >= 1");
  }
  return Status::OK();
}

Status SparseRecoveryOptions::Validate() const {
  if (universe == 0) {
    return Status::InvalidArgument("universe must be > 0");
  }
  if (sparsity == 0) {
    return Status::InvalidArgument("sparsity must be >= 1");
  }
  return Status::OK();
}

}  // namespace fewstate
