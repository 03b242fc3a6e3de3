#include "counters/morris_counter.h"

#include <cmath>

namespace fewstate {

MorrisCounter::MorrisCounter(StateAccountant* accountant, Rng* rng, double a)
    : rng_(rng),
      a_(a < 0 ? 0.0 : a),
      log1p_a_(std::log1p(a_)),
      level_(accountant, 0) {}

double MorrisCounter::GrowthForAccuracy(double eps, double delta) {
  double a = 2.0 * eps * eps * delta;
  return a;
}

double MorrisCounter::ValueAt(double x) const {
  if (a_ == 0.0) return x;
  return std::expm1(x * log1p_a_) / a_;
}

double MorrisCounter::LevelFor(double v) const {
  if (a_ == 0.0) return v;
  return std::log1p(a_ * v) / log1p_a_;
}

void MorrisCounter::Increment() {
  const uint32_t x = level_.Get();
  if (a_ == 0.0) {
    level_.Set(x + 1);
    estimate_ = ValueAt(x + 1);
    ++level_changes_;
    return;
  }
  // Advance with probability (1+a)^{-x}.
  if (inc_level_ != x) {
    inc_level_ = x;
    advance_prob_ = std::exp(-static_cast<double>(x) * log1p_a_);
  }
  if (rng_->Bernoulli(advance_prob_)) {
    level_.Set(x + 1);
    estimate_ = add_level_ == x ? next_value_ : ValueAt(x + 1);
    ++level_changes_;
  }
}

void MorrisCounter::RefreshAddCache(uint32_t x) {
  add_level_ = x;
  value_ = ValueAt(x);
  next_value_ = ValueAt(x + 1);  // same uint32 arithmetic as RoundedLevel
  fast_limit_ = 0.0;             // no shortcut unless proven safe below
  if (a_ == 0.0 || !std::isfinite(next_value_)) return;
  // RoundedLevel may skip LevelFor(t) only when the computed LevelFor(t)
  // is certainly below x + 1, i.e. when its floor is x. Forward error
  // analysis of log1p(a*t)/log1p(a) against expm1((x+1)*log1p(a))/a
  // (each libm call within 2 ulp, each arithmetic op within 1/2 ulp)
  // bounds the relative gap the two roundings can open near the boundary
  // by ~11u * (1 + (x+1)*log1p(a)) * (1+E)/E, with E = a*value(x+1) and u
  // the unit roundoff. The shortcut keeps a 64u margin of that shape, so
  // targets within it of value(x+1) still take the exact formula.
  const double e = a_ * next_value_;
  const double slack = 64.0 * 0x1.0p-53 *
                       (1.0 + (static_cast<double>(x) + 1.0) * log1p_a_) *
                       (1.0 + e) / e;
  if (slack < 0.5) fast_limit_ = next_value_ * (1.0 - slack);
}

uint32_t MorrisCounter::RoundedLevel(uint32_t x, double w) {
  if (add_level_ != x) RefreshAddCache(x);
  const double target = value_ + w;
  uint32_t base = x;
  double lo = value_;
  double hi = next_value_;
  if (!(target < fast_limit_)) {
    base = static_cast<uint32_t>(LevelFor(target));
    if (base < x) base = x;  // guard against floating-point rounding
    if (base != x) {
      lo = ValueAt(base);
      hi = ValueAt(base + 1);
    }
  }
  double q = (target - lo) / (hi - lo);
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const bool up = rng_->Bernoulli(q);
  estimate_ = up ? hi : lo;  // the value of the level returned
  return base + (up ? 1 : 0);
}

void MorrisCounter::Add(double w) {
  if (w <= 0.0) return;
  const uint32_t x = level_.Get();
  const uint32_t final_level = RoundedLevel(x, w);
  level_.Set(final_level);  // suppressed when the level holds
  if (final_level != x) ++level_changes_;
}

void MorrisCounter::Add(double w, BatchUpdateScratch* scratch) {
  if (w <= 0.0) return;
  const uint32_t x = level_.Peek();
  scratch->Read();
  const uint32_t final_level = RoundedLevel(x, w);
  level_.Set(final_level, scratch);  // suppressed when the level holds
  if (final_level != x) ++level_changes_;
}

Status MorrisCounter::Merge(const MorrisCounter& other) {
  if (a_ != other.a_) {
    return Status::InvalidArgument(
        "MorrisCounter::Merge: growth parameters differ");
  }
  Add(other.Estimate());
  return Status::OK();
}

Status MorrisCounter::RestoreFrom(const MorrisCounter& other) {
  if (a_ != other.a_) {
    return Status::InvalidArgument(
        "MorrisCounter::RestoreFrom: growth parameters differ");
  }
  level_.Set(other.level_.Peek());  // suppressed when already equal
  estimate_ = other.estimate_;      // same a, same level: same value
  level_changes_ = other.level_changes_;
  return Status::OK();
}

}  // namespace fewstate
