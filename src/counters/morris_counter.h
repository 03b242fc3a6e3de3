#ifndef FEWSTATE_COUNTERS_MORRIS_COUNTER_H_
#define FEWSTATE_COUNTERS_MORRIS_COUNTER_H_

#include <cstdint>

#include "common/random.h"
#include "common/status.h"
#include "state/state_accountant.h"
#include "state/tracked.h"

namespace fewstate {

/// \brief Approximate counter with few state changes (paper Theorem 1.5,
/// [Mor78, NY22]).
///
/// The counter keeps a single tracked word: the level X. The estimated
/// count is value(X) = ((1+a)^X - 1) / a, which is unbiased for the true
/// count under the standard Morris increment rule (advance X with
/// probability (1+a)^{-X}). Smaller `a` means better accuracy but more
/// level advances: a counter that reaches count n performs
/// O(log(1 + a*n)/a) state changes — poly(log n, 1/eps, log 1/delta) with
/// a = Theta(eps^2 * delta), versus n for an exact counter.
///
/// `a == 0` degenerates to an exact counter (every increment advances),
/// which is how the library's "exact counter" baselines are expressed.
///
/// Real-valued increments (`Add`) are supported for the p-stable sketch of
/// Theorem 3.2: the target value value(X) + w is converted to a fractional
/// level and the counter jumps there with probabilistic rounding, keeping
/// the estimate unbiased while performing at most two tracked writes (and
/// usually zero when w is far below the current level gap).
///
/// The counter caches the closed forms it needs at its current level —
/// value(X), value(X+1) and Increment's advance probability — and
/// refreshes them only when the level moves, so the common no-advance
/// update costs no transcendental call and `Estimate()` is a load. The
/// cache is a pure function of (a, X): every result, coin flip and
/// tracked write is bitwise what the uncached formulas produce.
class MorrisCounter {
 public:
  /// \brief Constructs a counter with growth parameter `a >= 0` drawing
  /// randomness from `rng` (not owned; one Rng is typically shared by all
  /// counters of an algorithm).
  MorrisCounter(StateAccountant* accountant, Rng* rng, double a);

  MorrisCounter(MorrisCounter&&) noexcept = default;
  MorrisCounter& operator=(MorrisCounter&&) noexcept = default;

  /// \brief Growth parameter achieving (1+eps)-accuracy with probability
  /// 1 - delta via Chebyshev on the standard Morris variance bound
  /// Var[estimate] <= a * n^2 / 2:  a = 2 * eps^2 * delta.
  static double GrowthForAccuracy(double eps, double delta);

  /// \brief Counts one occurrence.
  void Increment();

  /// \brief Adds a non-negative real weight.
  void Add(double w);

  /// \brief Batch-kernel `Add`: the same rounding and coin flip, with the
  /// read and the level write mirrored into `scratch` instead of the
  /// accountant (see `BatchUpdateScratch`). Inline, with its coin flip:
  /// a kernel pays no call per (item, row) unless the level moves.
  void Add(double w, BatchUpdateScratch* scratch) {
    if (w <= 0.0) return;
    const uint32_t x = level_.Peek();
    scratch->Read();
    const uint32_t final_level = RoundedLevel(x, w);
    level_.Set(final_level, scratch);  // suppressed when the level holds
    if (final_level != x) ++level_changes_;
  }

  /// \brief Folds another counter (same growth parameter `a`) into this
  /// one: the level jumps to represent the sum of both estimates, via the
  /// same probabilistic rounding as `Add`, so the merged estimate stays
  /// unbiased and the jump costs at most one tracked write. The source is
  /// not modified. This is what makes sharded Morris-backed sketches
  /// consolidable.
  Status Merge(const MorrisCounter& other);

  /// \brief Overwrites this counter's level with `other`'s, exactly — no
  /// probabilistic rounding and no randomness consumed (unlike `Merge`).
  /// Writing the level already held is suppressed, so restoring onto the
  /// previous checkpoint of an unadvanced counter is free. The
  /// checkpoint/recovery primitive behind `RestorableSketch`
  /// implementations built on Morris counters.
  Status RestoreFrom(const MorrisCounter& other);

  /// \brief Unbiased estimate of the accumulated count/weight: value(X),
  /// kept current by every operation that moves the level.
  double Estimate() const { return estimate_; }

  /// \brief Current level (the single word of tracked state).
  uint32_t level() const { return level_.Peek(); }

  /// \brief Logical cell address of the level word (dirty-set lookups in
  /// delta restores).
  uint64_t cell() const { return level_.cell(); }

  /// \brief Number of level advances so far (== tracked state changes
  /// attributable to this counter).
  uint64_t level_changes() const { return level_changes_; }

  /// \brief Growth parameter.
  double a() const { return a_; }

 private:
  /// Estimate implied by level x.
  double ValueAt(double x) const;
  /// Inverse of ValueAt: (possibly fractional) level whose value is v.
  double LevelFor(double v) const;
  /// The level `Add(w)` moves to from level x (flips at most one coin);
  /// leaves `estimate_` at that level's value. Both `Add` overloads share
  /// it, so the rounding exists only once.
  uint32_t RoundedLevel(uint32_t x, double w) {
    if (add_level_ != x) RefreshAddCache(x);
    const double target = value_ + w;
    uint32_t base = x;
    double lo = value_;
    double hi = next_value_;
    if (!(target < fast_limit_)) base = LevelBracket(x, target, &lo, &hi);
    double q = (target - lo) / (hi - lo);
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const bool up = rng_->Bernoulli(q);
    estimate_ = up ? hi : lo;  // the value of the level returned
    return base + (up ? 1 : 0);
  }
  /// RoundedLevel's exact path, for targets the cache cannot place below
  /// x + 1: the level `target` falls in (never below x), with its value
  /// and the next level's in `*lo`/`*hi` when that level is not x.
  uint32_t LevelBracket(uint32_t x, double target, double* lo,
                        double* hi) const;
  /// Recomputes the `Add` cache for level x.
  void RefreshAddCache(uint32_t x);

  // Sentinel for "cache describes no level" (levels are 32-bit).
  static constexpr uint64_t kNoLevel = ~uint64_t{0};

  Rng* rng_;
  double a_;
  double log1p_a_;  // cached log(1+a); 0 when a == 0
  TrackedCell<uint32_t> level_;
  uint64_t level_changes_ = 0;
  double estimate_ = 0.0;  // ValueAt(level()); value(0) is 0 for every a
  // `Add` cache: ValueAt(add_level_), ValueAt(add_level_ + 1), and the
  // largest targets that provably round down to add_level_ (see
  // RefreshAddCache). Working memory, not tracked state.
  uint64_t add_level_ = kNoLevel;
  double value_ = 0.0;
  double next_value_ = 0.0;
  double fast_limit_ = 0.0;
  // `Increment` cache: (1+a)^{-inc_level_}.
  uint64_t inc_level_ = kNoLevel;
  double advance_prob_ = 1.0;
};

}  // namespace fewstate

#endif  // FEWSTATE_COUNTERS_MORRIS_COUNTER_H_
