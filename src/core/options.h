#ifndef FEWSTATE_CORE_OPTIONS_H_
#define FEWSTATE_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace fewstate {

/// \brief How SampleAndHold evicts counters when the budget is exceeded.
enum class EvictionPolicy {
  /// The paper's policy (§2.1): group counters by dyadic age bucket
  /// (initialised between t-2^z and t-2^{z+1}) and keep, within each
  /// bucket, the half with the largest approximate frequencies. This is
  /// what survives the §1.4 counterexample.
  kDyadicAge,
  /// Strawman (pick-and-drop style, BO13/BKSV14): evict the counters with
  /// the globally smallest approximate frequencies. Defeated by the §1.4
  /// counterexample; provided for the E9 experiment.
  kGlobalSmallest,
};

/// \brief Configuration for SampleAndHold (paper Algorithm 1).
///
/// The paper's constants (gamma = 2^{20p}, kappa = Theta(log^{11+3p}(nm) /
/// eps^{4+4p}), k ~ Uni[200p*kappa*log^2, 202p*kappa*log^2]) are asymptotic
/// devices; the defaults below keep the exact same *structure* (sampling
/// rate proportional to n^{1-1/p} log(nm) / (eps^2 m), reservoir of
/// kappa ~ n^{1-2/p} (p > 2) or polylog (p <= 2) slots, randomised counter
/// budget a constant factor above kappa) with constants that behave at
/// laptop scale. Every constant is overridable for experiments.
struct SampleAndHoldOptions {
  /// Universe size n (upper bound on item ids + 1). Required.
  uint64_t universe = 0;
  /// Known (approximate) stream length m; 0 means "assume m = universe".
  uint64_t stream_length_hint = 0;
  /// Moment parameter p >= 1.
  double p = 2.0;
  /// Accuracy parameter in (0, 1).
  double eps = 0.5;
  /// Seed for all internal randomness.
  uint64_t seed = 0;

  /// Multiplier on the derived sampling probability rho.
  double sample_rate_scale = 4.0;
  /// Multiplier on the derived reservoir size kappa.
  double reservoir_scale = 1.0;
  /// Counter budget as a multiple of the reservoir size (the paper's
  /// 200p*log^2(nm) factor, made practical).
  double counter_budget_scale = 4.0;
  /// Explicit reservoir slot count; 0 derives from kappa.
  size_t reservoir_slots_override = 0;
  /// Explicit counter budget; 0 derives from the reservoir size.
  size_t counter_budget_override = 0;
  /// Morris growth parameter for hold counters; 0 derives eps^2/8
  /// ((1 + eps/4)-accurate counters). Negative requests exact counters.
  double morris_a = 0.0;
  /// Eviction policy under counter-budget pressure.
  EvictionPolicy eviction = EvictionPolicy::kDyadicAge;

  /// \brief Validates ranges (universe > 0, p >= 1, eps in (0,1), ...).
  Status Validate() const;
};

/// \brief Configuration for FullSampleAndHold (paper Algorithm 2).
struct FullSampleAndHoldOptions {
  uint64_t universe = 0;
  uint64_t stream_length_hint = 0;
  double p = 2.0;
  double eps = 0.5;
  uint64_t seed = 0;

  /// Independent repetitions (medians boost per-item success probability;
  /// paper: R = O(log n)).
  size_t repetitions = 3;
  /// Stream-subsampling levels (paper: Y = O(log m)), at most 63; 0
  /// derives log2(stream hint) + 1.
  size_t levels = 0;
  /// Knobs forwarded to every inner SampleAndHold.
  double sample_rate_scale = 4.0;
  double reservoir_scale = 1.0;
  double counter_budget_scale = 4.0;
  double morris_a = 0.0;
  EvictionPolicy eviction = EvictionPolicy::kDyadicAge;

  Status Validate() const;
};

/// \brief Configuration for the Fp estimator (paper Algorithm 3), p >= 1.
struct FpEstimatorOptions {
  uint64_t universe = 0;
  uint64_t stream_length_hint = 0;
  double p = 2.0;
  double eps = 0.5;
  uint64_t seed = 0;

  /// Universe-subsampling repetitions (paper: R = O(log log n)).
  size_t repetitions = 3;
  /// Universe-subsampling levels L, at most 63; 0 derives from the
  /// universe size.
  size_t levels = 0;
  /// Level-set index shift (the paper's floor(log(gamma^2 log(nm)/eps^2))
  /// linking level set i to subsampling level ell = max(1, i - shift)),
  /// at most 61; negative derives from eps and the stream hint.
  int level_set_shift = -1;
  /// Knobs forwarded to the inner heavy-hitter structures.
  double sample_rate_scale = 4.0;
  double reservoir_scale = 1.0;
  double counter_budget_scale = 4.0;
  double morris_a = 0.0;

  Status Validate() const;
};

/// \brief Configuration for the p-in-(0,1] estimator (paper Theorem 3.2).
struct SmallPEstimatorOptions {
  /// Moment parameter in (0, 1].
  double p = 0.5;
  /// Accuracy parameter in (0, 1).
  double eps = 0.2;
  uint64_t seed = 0;
  /// Sketch rows; 0 derives ceil(6 / eps^2).
  size_t rows = 0;
  /// Morris growth parameter for the monotone inner products; 0 derives
  /// from eps.
  double morris_a = 0.0;

  Status Validate() const;
};

/// \brief Configuration for the entropy estimator (paper Theorem 3.8).
struct EntropyEstimatorOptions {
  uint64_t universe = 0;
  /// Stream length hint used to place the interpolation nodes; required
  /// (the paper's Theorem 3.8 assumes n, m known a priori).
  uint64_t stream_length_hint = 0;
  /// Target additive entropy error in (0, 1].
  double eps = 0.1;
  uint64_t seed = 0;
  /// Interpolation degree k (k+1 nodes); 0 derives a small practical
  /// degree (2).
  size_t degree = 0;
  /// Half-width of the interpolation node window around p = 1. The paper
  /// (Lemma 3.7) uses ell = 1/(2(k+1) log m), which minimises Taylor
  /// truncation but amplifies estimator noise by 1/ell in the derivative;
  /// at laptop scale a wider window is the right trade (see DESIGN.md).
  /// 0 derives the practical default 0.25.
  double node_span = 0.0;
  /// Use the exact Lemma 3.7 nodes instead of the symmetric window.
  bool use_hno08_nodes = false;
  /// Rows per node sketch; 0 derives from eps.
  size_t rows = 0;
  /// Morris growth parameter for node sketches; 0 derives from eps.
  double morris_a = 0.0;

  Status Validate() const;
};

/// \brief Configuration for the user-facing Lp heavy hitters API.
struct HeavyHittersOptions {
  uint64_t universe = 0;
  uint64_t stream_length_hint = 0;
  double p = 2.0;
  /// Threshold parameter: report items with f_j >= eps * ||f||_p.
  double eps = 0.1;
  uint64_t seed = 0;
  /// Repetitions of the inner FullSampleAndHold.
  size_t repetitions = 3;

  Status Validate() const;
};

/// \brief Configuration for sparse support recovery.
struct SparseRecoveryOptions {
  uint64_t universe = 0;
  /// Maximum support size the structure can recover.
  uint64_t sparsity = 0;
  uint64_t stream_length_hint = 0;
  uint64_t seed = 0;

  Status Validate() const;
};

}  // namespace fewstate

#endif  // FEWSTATE_CORE_OPTIONS_H_
