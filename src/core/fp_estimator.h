#ifndef FEWSTATE_CORE_FP_ESTIMATOR_H_
#define FEWSTATE_CORE_FP_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/sketch.h"
#include "common/hashing.h"
#include "common/random.h"
#include "common/stream_types.h"
#include "core/options.h"
#include "core/sample_and_hold.h"
#include "state/state_accountant.h"

namespace fewstate {

/// \brief The paper's Algorithm 3: (1+eps)-approximate Fp moment
/// estimation for p >= 1 with Otilde(n^{1-1/p}) state changes.
///
/// Implements the [IW05] level-set framework on top of the
/// sample-and-hold heavy hitter structures:
///  * the *universe* [n] is subsampled at L geometrically decreasing rates
///    (nested, via one hash per repetition); each induced substream feeds
///    a heavy-hitter structure;
///  * frequencies are bucketed into level sets
///    Gamma_i = { j : fhat_j^p in [lambda*Mtilde/2^i, 2*lambda*Mtilde/2^i) }
///    with a uniformly random boundary scale lambda in [1/2, 1] (which
///    bounds misclassification, Lemma 3.6);
///  * the contribution of level set i is estimated from subsampling level
///    ell(i) = max(1, i - shift) and rescaled by the inverse sampling
///    rate; Fp-hat is the sum of estimated contributions.
class FpEstimator : public Sketch {
 public:
  /// \brief Epoch ownership follows the accountant, as for
  /// `SampleAndHold`.
  explicit FpEstimator(const FpEstimatorOptions& options,
                       StateAccountant* shared_accountant = nullptr);

  /// \brief Status-returning factory.
  static Status Create(const FpEstimatorOptions& options,
                       std::unique_ptr<FpEstimator>* out);

  void Update(Item item) override;

  /// \brief The (1+eps)-approximate estimate of Fp = sum_j f_j^p.
  ///
  /// Algorithm 3 line 9 fixes the level-set scale Mtilde ~ m^p, which is a
  /// gross upper bound on Fp for flat streams and would map low-frequency
  /// level sets onto empty substreams. Following the standard [IW05]
  /// guess-and-verify practice, the query searches all power-of-two scales
  /// 2^z <= 2 m^p and returns the largest resulting estimate: every scale
  /// yields (whp) an underestimate (hold counters cannot overcount and
  /// survivor sums are unbiased-or-short), and the scale nearest the true
  /// Ftilde_p recovers (1-eps) Fp. See DESIGN.md.
  double EstimateFp() const;

  /// \brief Estimate at one fixed level-set scale Mtilde = 2^z
  /// (diagnostics / tests).
  double EstimateFpAtScale(int z) const;

  /// \brief Estimate of the Lp norm = EstimateFp()^{1/p}.
  double EstimateLp() const;

  /// \brief Moment estimator, not a point-query structure; 0 is the
  /// trivially valid underestimate (see `Sketch::EstimateFrequency`).
  double EstimateFrequency(Item /*item*/) const override { return 0.0; }

  /// \brief Per-level-set contribution estimates at scale Mtilde = 2^z
  /// (diagnostics; index 0 is level set i = 1).
  std::vector<double> EstimateContributions(int z) const;

  /// \brief Largest candidate scale exponent: ceil(p * log2(max(m,2))) + 1.
  int MaxScaleExponent() const;

  size_t repetitions() const { return repetitions_; }
  size_t levels() const { return levels_; }
  int level_set_shift() const { return shift_; }
  uint64_t updates_seen() const { return t_; }

  const StateAccountant& accountant() const override { return *accountant_; }
  StateAccountant* mutable_accountant() override { return accountant_; }

 private:
  /// Snapshot of all inner tracked sets (query-time cache).
  std::vector<std::vector<HeavyHitter>> SnapshotTracked() const;

  /// Contribution estimates at scale 2^z over a snapshot.
  std::vector<double> ContributionsFromSnapshot(
      int z, const std::vector<std::vector<HeavyHitter>>& snapshot) const;

  FpEstimatorOptions options_;
  std::unique_ptr<StateAccountant> owned_accountant_;
  StateAccountant* accountant_;
  size_t repetitions_;
  size_t levels_;
  int shift_;
  double lambda_;  // random level-set boundary scale in [1/2, 1]
  uint64_t t_ = 0;
  std::vector<PolynomialHash> universe_hashes_;  // one per repetition
  std::vector<std::unique_ptr<SampleAndHold>> sah_instances_;  // r-major

  size_t Index(size_t r, size_t ell) const { return r * levels_ + ell; }
};

}  // namespace fewstate

#endif  // FEWSTATE_CORE_FP_ESTIMATOR_H_
