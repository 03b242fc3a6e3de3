#ifndef FEWSTATE_CORE_FULL_SAMPLE_AND_HOLD_H_
#define FEWSTATE_CORE_FULL_SAMPLE_AND_HOLD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/sketch.h"
#include "common/random.h"
#include "common/stream_types.h"
#include "core/options.h"
#include "core/sample_and_hold.h"
#include "counters/morris_counter.h"
#include "state/state_accountant.h"

namespace fewstate {

/// \brief The paper's Algorithm 2: FullSampleAndHold.
///
/// Removes Algorithm 1's assumption that Fp = Otilde(n) by running an
/// R x Y grid of SampleAndHold instances over *nested time-subsampled*
/// substreams: repetition r, level x processes each update independently
/// with probability 2^{1-x} (nested across x: an update surviving level x
/// survives every level below). Some level has a small enough induced
/// moment for Algorithm 1's analysis to apply.
///
/// Frequency estimates per item are combined as
///   max over levels x of 2^{x-1} * median over r of est^{(r,x)},
/// exploiting the §1.3 observation that hold counters can only
/// *underestimate* (counters started late miss a prefix, but phantom
/// counts are impossible), so the maximum across substreams is the best
/// valid underestimate. Each induced substream length is tracked by a
/// Morris counter (paper Alg. 2 line 4), not an exact counter.
class FullSampleAndHold : public Sketch {
 public:
  /// \brief Epoch ownership follows the accountant, as for
  /// `SampleAndHold`.
  explicit FullSampleAndHold(const FullSampleAndHoldOptions& options,
                             StateAccountant* shared_accountant = nullptr);

  /// \brief Status-returning factory.
  static Status Create(const FullSampleAndHoldOptions& options,
                       std::unique_ptr<FullSampleAndHold>* out);

  void Update(Item item) override;

  /// \brief Combined (max-over-levels, median-over-repetitions)
  /// underestimate of the frequency of `item`.
  double EstimateFrequency(Item item) const override;

  /// \brief Every item tracked by at least one instance, with its combined
  /// estimate, in ascending item order.
  std::vector<HeavyHitter> TrackedItems() const;

  /// \brief Tracked items with combined estimate >= threshold.
  std::vector<HeavyHitter> TrackedItemsAbove(double threshold) const;

  /// \brief Morris estimate of the length of substream (r, x).
  double SubstreamLength(size_t r, size_t x) const;

  size_t repetitions() const { return repetitions_; }
  size_t levels() const { return levels_; }
  uint64_t updates_seen() const { return t_; }

  const StateAccountant& accountant() const override { return *accountant_; }
  StateAccountant* mutable_accountant() override { return accountant_; }

 private:
  size_t Index(size_t r, size_t x) const { return r * levels_ + x; }

  FullSampleAndHoldOptions options_;
  std::unique_ptr<StateAccountant> owned_accountant_;
  StateAccountant* accountant_;
  size_t repetitions_;
  size_t levels_;
  uint64_t t_ = 0;
  Rng rng_;                      // counter randomness
  std::vector<Rng> level_rngs_;  // one per repetition
  std::vector<std::unique_ptr<SampleAndHold>> instances_;  // r-major
  std::vector<MorrisCounter> length_counters_;             // r-major
};

}  // namespace fewstate

#endif  // FEWSTATE_CORE_FULL_SAMPLE_AND_HOLD_H_
