#ifndef FEWSTATE_CORE_SAMPLE_AND_HOLD_H_
#define FEWSTATE_CORE_SAMPLE_AND_HOLD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "api/sketch.h"
#include "common/random.h"
#include "common/stream_types.h"
#include "core/options.h"
#include "counters/morris_counter.h"
#include "state/state_accountant.h"
#include "state/tracked.h"

namespace fewstate {

/// \brief The paper's Algorithm 1: SampleAndHold.
///
/// Structure (paper §2.1):
///  * a reservoir of `k` sampled item ids; each stream update replaces a
///    uniformly random slot with probability rho ~ n^{1-1/p} log(nm) /
///    (eps^2 m);
///  * when an update's item is present in the reservoir, a Morris "hold"
///    counter is created for it and counts its subsequent occurrences;
///  * when the number of active counters reaches a randomised budget, a
///    maintenance pass groups counters by *dyadic age* (initialised
///    between t-2^z and t-2^{z+1}) and keeps, per group, the half with
///    largest approximate frequency. Comparing only similar-aged counters
///    is what defeats the §1.4 counterexample that breaks
///    smallest-counter eviction.
///
/// State changes: ~rho*m reservoir writes + O(polylog) level advances per
/// held counter + maintenance bookkeeping = Otilde(n^{1-1/p}) total, while
/// frequency estimates of Lp heavy hitters are (1+eps)-accurate
/// *underestimates* (the algorithm can miss a prefix of an item's
/// occurrences but never counts phantom ones — Lemma 2.4 and §1.3 rely on
/// this one-sidedness).
///
/// The stream position t is treated as read-only input from the
/// environment, not internal state (consistent with the paper's §4 lower
/// bound, where the algorithm may know t yet is charged only for memory
/// writes).
class SampleAndHold : public Sketch {
 public:
  /// \brief Creates the structure; dies on invalid options (use
  /// `Create()` for Status-returning construction). Without
  /// `shared_accountant` it owns its accountant and opens one epoch per
  /// item; with one, the accountant's owner opens the epochs.
  explicit SampleAndHold(const SampleAndHoldOptions& options,
                         StateAccountant* shared_accountant = nullptr);

  /// \brief Status-returning factory (RocksDB idiom).
  static Status Create(const SampleAndHoldOptions& options,
                       std::unique_ptr<SampleAndHold>* out);

  /// \brief The reservoir size kappa the constructor would derive for
  /// `options` (before the explicit override). Exposed so composite
  /// structures (Algorithm 3) can size instances consistently.
  static size_t DerivedReservoirSlots(const SampleAndHoldOptions& options);

  void Update(Item item) override;

  /// \brief Estimated frequency of `item`: the value of its hold counter,
  /// or 0 if untracked. Always an underestimate of the true frequency (up
  /// to the Morris counter's (1+eps) accuracy).
  double EstimateFrequency(Item item) const override;

  /// \brief All currently held (item, estimate) pairs.
  std::vector<HeavyHitter> TrackedItems() const;

  /// \brief Tracked items with estimate >= threshold.
  std::vector<HeavyHitter> TrackedItemsAbove(double threshold) const;

  /// \brief Number of active hold counters.
  size_t active_counters() const { return counters_.size(); }

  /// \brief Current randomised counter budget.
  size_t counter_budget() const { return counter_budget_; }

  /// \brief Reservoir slot count.
  size_t reservoir_slots() const { return reservoir_->size(); }

  /// \brief Derived per-update sampling probability rho.
  double sample_probability() const { return rho_; }

  /// \brief Number of maintenance passes performed.
  uint64_t maintenance_passes() const { return maintenance_passes_; }

  /// \brief Updates consumed so far.
  uint64_t updates_seen() const { return t_; }

  const StateAccountant& accountant() const override { return *accountant_; }
  StateAccountant* mutable_accountant() override { return accountant_; }

  const SampleAndHoldOptions& options() const { return options_; }

 private:
  struct HeldCounter {
    MorrisCounter counter;
    Timestamp birth;
  };

  void MaybeRunMaintenance();
  void RunDyadicAgeMaintenance();
  void RunGlobalSmallestMaintenance();
  void RemoveCounter(Item item);
  void DrawCounterBudget();

  SampleAndHoldOptions options_;
  std::unique_ptr<StateAccountant> owned_accountant_;
  StateAccountant* accountant_;
  Rng rng_;
  double rho_ = 0.0;
  double morris_a_ = 0.0;
  size_t budget_lo_ = 0;
  size_t budget_hi_ = 0;
  size_t counter_budget_ = 0;
  uint64_t t_ = 0;  // stream position (environment-provided, untracked)
  uint64_t bookkeeping_cell_ = 0;  // budget/eviction bookkeeping word

  std::unique_ptr<TrackedArray<Item>> reservoir_;
  // Derived read-only index mirroring reservoir contents (multiplicity of
  // each id across slots); not extra algorithmic state.
  std::unordered_map<Item, uint32_t> reservoir_index_;
  std::unordered_map<Item, HeldCounter> counters_;
  uint64_t maintenance_passes_ = 0;

  static constexpr Item kEmptySlot = ~0ULL;
};

}  // namespace fewstate

#endif  // FEWSTATE_CORE_SAMPLE_AND_HOLD_H_
