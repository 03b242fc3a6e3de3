#ifndef FEWSTATE_CORE_SAMPLE_AND_HOLD_H_
#define FEWSTATE_CORE_SAMPLE_AND_HOLD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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
///
/// Eviction tie rule: a maintenance pass ranks the counters of each group
/// by (estimate desc, birth asc) and keeps the first ceil(half): among
/// equal estimates the older counter survives. At most one counter is
/// born per update, so births are distinct and the order is total (an
/// item-id key after birth would never decide).
///
/// Working memory (untracked; the tracked words are the reservoir, the
/// bookkeeping word and each counter's level and birth words): one
/// open-addressing table keyed by item, whose entry carries the item's
/// held-counter slot, its reservoir multiplicity and the value
/// `EstimateFrequency` returns, so a lookup touches one entry; and a slot
/// array of held counters with a LIFO free list. Both grow lazily, so
/// construction allocates nothing beyond the reservoir. A removed
/// counter's level cell and birth word are released at removal.
class SampleAndHold final : public Sketch {
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

  /// \brief Estimated frequency of `item`: the value of its hold counter
  /// + 1, 1 for a reservoir-only item, or 0 if untracked. Always an
  /// underestimate of the true frequency (up to the Morris counter's
  /// (1+eps) accuracy). Inline, one probe run: composites make thousands
  /// of these per query.
  double EstimateFrequency(Item item) const override {
    return table_.empty() ? 0.0 : table_[Probe(item)].estimate;
  }

  /// \brief All currently held or reservoir-resident (item, estimate)
  /// pairs, in table order (deterministic for a given stream and seed).
  std::vector<HeavyHitter> TrackedItems() const;

  /// \brief Tracked items with estimate >= threshold.
  std::vector<HeavyHitter> TrackedItemsAbove(double threshold) const;

  /// \brief Number of active hold counters.
  size_t active_counters() const { return held_.size() - free_held_.size(); }

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
  static constexpr uint32_t kNoCounter = ~uint32_t{0};

  struct HeldCounter {
    MorrisCounter counter;
    Timestamp birth;
    Item item;
  };

  // One entry per item that holds a counter, occupies reservoir slots, or
  // both. `estimate` is what EstimateFrequency(item) returns. A held item
  // reports its counter's estimate + 1: every hold counter missed at least
  // the occurrence that put the item into the reservoir, so est+1 is a
  // tighter but still valid underestimate (it matters for low-frequency
  // level sets). A reservoir-only item was seen at least once and reports
  // 1; without that, frequency-1 level sets (e.g. the Theorem 1.4
  // permutation stream S2, Fp = n) would be invisible, since items that
  // never recur never earn a counter. `estimate == 0` marks an empty
  // entry: a live one is >= 1.
  struct Entry {
    Item item = 0;
    uint32_t counter = kNoCounter;  // slot in held_
    uint32_t reservoir = 0;         // reservoir slots holding `item`
    double estimate = 0.0;
  };

  // A maintenance candidate; `group` is the dyadic age bucket (0 for
  // global-smallest eviction).
  struct Candidate {
    int group;
    double estimate;
    Timestamp birth;
    uint32_t slot;
  };

  void MaybeRunMaintenance();
  void RemoveCounter(uint32_t slot);
  void DrawCounterBudget();

  // Multiplicative (Fibonacci) hashing, as SpaceSaving's index does:
  // inline, where an out-of-line `Mix64` call would cost a call per probe.
  size_t Home(Item item) const {
    return static_cast<size_t>((item * 0x9E3779B97F4A7C15ull) >>
                               table_shift_);
  }
  // Index of `item`'s entry, or of the empty entry ending its probe run.
  // The table must be non-empty.
  size_t Probe(Item item) const {
    const size_t mask = table_.size() - 1;
    size_t i = Home(item);
    while (table_[i].estimate != 0.0 && table_[i].item != item) {
      i = (i + 1) & mask;
    }
    return i;
  }
  Entry& Insert(Item item);  // `item` must be absent
  void Erase(size_t index);  // backward-shift deletion
  void Rehash(size_t size);

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
  // Derived working memory (see the class comment), not extra state.
  std::vector<Entry> table_;  // power-of-two size, load <= 3/4
  int table_shift_ = 64;      // 64 - log2(table_.size())
  size_t entries_ = 0;
  // Counter slots; null while on the free list. A counter is its own heap
  // node, freed at removal: an instance's live count swings between half
  // its budget and the budget, and inline slots would pin every
  // instance's high-water mark, while freed nodes serve any instance.
  std::vector<std::unique_ptr<HeldCounter>> held_;
  std::vector<uint32_t> free_held_;  // LIFO
  std::vector<Candidate> ranked_;  // maintenance buffer, reused
  uint64_t maintenance_passes_ = 0;

  static constexpr Item kEmptySlot = ~0ULL;
};

}  // namespace fewstate

#endif  // FEWSTATE_CORE_SAMPLE_AND_HOLD_H_
