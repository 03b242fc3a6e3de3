#ifndef FEWSTATE_BASELINES_MISRA_GRIES_H_
#define FEWSTATE_BASELINES_MISRA_GRIES_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "api/mergeable.h"
#include "common/status.h"
#include "common/stream_types.h"
#include "recover/restorable.h"
#include "state/state_accountant.h"

namespace fewstate {

/// \brief Misra–Gries deterministic L1 heavy-hitters summary [MG82]
/// (Table 1 row 1).
///
/// Maintains at most `k` (item, count) pairs. Estimates are underestimates
/// with additive error at most m/(k+1). Every stream update mutates the
/// summary, so the paper's state-change metric is Theta(m) — this is the
/// canonical "writes on every update" baseline the paper contrasts with.
class MisraGries : public MergeableSketch,
                   public RestorableSketch,
                   public CandidateEnumerable {
 public:
  /// \brief Creates a summary with capacity `k >= 1` counters.
  explicit MisraGries(size_t k);

  void Update(Item item) override;

  /// \brief The classic mergeable-summaries combine [ACHPWY12]: counts of
  /// common items add; if the union exceeds k entries, the (k+1)-th
  /// largest count is subtracted from every entry and non-positive entries
  /// are evicted. Error bounds add (each summary stays within m/(k+1) of
  /// its own substream), so a sharded run keeps the MG guarantee on the
  /// combined stream.
  Status MergeFrom(const Sketch& other) override;

  /// \brief Overwrites the summary with another MisraGries' (same
  /// capacity) entry for entry: unchanged (item, count) pairs are
  /// suppressed, changed counts cost one word, inserted pairs two, and
  /// evicted slots one (the tombstone) — the checkpoint/restore contract
  /// for map-shaped state. Delta restores use the default full scan with
  /// suppression; that is near-optimal here because MG changes most of
  /// its counts between checkpoints anyway — it is the paper's
  /// writes-everywhere baseline, so its deltas ≈ full rewrites by nature.
  Status RestoreFrom(const Sketch& source) override;

  /// \brief Underestimate of the frequency of `item` (0 if not tracked).
  double EstimateFrequency(Item item) const override;

  /// \brief All items whose tracked count is >= `threshold`.
  std::vector<HeavyHitter> HeavyHitters(double threshold) const;

  /// \brief Appends the tracked item identities (at most `capacity()`),
  /// the candidate set for `TopK`/`HeavyHitters` view queries.
  void AppendCandidates(std::vector<Item>* out) const override {
    out->reserve(out->size() + counts_.size());
    for (const auto& entry : counts_) out->push_back(entry.first);
  }

  /// \brief Number of tracked entries.
  size_t size() const { return counts_.size(); }

  /// \brief Capacity.
  size_t capacity() const { return k_; }

  /// \brief State-change instrumentation.
  const StateAccountant& accountant() const override { return accountant_; }
  StateAccountant* mutable_accountant() override { return &accountant_; }

 private:
  // Each tracked entry owns a 2-word slot: key word at
  // `cells_base_ + 2*slot`, count word at `cells_base_ + 2*slot + 1`.
  // Per-slot addresses let `DirtyTracker` see the true touched set per
  // checkpoint interval, so a delta checkpoint rewrites only those slots.
  struct Entry {
    uint64_t count = 0;
    uint32_t slot = 0;
  };

  // Merge/restore compatibility: same capacity.
  bool SameConfig(const MisraGries& other) const { return other.k_ == k_; }

  uint64_t KeyCell(uint32_t slot) const { return cells_base_ + 2 * slot; }
  uint64_t CountCell(uint32_t slot) const {
    return cells_base_ + 2 * slot + 1;
  }

  size_t k_;
  StateAccountant accountant_;
  uint64_t cells_base_;
  std::unordered_map<Item, Entry> counts_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace fewstate

#endif  // FEWSTATE_BASELINES_MISRA_GRIES_H_
