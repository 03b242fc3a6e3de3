#ifndef FEWSTATE_BASELINES_COUNT_MIN_H_
#define FEWSTATE_BASELINES_COUNT_MIN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/mergeable.h"
#include "common/hashing.h"
#include "common/status.h"
#include "common/stream_types.h"
#include "recover/restorable.h"
#include "state/state_accountant.h"
#include "state/tracked.h"

namespace fewstate {

/// \brief CountMin sketch [CM05] (Table 1 row 2): L1 heavy hitters /
/// point queries with overestimates.
///
/// A depth x width grid of counters; update writes one counter per row,
/// so every stream update is a state change (Theta(m) under the paper's
/// metric). Width w gives additive error 2m/w with probability
/// 1 - 2^{-depth} (or m/w under conservative update).
class CountMin : public MergeableSketch, public RestorableSketch {
 public:
  /// \brief Creates a sketch of `depth` rows by `width` counters.
  ///
  /// \param conservative if true, uses conservative update (only raise
  ///        counters equal to the current minimum), a standard variant
  ///        that tightens overestimates and — relevant here — slightly
  ///        reduces word writes while still changing state on (almost)
  ///        every update.
  CountMin(size_t depth, size_t width, uint64_t seed,
           bool conservative = false);

  void Update(Item item) override;

  /// \brief Batch kernel: hashes the whole batch per row up front
  /// (`PolynomialHash::HashRangeBatch`), applies the row increments over
  /// raw table storage, and reconciles accounting once per chunk through
  /// `StateAccountant::ApplyBatch` — bitwise identical to the scalar loop
  /// in estimates, accountant totals and sink traffic.
  void UpdateBatch(const Item* items, size_t n) override;

  /// \brief Adds another CountMin's table cell-wise. The grids are linear
  /// in the frequency vector, so merging shard replicas (same depth, width
  /// and seed) is *exactly* equivalent to one sketch over the concatenated
  /// streams — except under conservative update, where the merged table is
  /// still a valid overestimate but no longer bitwise-identical to a
  /// single-pass run.
  Status MergeFrom(const Sketch& other) override;

  /// \brief Overwrites the table with another CountMin's (same depth,
  /// width, seed, update mode), pricing only words that differ — the
  /// checkpoint/restore contract. Exact in both update modes (the state is
  /// just the counter grid).
  Status RestoreFrom(const Sketch& source) override;

  /// \brief Delta restore: copies only the dirty cells (O(dirty) scan).
  Status RestoreDirty(const Sketch& source,
                      const DirtyTracker& dirty) override;

  /// \brief Overestimate of the frequency of `item` (min over rows).
  double EstimateFrequency(Item item) const override;

  /// \brief Scans candidate universe [0, n) and reports items whose
  /// estimate is >= `threshold`. (CountMin alone cannot enumerate; the
  /// scan oracle mirrors how the paper's Table 1 treats these sketches as
  /// frequency-estimation structures.)
  std::vector<HeavyHitter> HeavyHittersByScan(Item universe,
                                              double threshold) const;

  size_t depth() const { return depth_; }
  size_t width() const { return width_; }

  const StateAccountant& accountant() const override { return accountant_; }
  StateAccountant* mutable_accountant() override { return &accountant_; }

 private:
  // Merge/restore compatibility: same dimensions, seed and update mode.
  bool SameConfig(const CountMin& other) const {
    return other.depth_ == depth_ && other.width_ == width_ &&
           other.seed_ == seed_ && other.conservative_ == conservative_;
  }

  size_t depth_;
  size_t width_;
  uint64_t seed_;
  bool conservative_;
  StateAccountant accountant_;
  std::vector<PolynomialHash> hashes_;
  std::unique_ptr<TrackedArray<uint64_t>> table_;
  // Reused batch-kernel scratch (bounded by the internal chunk size).
  BatchUpdateScratch batch_scratch_;
  std::vector<uint64_t> batch_idx_;
  std::vector<size_t> scalar_idx_;  // conservative Update's row cells
};

}  // namespace fewstate

#endif  // FEWSTATE_BASELINES_COUNT_MIN_H_
