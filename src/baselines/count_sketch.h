#ifndef FEWSTATE_BASELINES_COUNT_SKETCH_H_
#define FEWSTATE_BASELINES_COUNT_SKETCH_H_

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

/// \brief CountSketch [CCF04] (Table 1 row 4): L2 heavy hitters via signed
/// counters.
///
/// depth x width grid; each update adds a +-1 sign to one counter per row
/// (always a state change => Theta(m) state changes). The frequency
/// estimate is the median over rows of sign * counter, with additive error
/// O(||f||_2 / sqrt(width)) per row.
class CountSketch : public MergeableSketch, public RestorableSketch {
 public:
  CountSketch(size_t depth, size_t width, uint64_t seed);

  void Update(Item item) override;

  /// \brief Batch kernel: bucket and sign hashes for the whole batch are
  /// evaluated up front, then the signed row increments sweep raw table
  /// storage with accounting reconciled once per chunk — bitwise identical
  /// to the scalar loop.
  void UpdateBatch(const Item* items, size_t n) override;

  /// \brief Adds another CountSketch's table cell-wise. The sketch is
  /// linear, so merging identically-configured shard replicas (same depth,
  /// width, seed) is exactly equivalent to one sketch over the
  /// concatenated streams.
  Status MergeFrom(const Sketch& other) override;

  /// \brief Overwrites the table with another CountSketch's (same depth,
  /// width, seed), pricing only words that differ — the
  /// checkpoint/restore contract.
  Status RestoreFrom(const Sketch& source) override;

  /// \brief Delta restore: copies only the dirty cells (O(dirty) scan).
  Status RestoreDirty(const Sketch& source,
                      const DirtyTracker& dirty) override;

  /// \brief Median-of-rows estimate of the frequency of `item`.
  double EstimateFrequency(Item item) const override;

  /// \brief Point-scans the universe [0, n) for estimates >= threshold.
  std::vector<HeavyHitter> HeavyHittersByScan(Item universe,
                                              double threshold) const;

  /// \brief Estimate of F2 = ||f||_2^2: median over rows of the row's sum
  /// of squared counters (the classic AMS/CountSketch connection).
  double EstimateF2() const;

  size_t depth() const { return depth_; }
  size_t width() const { return width_; }

  const StateAccountant& accountant() const override { return accountant_; }
  StateAccountant* mutable_accountant() override { return &accountant_; }

 private:
  // Merge/restore compatibility: same dimensions and seed.
  bool SameConfig(const CountSketch& other) const {
    return other.depth_ == depth_ && other.width_ == width_ &&
           other.seed_ == seed_;
  }

  size_t depth_;
  size_t width_;
  uint64_t seed_;
  StateAccountant accountant_;
  std::vector<PolynomialHash> bucket_hashes_;
  std::vector<PolynomialHash> sign_hashes_;
  std::unique_ptr<TrackedArray<int64_t>> table_;
  // Reused batch-kernel scratch (bounded by the internal chunk size).
  BatchUpdateScratch batch_scratch_;
  std::vector<uint64_t> batch_idx_;
  std::vector<int8_t> batch_sign_;
};

}  // namespace fewstate

#endif  // FEWSTATE_BASELINES_COUNT_SKETCH_H_
