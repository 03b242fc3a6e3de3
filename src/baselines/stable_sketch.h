#ifndef FEWSTATE_BASELINES_STABLE_SKETCH_H_
#define FEWSTATE_BASELINES_STABLE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/mergeable.h"
#include "common/hashing.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stream_types.h"
#include "counters/morris_counter.h"
#include "recover/restorable.h"
#include "state/state_accountant.h"
#include "state/tracked.h"

namespace fewstate {

/// \brief Indyk's p-stable sketch for Fp/Lp estimation, p in (0, 2]
/// [Ind06], with the JW19 low-state-change mode of paper Theorem 3.2.
///
/// Maintains `rows` inner products < D(r), f > where D(r) entries are
/// p-stable variates derived deterministically from (row, item) hashes.
/// ||f||_p is estimated as median_r |<D(r), f>| / median(|Dp|).
///
/// Two counter modes:
///  * `kExact` — classic sketch; every update writes all rows (Theta(m)
///    state changes). This is the baseline.
///  * `kMorris` — Theorem 3.2: each row splits D into its positive and
///    negative parts; both partial inner products are monotone
///    non-decreasing on insertion-only streams, so each is maintained by a
///    weighted Morris counter. State changes drop to
///    poly(log n, 1/eps, log 1/delta). The paper proves the split loses
///    only (1+eps) accuracy for p < 1 (|<D+,f>| + |<D-,f>| = O(||f||_p));
///    for p >= 1 the mode still runs but the guarantee degrades, matching
///    the paper's scoping of Theorem 3.2 to p in (0, 1].
///
/// The batch kernel memoizes hot items' projection columns (their `rows`
/// p-stable entries) in a direct-mapped, item-keyed cache of ~256 KiB,
/// allocated on the first batch. Entries are pure functions of (seed, row,
/// item), so the memo only saves CPU: like the RNG cursor and the batch
/// buffers it is working memory outside the state model — never tracked,
/// never counted in `peak_allocated_words`, never copied by
/// `RestoreFrom`/`MergeFrom`. The projection of a batch's memo misses is
/// this sketch's pure pre-stage (`PrepareBatch`/`PreparePart`): each
/// distinct missed item gets one column, computed once per batch, and a
/// `ReplicaPipeline` splits those columns across its drain lanes.
class StableSketch : public MergeableSketch, public RestorableSketch {
 public:
  enum class CounterMode { kExact, kMorris };

  /// \param p stability/moment parameter in (0, 2].
  /// \param rows number of independent sketch rows (variance control).
  /// \param morris_a Morris growth parameter for kMorris mode (ignored in
  ///        kExact mode).
  /// \param shared_accountant when non-null, state is accounted there and
  ///        the accountant's owner drives BeginUpdate.
  StableSketch(double p, size_t rows, uint64_t seed, CounterMode mode,
               double morris_a = 1e-3,
               StateAccountant* shared_accountant = nullptr);

  void Update(Item item) override;

  /// \brief Plans the pre-stage of `UpdateBatch(items, n)`: reads the
  /// memo for the whole batch, gives each distinct missed item one column
  /// (first-occurrence order) and splits those columns into at most
  /// `parts` equal contiguous ranges. Returns 0 — no pre-stage — when
  /// every item hits the memo or the accountant is shared.
  size_t PrepareBatch(const Item* items, size_t n, size_t parts) override;

  /// \brief Computes part `k`'s columns: the p-stable entries of its
  /// missed items, written only into their own columns.
  void PreparePart(size_t k) override;

  /// \brief Batch kernel for owned-accountant sketches, both modes: takes
  /// each item's projection column from the planned pre-stage (planning
  /// and running it itself when no complete plan for `(items, n)`
  /// exists), then applies the columns in arrival order — row
  /// accumulations in `kExact` mode, the positive/negative Morris `Add`s
  /// in (item, row) order in `kMorris` mode, so the coin sequence is the
  /// scalar one — with accounting reconciled once per 256-item chunk.
  /// After the last `Add` it memoizes the batch's distinct misses in
  /// first-occurrence order, so the memo is never written while a part
  /// reads it or a column points into it. Bitwise identical to the scalar
  /// loop. A sketch on a shared accountant (whose owner drives
  /// `BeginUpdate` around each item) keeps the scalar path.
  void UpdateBatch(const Item* items, size_t n) override;

  /// \brief Folds an identically-configured replica (same p, rows, seed,
  /// mode, Morris growth) into this sketch. In `kExact` mode the row
  /// accumulators are linear, so the merge is exact. In `kMorris` mode the
  /// positive/negative partial inner products are monotone sums, so each
  /// pair of Morris counters merges via `MorrisCounter::Merge` — the
  /// combined estimate stays unbiased at the cost of one extra rounding
  /// variance term per merge.
  Status MergeFrom(const Sketch& other) override;

  /// \brief Overwrites this sketch's state with another's (same p, rows,
  /// seed, mode, Morris growth), exactly. Unlike `MergeFrom` — whose
  /// Morris-mode combine consumes randomness and rounds probabilistically
  /// — a restore copies counter levels verbatim *and* the pseudo-random
  /// cursor, so a restored replica flips the same future coins as the
  /// source: the property kill-and-recover bitwise equivalence rests on.
  /// Unchanged words are suppressed; in kMorris mode almost nothing
  /// changes between checkpoints, which is why this sketch's delta
  /// checkpoints are nearly free.
  Status RestoreFrom(const Sketch& source) override;

  /// \brief Delta restore: copies only counters/accumulators whose cells
  /// are dirty (plus the untracked RNG cursor, which is free wear-wise).
  Status RestoreDirty(const Sketch& source,
                      const DirtyTracker& dirty) override;

  /// \brief Every tracked word's bits in allocation order, read without
  /// accounting: the row accumulators in `kExact` mode, the interleaved
  /// positive/negative Morris levels in `kMorris` mode. Two sketches with
  /// equal words (and equal RNG cursors) are in the same state.
  std::vector<uint64_t> TrackedWords() const;

  /// \brief Estimate of ||f||_p.
  double EstimateLp() const;

  /// \brief Stable sketches answer norm queries, not point queries; 0 is
  /// the trivially valid underestimate (see `Sketch::EstimateFrequency`).
  double EstimateFrequency(Item /*item*/) const override { return 0.0; }

  /// \brief Median over rows of |row value|, uncalibrated. The entropy
  /// estimator calibrates all its nodes from one shared Monte Carlo sample
  /// set (common random numbers), so it needs the raw statistic.
  double MedianAbsRowValue() const;

  /// \brief Estimate of Fp = ||f||_p^p.
  double EstimateFp() const;

  /// \brief Median of |X| for X standard p-stable, estimated once per
  /// process by seeded Monte Carlo and cached (the sketch's scale factor).
  static double MedianAbsPStable(double p);

  double p() const { return p_; }
  size_t rows() const { return rows_; }
  CounterMode mode() const { return mode_; }

  const StateAccountant& accountant() const override { return *accountant_; }
  StateAccountant* mutable_accountant() override { return accountant_; }

 private:
  /// p-stable entry D(r)[item], derived from hashes (same value every time
  /// the pair is visited).
  double Entry(size_t row, Item item) const;

  // Merge/restore compatibility: same p, rows, seed, counter mode and
  // Morris growth.
  bool SameConfig(const StableSketch& other) const {
    return other.p_ == p_ && other.rows_ == rows_ && other.seed_ == seed_ &&
           other.mode_ == mode_ && other.morris_a_ == morris_a_;
  }

  double p_;
  size_t rows_;
  uint64_t seed_;
  CounterMode mode_;
  double morris_a_;
  std::unique_ptr<StateAccountant> owned_accountant_;
  StateAccountant* accountant_;
  Rng rng_;
  TabulationHash theta_hash_;
  TabulationHash r_hash_;
  // kExact state: one tracked accumulator per row.
  std::unique_ptr<TrackedArray<double>> exact_rows_;
  // kMorris state: positive/negative monotone parts per row.
  std::vector<MorrisCounter> pos_counters_;
  std::vector<MorrisCounter> neg_counters_;
  // Reused batch-kernel scratch (bounded by the internal chunk size).
  BatchUpdateScratch batch_scratch_;
  // Projection columns, `rows_` entries each: memo slot s (holding
  // memo_items_[s]'s entries) at column s, then the current batch's
  // distinct miss k at column slots + k. Both empty until the first plan.
  std::vector<Item> memo_items_;
  std::vector<double> columns_;
  // The plan of the next UpdateBatch (see PrepareBatch): item i's column,
  // the distinct missed items, and one flag per part, which the part sets
  // once its columns are written. miss_table_ is the planner's
  // open-addressing dedup table (miss index + 1, 0 = empty).
  bool planned_ = false;
  const Item* plan_items_ = nullptr;
  size_t plan_n_ = 0;
  std::vector<uint32_t> batch_column_;
  std::vector<Item> batch_misses_;
  std::vector<uint32_t> miss_table_;
  std::vector<uint8_t> part_done_;
};

}  // namespace fewstate

#endif  // FEWSTATE_BASELINES_STABLE_SKETCH_H_
