#ifndef FEWSTATE_BASELINES_SPACE_SAVING_H_
#define FEWSTATE_BASELINES_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/mergeable.h"
#include "common/status.h"
#include "common/stream_types.h"
#include "state/state_accountant.h"

namespace fewstate {

/// \brief SpaceSaving [MAA05] (Table 1 row 3): deterministic L1 top-k /
/// heavy hitters with overestimates.
///
/// Keeps exactly k (item, count, overestimation) triples; when a new item
/// arrives and the summary is full, a minimum-count entry is replaced and
/// its count inherited. Every update increments some counter, so the
/// state-change count is Theta(m).
class SpaceSaving : public MergeableSketch, public CandidateEnumerable {
 public:
  /// \brief Creates a summary with capacity `k >= 1` counters.
  explicit SpaceSaving(size_t k);

  void Update(Item item) override;

  /// \brief Standard practical SpaceSaving combine: counts and error
  /// bounds of common items add, other entries are inserted, then the
  /// union is pruned back to the k largest counts. When the two summaries
  /// saw item-disjoint substreams — exactly the `ShardedEngine`
  /// hash-partition shape — every estimate (tracked, or untracked via
  /// `min_count()`, which is >= any pruned entry's count) remains an
  /// overestimate of the item's combined frequency. For overlapping
  /// streams an item tracked on only one side can undershoot by at most
  /// the other summary's `min_count()`.
  Status MergeFrom(const Sketch& other) override;

  /// \brief Overestimate of the frequency of `item` (min count if not
  /// tracked, matching the classic guarantee f_j <= est <= f_j + min).
  double EstimateFrequency(Item item) const override;

  /// \brief Items whose tracked count >= `threshold`.
  std::vector<HeavyHitter> HeavyHitters(double threshold) const;

  /// \brief Appends the tracked item identities (at most `capacity()`),
  /// the candidate set for `TopK`/`HeavyHitters` view queries.
  void AppendCandidates(std::vector<Item>* out) const override {
    out->reserve(out->size() + counts_.size());
    for (const auto& entry : counts_) out->push_back(entry.first);
  }

  /// \brief Smallest tracked count (0 while the summary is not full).
  uint64_t min_count() const;

  size_t size() const { return counts_.size(); }
  size_t capacity() const { return k_; }

  const StateAccountant& accountant() const override { return accountant_; }
  StateAccountant* mutable_accountant() override { return &accountant_; }

 private:
  struct Entry {
    uint64_t count = 0;
    uint64_t error = 0;  // overestimation bound inherited at replacement
  };

  size_t k_;
  StateAccountant accountant_;
  uint64_t cells_base_;
  std::unordered_map<Item, Entry> counts_;
  // count -> items holding that count; supports O(log k) minimum
  // replacement without scanning.
  std::map<uint64_t, std::unordered_set<Item>> count_buckets_;

  void RemoveFromBucket(uint64_t count, Item item);
};

}  // namespace fewstate

#endif  // FEWSTATE_BASELINES_SPACE_SAVING_H_
