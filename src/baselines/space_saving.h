#ifndef FEWSTATE_BASELINES_SPACE_SAVING_H_
#define FEWSTATE_BASELINES_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/mergeable.h"
#include "common/status.h"
#include "common/stream_types.h"
#include "state/state_accountant.h"

namespace fewstate {

/// \brief SpaceSaving [MAA05] (Table 1 row 3): deterministic L1 top-k /
/// heavy hitters with overestimates.
///
/// Keeps at most k (item, count, overestimation) triples; when a new item
/// arrives and the summary is full, a minimum-count entry is replaced and
/// its count inherited. Every update increments some counter, so the
/// state-change count is Theta(m).
///
/// The summary is Metwally's Stream-Summary on flat arrays: k slots, an
/// open-addressing item -> slot index, and one bucket per distinct count
/// holding its slots as an intrusive doubly-linked list, the buckets
/// linked in ascending count order with both ends kept, so eviction reads
/// the lowest bucket and a top-k query walks down from the highest.
/// `Update` is O(1) and allocates nothing once the summary is full; the
/// arrays grow lazily, so building a summary allocates nothing. Ties are
/// fixed: the victim is, among the minimum-count entries, the one that
/// reached that count earliest (each bucket lists its slots in the order
/// they reached its count).
///
/// Write accounting is per update, not per slot: every write is charged
/// to the first slot's three words (item at `cells_base_`, count at +1,
/// error at +2), whichever slot changed. Word counts are exact, but
/// per-cell wear, dirty sets and cache-line absorption describe three
/// hot words instead of the slot that moved. This is an open fault (see
/// ROADMAP item 2); charging real slot addresses raises the benchmark's
/// cached device writes, so it is left to its own change.
class SpaceSaving : public MergeableSketch, public CandidateEnumerable {
 public:
  /// \brief Creates a summary with capacity `k >= 1` counters.
  explicit SpaceSaving(size_t k);

  void Update(Item item) override;

  /// \brief Standard practical SpaceSaving combine: counts and error
  /// bounds of common items add, other entries are inserted, then the
  /// union is pruned back to the k largest counts. Source entries are
  /// taken in the source's eviction order (ascending count, earliest
  /// first) and each one it touches reaches its new count in that order;
  /// pruning evicts by the same tie rule as `Update`. When the two
  /// summaries saw item-disjoint substreams — exactly the `ShardedEngine`
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
    out->reserve(out->size() + slots_.size());
    for (const Slot& slot : slots_) out->push_back(slot.item);
  }

  /// \brief Walks the count buckets down from the largest until at least
  /// `k` items are taken, always finishing the current bucket, so every
  /// entry tied with the k-th largest count is in. O(k + buckets walked).
  void AppendTopCandidates(size_t k, std::vector<Item>* out) const override;

  /// \brief Smallest tracked count (0 while the summary is not full).
  uint64_t min_count() const;

  size_t size() const { return slots_.size(); }
  size_t capacity() const { return k_; }

  const StateAccountant& accountant() const override { return accountant_; }
  StateAccountant* mutable_accountant() override { return &accountant_; }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  struct Slot {
    Item item;
    uint64_t error;   // overestimation bound inherited at replacement
    uint32_t bucket;  // the bucket of this slot's count
    uint32_t prev;    // neighbours in the bucket, earliest first
    uint32_t next;
  };

  struct Bucket {
    uint64_t count;
    uint32_t head;  // slot that reached `count` earliest: the next victim
    uint32_t tail;
    uint32_t prev;  // neighbouring buckets, ascending count
    uint32_t next;  // (for a free bucket: the next free bucket)
  };

  struct IndexEntry {
    Item item;
    uint32_t slot;  // kNone = empty
  };

  size_t k_;
  StateAccountant accountant_;
  uint64_t cells_base_;
  std::vector<Slot> slots_;
  std::vector<Bucket> buckets_;
  uint32_t min_bucket_ = kNone;   // lowest count; kNone while empty
  uint32_t max_bucket_ = kNone;   // highest count; kNone while empty
  uint32_t free_bucket_ = kNone;  // recycled bucket list
  std::vector<IndexEntry> index_;  // power-of-two size, load <= 1/2
  int index_shift_ = 64;

  size_t Home(Item item) const {
    return static_cast<size_t>((item * 0x9E3779B97F4A7C15ull) >>
                               index_shift_);
  }
  uint32_t Find(Item item) const;
  void IndexInsert(Item item, uint32_t slot);
  void IndexErase(Item item);
  void RebuildIndex(size_t entries);

  uint32_t NewBucket(uint64_t count, uint32_t prev, uint32_t next);
  void FreeBucket(uint32_t bucket);
  void Append(uint32_t bucket, uint32_t slot);
  void Detach(uint32_t slot);
  void Increment(uint32_t slot);
  uint32_t AddSlot(Item item, uint64_t error);

  /// Calls `fn(slot, count)` for every entry in eviction order: ascending
  /// count, and within a count the order in which entries reached it.
  template <typename Fn>
  void ForEachInEvictionOrder(Fn&& fn) const;
};

}  // namespace fewstate

#endif  // FEWSTATE_BASELINES_SPACE_SAVING_H_
