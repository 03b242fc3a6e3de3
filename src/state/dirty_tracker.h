#ifndef FEWSTATE_STATE_DIRTY_TRACKER_H_
#define FEWSTATE_STATE_DIRTY_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "state/write_sink.h"

namespace fewstate {

/// \brief A `WriteSink` that records *which* words were touched, not how
/// often — the dirty set behind delta checkpoints and wear-aware
/// checkpoint scheduling.
///
/// Tee one of these alongside a `LiveNvmSink` (or attach it alone) and it
/// accumulates the set of distinct cells written since the last
/// `ClearDirty()`. A delta checkpoint then needs to serialize exactly
/// those words: every cell *not* in the set is guaranteed to hold the same
/// value it held at the previous checkpoint (suppressed writes never reach
/// any sink, so set membership means the value really changed at least
/// once).
///
/// The set is a dense bitmap over cell addresses plus the list of bitmap
/// words made nonzero since the last clear: marking is a bit
/// test-and-set, `ClearDirty()` zeroes only those words, and
/// `SortedCells()` is an ascending bit scan with no sort. The bitmap grows
/// on demand to the highest cell ever written, so memory is one bit per
/// word of address space below that cell. Cells come from
/// `StateAccountant::AllocateCells`, which keeps them below the
/// accountant's `peak_allocated_words()` — about peak state / 64 words of
/// bitmap.
///
/// Like every sink, a tracker belongs to one algorithm instance and is not
/// thread-safe.
class DirtyTracker final : public WriteSink {
 public:
  DirtyTracker() = default;

  /// \brief Marks `cell` dirty (the epoch is irrelevant: the set answers
  /// "changed since last checkpoint", not "when").
  void OnWrite(uint64_t epoch, uint64_t cell) override {
    (void)epoch;
    Mark(cell);
  }

  /// \brief Marks every cell of the span dirty.
  void OnWriteSpan(uint64_t base_epoch, const BatchWrite* writes,
                   size_t n) override {
    (void)base_epoch;
    for (size_t i = 0; i < n; ++i) Mark(writes[i].cell);
  }

  /// \brief Reads never dirty a word; nothing to record.
  void OnBulkReads(uint64_t count) override { (void)count; }

  /// \brief Number of distinct words written since the last clear — the
  /// exact size of the next delta checkpoint.
  uint64_t dirty_words() const { return dirty_words_; }

  /// \brief True iff `cell` was written since the last clear.
  bool Contains(uint64_t cell) const {
    const uint64_t word = cell >> 6;
    return word < bits_.size() && ((bits_[word] >> (cell & 63)) & 1) != 0;
  }

  /// \brief The dirty set in ascending cell order — deterministic
  /// serialization order for delta checkpoints (so recorded write traces
  /// and wear are reproducible run to run).
  std::vector<uint64_t> SortedCells() const {
    std::vector<uint64_t> cells;
    cells.reserve(dirty_words_);
    for (size_t word = 0; word < bits_.size(); ++word) {
      for (uint64_t bits = bits_[word]; bits != 0; bits &= bits - 1) {
        cells.push_back((static_cast<uint64_t>(word) << 6) |
                        static_cast<uint64_t>(__builtin_ctzll(bits)));
      }
    }
    return cells;
  }

  /// \brief Starts a new checkpoint interval: the set empties, membership
  /// answers "since the checkpoint that just completed".
  void ClearDirty() {
    for (size_t word : touched_) bits_[word] = 0;
    touched_.clear();
    dirty_words_ = 0;
  }

 private:
  void Mark(uint64_t cell) {
    const uint64_t word = cell >> 6;
    if (word >= bits_.size()) bits_.resize(static_cast<size_t>(word) + 1, 0);
    uint64_t& bits = bits_[static_cast<size_t>(word)];
    const uint64_t old = bits;
    if (old == 0) touched_.push_back(static_cast<size_t>(word));
    // Branch-free test-and-set: whether a cell is already dirty is data
    // dependent and mispredicts often; a bitmap word's first mark is rare.
    bits = old | (uint64_t{1} << (cell & 63));
    dirty_words_ += ((old >> (cell & 63)) & 1) ^ 1;
  }

  std::vector<uint64_t> bits_;   // bit (cell & 63) of word (cell >> 6)
  std::vector<size_t> touched_;  // bitmap words nonzero since the clear
  uint64_t dirty_words_ = 0;
};

}  // namespace fewstate

#endif  // FEWSTATE_STATE_DIRTY_TRACKER_H_
