#ifndef FEWSTATE_STATE_STATE_ACCOUNTANT_H_
#define FEWSTATE_STATE_STATE_ACCOUNTANT_H_

#include <cstdint>
#include <vector>

#include "state/write_sink.h"

namespace fewstate {

/// \brief Per-batch write-reconciliation scratch for `UpdateBatch` kernels.
///
/// A batch kernel mirrors the scalar accounting calls against this scratch
/// instead of the accountant — `BeginItem()` where the scalar path calls
/// `StateAccountant::BeginUpdate()`, `Write()` / `SuppressedWrite()` /
/// `Read()` where it calls the matching Record* method — then flushes once
/// with `StateAccountant::ApplyBatch()` (grid kernels settle a whole chunk
/// with `AllChangedRows()`). The scratch preserves everything
/// the scalar path would have produced: per-update dirtiness (for the
/// paper's state-change metric), aggregate word counts, and — only when the
/// accountant says `needs_cell_addresses()` — the program-order list of
/// `BatchWrite` (update, cell) records needed to replay exact `WriteSink`
/// traffic with scalar epoch numbering. Reuse one scratch across batches;
/// `Begin()` resets it without releasing the record buffer.
class BatchUpdateScratch {
 public:
  /// \brief Starts a new batch. `collect_cells` must be
  /// `accountant->needs_cell_addresses()`; when false, Write() skips
  /// recording addresses and ApplyBatch reconciles aggregates only.
  void Begin(bool collect_cells) {
    writes_.clear();
    collect_cells_ = collect_cells;
    items_begun_ = 0;
    current_dirty_ = false;
    changed_before_current_ = 0;
    word_writes_ = 0;
    suppressed_words_ = 0;
    read_words_ = 0;
  }

  /// \brief Marks the start of one in-batch update (scalar BeginUpdate).
  void BeginItem() {
    if (items_begun_ > 0 && current_dirty_) ++changed_before_current_;
    current_dirty_ = false;
    ++items_begun_;
  }

  /// \brief Records `words` changed words at `cell` for the current update
  /// (scalar RecordWrite).
  void Write(uint64_t cell, uint64_t words = 1) {
    current_dirty_ = true;
    word_writes_ += words;
    if (collect_cells_) {
      const uint32_t index = static_cast<uint32_t>(items_begun_ - 1);
      for (uint64_t w = 0; w < words; ++w) {
        writes_.push_back(BatchWrite{cell + w, index});
      }
    }
  }

  /// \brief Grid settle: `count` updates that each change one word per
  /// row of a `depth`-row grid, update i writing `base + d * width +
  /// idx[d * count + i]` in row d. O(1) without cell collection; with it,
  /// one pass records exactly what BeginItem() and `depth` Write()s per
  /// update would, rows ascending within an update.
  void AllChangedRows(uint64_t count, uint64_t depth, uint64_t base,
                      uint64_t width, const uint64_t* idx) {
    if (count == 0) return;
    if (collect_cells_) {
      const uint64_t first = items_begun_;
      writes_.resize(writes_.size() + count * depth);
      BatchWrite* out = writes_.data() + writes_.size() - count * depth;
      for (uint64_t i = 0; i < count; ++i) {
        const uint32_t index = static_cast<uint32_t>(first + i);
        for (uint64_t d = 0; d < depth; ++d) {
          *out++ = BatchWrite{base + d * width + idx[d * count + i], index};
        }
      }
    }
    if (items_begun_ > 0 && current_dirty_) ++changed_before_current_;
    changed_before_current_ += count - 1;
    current_dirty_ = true;
    items_begun_ += count;
    word_writes_ += count * depth;
  }

  /// \brief Records `words` writes that stored the already-present value.
  void SuppressedWrite(uint64_t words = 1) { suppressed_words_ += words; }

  /// \brief Records `words` words read.
  void Read(uint64_t words = 1) { read_words_ += words; }

  /// \brief Updates begun in this batch.
  uint64_t items_begun() const { return items_begun_; }

  /// \brief Finished in-batch updates (all but the last) that changed state.
  uint64_t changed_before_last() const { return changed_before_current_; }

  /// \brief Whether the last (still-pending) update changed state.
  bool last_changed() const { return current_dirty_; }

  /// \brief Total changed words in the batch.
  uint64_t word_writes() const { return word_writes_; }

  /// \brief Total suppressed words in the batch.
  uint64_t suppressed_words() const { return suppressed_words_; }

  /// \brief Total words read in the batch.
  uint64_t read_words() const { return read_words_; }

  /// \brief Program-order write records (empty unless collecting cells).
  const std::vector<BatchWrite>& writes() const { return writes_; }

 private:
  std::vector<BatchWrite> writes_;
  bool collect_cells_ = false;
  uint64_t items_begun_ = 0;
  bool current_dirty_ = false;
  uint64_t changed_before_current_ = 0;
  uint64_t word_writes_ = 0;
  uint64_t suppressed_words_ = 0;
  uint64_t read_words_ = 0;
};

/// \brief Mechanisation of the paper's state-change complexity measure
/// (§1.5 "Model").
///
/// The paper defines: for an algorithm with memory state sigma_t after
/// update t, the indicator X_t = 1 iff sigma_t != sigma_{t-1}, and the
/// number of internal state changes is sum_t X_t. This class tracks that
/// metric exactly — algorithms call `BeginUpdate()` once per stream update
/// and route every mutation of algorithmic state through `RecordWrite()`
/// (typically via `TrackedCell`/`TrackedArray`). A write that stores the
/// value already present is *not* a state change (sigma is unchanged) and
/// should be reported via `RecordSuppressedWrite()`.
///
/// Besides the paper metric, the accountant tracks finer-grained counts
/// (total word writes, reads, peak allocated words) used by the NVM cost
/// model and the space benchmarks.
class StateAccountant {
 public:
  StateAccountant() = default;

  /// \brief Marks the start of processing one stream update. Writes made
  /// before the first BeginUpdate are attributed to epoch 0
  /// (initialisation) and do not count toward the paper metric.
  void BeginUpdate() {
    if (dirty_ && epoch_ > 0) ++updates_with_change_;
    dirty_ = false;  // epoch-0 (initialisation) writes are free
    ++epoch_;
  }

  /// \brief Records a mutation of `words` words of algorithmic state
  /// (value actually changed). Each word is streamed to the attached
  /// `WriteSink` (if any) as it happens.
  void RecordWrite(uint64_t cell, uint64_t words = 1) {
    dirty_ = true;
    word_writes_ += words;
    if (sink_ != nullptr) {
      for (uint64_t w = 0; w < words; ++w) sink_->OnWrite(epoch_, cell + w);
    }
  }

  /// \brief Records a write that stored the already-present value; this is
  /// not a state change under the paper's definition.
  void RecordSuppressedWrite(uint64_t words = 1) {
    suppressed_writes_ += words;
  }

  /// \brief Records `words` words read from state. Reads never wear cells;
  /// the aggregate count is forwarded to the sink for energy/latency
  /// pricing on asymmetric-cost memories.
  void RecordRead(uint64_t words = 1) {
    word_reads_ += words;
    if (sink_ != nullptr) sink_->OnBulkReads(words);
  }

  /// \brief Reserves `words` logical cells and returns the base address.
  /// Tracks peak allocation for the space experiments.
  uint64_t AllocateCells(uint64_t words) {
    uint64_t base = allocated_words_;
    allocated_words_ += words;
    if (allocated_words_ > peak_allocated_words_) {
      peak_allocated_words_ = allocated_words_;
    }
    return base;
  }

  /// \brief Releases `words` cells (space accounting only). This lowers
  /// the bump pointer, so the next `AllocateCells` can hand out an address
  /// that still belongs to a live cell — write logs, per-cell wear and
  /// dirty sets then merge two distinct words (a known allocator bug, not
  /// yet fixed). Addresses always stay below `peak_allocated_words()`.
  void ReleaseCells(uint64_t words) {
    allocated_words_ = (words > allocated_words_) ? 0 : allocated_words_ - words;
  }

  /// \brief Flushes one batch of updates mirrored into `scratch`, leaving
  /// the accountant (and any attached sink) bitwise as if the scalar
  /// BeginUpdate/Record* sequence had run update by update: the pre-batch
  /// pending update is settled by the batch's first BeginItem, every
  /// finished in-batch update with a write counts toward the paper metric,
  /// the last update's dirtiness stays pending, and write records reach
  /// the sink as one `OnWriteSpan` — program order, scalar epoch numbers
  /// (`base_epoch + update_index + 1`). Reads
  /// are forwarded as one aggregate `OnBulkReads` (sinks price reads
  /// additively, so aggregation is exact).
  void ApplyBatch(const BatchUpdateScratch& scratch) {
    const uint64_t n = scratch.items_begun();
    if (n == 0) return;
    if (dirty_ && epoch_ > 0) ++updates_with_change_;
    updates_with_change_ += scratch.changed_before_last();
    dirty_ = scratch.last_changed();
    const uint64_t base_epoch = epoch_;
    epoch_ += n;
    word_writes_ += scratch.word_writes();
    suppressed_writes_ += scratch.suppressed_words();
    word_reads_ += scratch.read_words();
    if (sink_ != nullptr) {
      const std::vector<BatchWrite>& writes = scratch.writes();
      if (!writes.empty()) {
        sink_->OnWriteSpan(base_epoch, writes.data(), writes.size());
      }
      if (scratch.read_words() > 0) sink_->OnBulkReads(scratch.read_words());
    }
  }

  /// \brief True when batch kernels must record per-word cell addresses
  /// into their scratch (a sink is attached and will replay them).
  bool needs_cell_addresses() const { return sink_ != nullptr; }

  /// \brief Attaches (or detaches, with nullptr) a write sink: every
  /// subsequent state-write event streams through it — a recording
  /// `WriteLog`, a `LiveNvmSink` pricing wear on a simulated device as it
  /// happens, or a `TeeSink` composing several.
  void set_write_sink(WriteSink* sink) { sink_ = sink; }

  /// \brief The attached sink, or nullptr.
  WriteSink* write_sink() const { return sink_; }

  /// \brief The paper's metric: number of updates t with sigma_t !=
  /// sigma_{t-1}. Includes the in-flight update if it has already written.
  uint64_t state_changes() const {
    return updates_with_change_ + ((dirty_ && epoch_ > 0) ? 1 : 0);
  }

  /// \brief Total words written (a single update may write many words).
  uint64_t word_writes() const { return word_writes_; }

  /// \brief Words "written back" unchanged (not state changes).
  uint64_t suppressed_writes() const { return suppressed_writes_; }

  /// \brief Total words read.
  uint64_t word_reads() const { return word_reads_; }

  /// \brief Stream updates observed so far.
  uint64_t updates() const { return epoch_; }

  /// \brief Currently allocated state, in words.
  uint64_t allocated_words() const { return allocated_words_; }

  /// \brief High-water mark of allocated state, in words.
  uint64_t peak_allocated_words() const { return peak_allocated_words_; }

 private:
  uint64_t epoch_ = 0;
  bool dirty_ = false;
  uint64_t updates_with_change_ = 0;
  uint64_t word_writes_ = 0;
  uint64_t suppressed_writes_ = 0;
  uint64_t word_reads_ = 0;
  uint64_t allocated_words_ = 0;
  uint64_t peak_allocated_words_ = 0;
  WriteSink* sink_ = nullptr;
};

}  // namespace fewstate

#endif  // FEWSTATE_STATE_STATE_ACCOUNTANT_H_
