#ifndef FEWSTATE_NVM_CACHE_TIER_H_
#define FEWSTATE_NVM_CACHE_TIER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace fewstate {

/// \brief Geometry of the optional DRAM write-back cache in front of a
/// simulated NVM device. Plain data so engines can copy it into per-shard
/// replicas alongside the `NvmSpec` it rides on.
///
/// `sets == 0` (the default) disables the tier entirely: the cost path is
/// then bitwise-identical to the uncached path. `sets == 1` is a fully
/// associative cache of `ways` lines — the geometry the differential
/// oracle test pins against a brute-force stack model. `sets` and
/// `line_words` must be powers of two: like a hardware cache, the tier
/// takes a word's line offset, tag and set from bit slices of its
/// address, with no division on the write path.
struct CacheSpec {
  uint64_t sets = 0;       ///< cache sets, a power of two; 0 = no cache tier
  uint32_t ways = 4;       ///< lines per set (LRU within the set)
  uint32_t line_words = 8;  ///< words per line: 1, 2, 4, ..., 64 (dirty mask)
  /// Depth cap on the reuse-distance stack (0 disables reuse tracking).
  /// The stack is O(depth) per write: a probe (16 sets x 4 ways x 8
  /// words, Zipf(1.1) over 2^16 cells, 4*10^6 writes) priced a write at
  /// 738–1 372 ns with the default cap against 33–45 ns with tracking off,
  /// so set 0 unless the reuse histogram is wanted.
  uint64_t reuse_stack_max = 4096;

  /// \brief True iff a cache tier should be constructed at all.
  bool enabled() const { return sets > 0; }

  /// \brief Total cache capacity in words.
  uint64_t capacity_words() const {
    return sets * static_cast<uint64_t>(ways) * line_words;
  }

  /// \brief Validates the geometry (no-op when disabled): `ways >= 1`,
  /// `sets` a power of two, `line_words` a power of two in [1, 64].
  Status Validate() const;
};

/// \brief Traffic accounting for one cache tier. Every counter is
/// maintained *by construction* so that at any instant
/// `absorbed_writes + writebacks_pending + writebacks == total_writes`:
/// a write to an already-dirty word is absorbed, a write dirtying a clean
/// word becomes pending, and evictions/flushes move pending words to
/// `writebacks` one-for-one. After `Flush()`, `writebacks_pending == 0`,
/// so the absorbed-write fraction is `absorbed_writes / total_writes`.
struct CacheStats {
  uint64_t total_writes = 0;     ///< word writes offered to the tier
  uint64_t hits = 0;             ///< writes that found their line resident
  uint64_t misses = 0;           ///< writes that allocated a line
  uint64_t absorbed_writes = 0;  ///< writes to an already-dirty word
  uint64_t dirty_evictions = 0;  ///< evicted lines carrying dirty words
  uint64_t clean_evictions = 0;  ///< evicted lines with no dirty words
  uint64_t writebacks = 0;       ///< dirty words written back to NVM
  uint64_t writebacks_pending = 0;  ///< dirty words still resident
  uint64_t flushes = 0;          ///< Flush() calls

  /// log2 reuse-distance histogram over *line* accesses: bucket 0 counts
  /// distance 0 (back-to-back reuse), bucket i counts distances in
  /// [2^(i-1), 2^i). Matches `Histogram::BucketOf` in src/obs so the
  /// buckets replay losslessly into a `fewstate_cache_reuse_distance`
  /// histogram.
  static constexpr int kReuseBuckets = 65;
  std::array<uint64_t, kReuseBuckets> reuse_hist{};
  /// Line accesses with no recorded prior use (first touch, or the prior
  /// use fell off the capped stack) — infinite distance, not bucketed.
  uint64_t reuse_cold = 0;

  /// \brief Histogram bucket for one reuse distance (same rule as
  /// `Histogram::BucketOf`).
  static int ReuseBucketOf(uint64_t distance);

  /// \brief Upper bound (inclusive) of reuse-distance bucket `index`.
  static uint64_t ReuseBucketUpper(int index);

  /// \brief Inclusive upper bound of the bucket containing the median
  /// recorded reuse distance; 0 when nothing was recorded. Cold accesses
  /// are excluded (their distance is infinite).
  uint64_t ReuseP50() const;
};

/// \brief Set-associative, write-back, write-allocate DRAM cache simulated
/// in front of the NVM cost path.
///
/// Word writes land in the cache; NVM wear is charged only when dirty
/// words leave it — on LRU eviction or on `Flush()`. Each line keeps a
/// per-word dirty mask, so a write-back touches exactly the words that
/// were actually dirtied (never the whole line); cached per-cell wear is
/// therefore ≤ uncached wear cell-for-cell once flushed. A Mattson stack
/// records the reuse distance of every line access into a log2 histogram.
///
/// The tier holds *logical* cells: wear-leveling remaps at write-back
/// time, downstream of the cache, exactly as a DRAM buffer would sit in
/// front of the device's remapping layer. Write-backs are emitted in a
/// canonical order (ascending word offset within a line; ascending
/// set/way during Flush) so runs are deterministic.
///
/// The write path is division-free: offset, tag and set are shifts and
/// masks of the cell, and one pass over the set's ways finds both the hit
/// way and the LRU victim without data-dependent branches. It is not
/// inlined: GCC emits `AccessForWrite` out of line, and `LiveNvmSink`'s
/// write paths call it once per word.
class CacheTier {
 public:
  /// \brief Builds the tier. `spec` must be enabled and validated.
  explicit CacheTier(const CacheSpec& spec);

  /// \brief Records a word write of logical `cell`. Calls
  /// `writeback(victim_cell)` once per dirty word of any evicted line.
  template <typename WB>
  void Write(uint64_t cell, WB&& writeback) {
    const Eviction ev = AccessForWrite(cell);
    if (ev.dirty_mask != 0) EmitLine(ev, writeback);
  }

  /// \brief Writes back every dirty word; lines stay resident but clean.
  /// Idempotent: a second flush emits nothing.
  template <typename WB>
  void Flush(WB&& writeback) {
    ++stats_.flushes;
    for (Line& line : lines_) {
      if (line.dirty_mask == 0) continue;  // clean or never used
      Eviction ev;
      ev.first_word = line.tag << line_shift_;
      ev.dirty_mask = line.dirty_mask;
      RetireDirty(line);
      EmitLine(ev, writeback);
    }
  }

  /// \brief True iff no dirty words remain resident (reports are exact).
  bool flushed() const { return stats_.writebacks_pending == 0; }

  /// \brief Traffic counters and reuse-distance histogram so far.
  const CacheStats& stats() const { return stats_; }

  /// \brief The geometry this tier was built from.
  const CacheSpec& spec() const { return spec_; }

 private:
  struct Line {
    uint64_t tag = 0;         // line index (cell >> line_shift_)
    uint64_t dirty_mask = 0;  // bit w set = word w dirty
    uint64_t stamp = 0;       // global use counter; 0 = never valid
  };

  /// One evicted (or flushed) line's write-back work.
  struct Eviction {
    uint64_t first_word = 0;  // logical cell of word 0 in the line
    uint64_t dirty_mask = 0;  // 0 = nothing to write back
  };

  Eviction AccessForWrite(uint64_t cell) {
    ++stats_.total_writes;
    const uint64_t tag = cell >> line_shift_;
    const uint64_t word_bit = uint64_t{1} << (cell & offset_mask_);
    Line* const base = &lines_[(tag & set_mask_) * ways_];
    if (spec_.reuse_stack_max != 0) RecordReuse(tag);

    // One pass finds the hit way (at most one valid line holds `tag`) and
    // the victim: the smallest stamp, first way on ties. Never-valid
    // lines keep stamp 0, so the first of them wins over any LRU line.
    uint32_t hit = ways_;
    uint32_t victim = 0;
    uint64_t victim_stamp = base[0].stamp;
    for (uint32_t w = 0; w < ways_; ++w) {
      const Line& line = base[w];
      hit = (line.stamp != 0 && line.tag == tag) ? w : hit;
      const bool older = line.stamp < victim_stamp;
      victim = older ? w : victim;
      victim_stamp = older ? line.stamp : victim_stamp;
    }

    if (hit != ways_) {
      Line& line = base[hit];
      ++stats_.hits;
      if (line.dirty_mask & word_bit) {
        ++stats_.absorbed_writes;  // the word was dirty: write coalesced
      } else {
        line.dirty_mask |= word_bit;
        ++stats_.writebacks_pending;
      }
      line.stamp = ++use_counter_;
      return Eviction{};
    }

    // Miss: allocate (write-allocate), evicting the LRU way if the set is
    // full.
    ++stats_.misses;
    Line& line = base[victim];
    Eviction ev;
    if (line.stamp != 0) {
      if (line.dirty_mask != 0) {
        ++stats_.dirty_evictions;
        ev.first_word = line.tag << line_shift_;
        ev.dirty_mask = line.dirty_mask;
        RetireDirty(line);
      } else {
        ++stats_.clean_evictions;
      }
    }
    line.tag = tag;
    line.dirty_mask = word_bit;
    line.stamp = ++use_counter_;
    ++stats_.writebacks_pending;
    return ev;
  }

  void RecordReuse(uint64_t line_tag);

  void RetireDirty(Line& line) {
    const uint64_t dirty_words =
        static_cast<uint64_t>(__builtin_popcountll(line.dirty_mask));
    stats_.writebacks += dirty_words;
    stats_.writebacks_pending -= dirty_words;
    line.dirty_mask = 0;
  }

  /// Emits the dirty words of `ev` in ascending word order.
  template <typename WB>
  static void EmitLine(const Eviction& ev, WB& writeback) {
    for (uint64_t mask = ev.dirty_mask; mask != 0; mask &= mask - 1) {
      writeback(ev.first_word +
                static_cast<uint64_t>(__builtin_ctzll(mask)));
    }
  }

  CacheSpec spec_;
  uint32_t line_shift_;    // log2(line_words)
  uint64_t offset_mask_;   // line_words - 1
  uint64_t set_mask_;      // sets - 1
  uint32_t ways_;
  std::vector<Line> lines_;  // sets * ways, set-major
  uint64_t use_counter_ = 0;
  /// Mattson reuse stack over line tags, MRU at the back, capped at
  /// `spec_.reuse_stack_max` entries.
  std::vector<uint64_t> reuse_stack_;
  CacheStats stats_;
};

}  // namespace fewstate

#endif  // FEWSTATE_NVM_CACHE_TIER_H_
