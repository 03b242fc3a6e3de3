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
/// oracle test pins against a brute-force stack model.
struct CacheSpec {
  uint64_t sets = 0;       ///< cache sets; 0 = no cache tier
  uint32_t ways = 4;       ///< lines per set (LRU within the set)
  uint32_t line_words = 8;  ///< words per line, 1..64 (per-word dirty mask)
  /// Depth cap on the reuse-distance stack (0 disables reuse tracking —
  /// the stack is O(depth) per write, so unbounded tracking on a large
  /// working set would dominate the simulation).
  uint64_t reuse_stack_max = 4096;

  /// \brief True iff a cache tier should be constructed at all.
  bool enabled() const { return sets > 0; }

  /// \brief Total cache capacity in words.
  uint64_t capacity_words() const {
    return sets * static_cast<uint64_t>(ways) * line_words;
  }

  /// \brief Validates the geometry (no-op when disabled).
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
      if (!line.valid || line.dirty_mask == 0) continue;
      Eviction ev;
      ev.first_word = line.tag * spec_.line_words;
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
    uint64_t tag = 0;         // line index (cell / line_words)
    uint64_t dirty_mask = 0;  // bit w set = word w dirty
    uint64_t stamp = 0;       // global use counter; smallest = LRU victim
    bool valid = false;
  };

  /// One evicted (or flushed) line's write-back work.
  struct Eviction {
    uint64_t first_word = 0;  // logical cell of word 0 in the line
    uint64_t dirty_mask = 0;  // 0 = nothing to write back
  };

  Eviction AccessForWrite(uint64_t cell);
  void RecordReuse(uint64_t line_tag);
  void RetireDirty(Line& line);

  template <typename WB>
  void EmitLine(const Eviction& ev, WB& writeback) {
    for (uint32_t w = 0; w < spec_.line_words; ++w) {
      if ((ev.dirty_mask >> w) & 1u) writeback(ev.first_word + w);
    }
  }

  CacheSpec spec_;
  std::vector<Line> lines_;  // sets * ways, set-major
  uint64_t use_counter_ = 0;
  /// Mattson reuse stack over line tags, MRU at the back, capped at
  /// `spec_.reuse_stack_max` entries.
  std::vector<uint64_t> reuse_stack_;
  CacheStats stats_;
};

}  // namespace fewstate

#endif  // FEWSTATE_NVM_CACHE_TIER_H_
