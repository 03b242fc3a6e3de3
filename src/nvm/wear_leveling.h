#ifndef FEWSTATE_NVM_WEAR_LEVELING_H_
#define FEWSTATE_NVM_WEAR_LEVELING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hashing.h"
#include "state/write_sink.h"

namespace fewstate {

/// \brief How logical state cells map onto physical NVM cells (§1.1: wear
/// leveling [Cha07, CHK07]; later systems minimise total writes instead
/// [BFG+15] — which is the paper's algorithmic angle).
enum class WearLeveling {
  /// Identity mapping: logical cell = physical cell. A hot logical
  /// counter becomes a hot physical cell.
  kDirect,
  /// Start-gap style rotation [QGR11]: the logical->physical mapping is a
  /// rotation that advances by one slot every `rotate_period` writes,
  /// smearing hot logical cells across the device over time.
  kRotating,
  /// Hash-based per-write scatter: each write of a logical cell lands on a
  /// pseudo-random physical cell derived from (logical, write count).
  /// Models the per-cell write-balancing hashing of [EGMP14]; perfect
  /// leveling, but the mapping table itself would cost extra state in a
  /// real system (we charge nothing, making it the most favourable
  /// baseline for write-heavy algorithms).
  kHashed,
};

/// \brief The remapping layer in front of one simulated device: a closed
/// switch over the three `WearLeveling` schemes, carrying the state each
/// one advances per write (rotation offset, per-logical write versions).
class WearLeveler {
 public:
  /// \brief Sized to a device of `num_cells` (> 0). `rotate_period` (> 0
  /// under kRotating) and `hash_seed` are read only by their scheme.
  /// `NvmSpec::Validate` enforces both bounds.
  WearLeveler(WearLeveling leveling, uint64_t num_cells,
              uint64_t rotate_period, uint64_t hash_seed)
      : leveling_(leveling),
        num_cells_(num_cells),
        rotate_period_(rotate_period),
        hash_(hash_seed) {}

  /// \brief Physical cell for a write to `logical`; advances the
  /// scheme's remapping state.
  uint64_t MapWrite(uint64_t logical) {
    switch (leveling_) {
      case WearLeveling::kRotating:
        return MapRotating(logical);
      case WearLeveling::kHashed:
        return MapHashed(logical);
      case WearLeveling::kDirect:
        break;
    }
    return Wrap(logical);
  }

  /// \brief `MapWrite` over a span of writes in order, storing record i's
  /// physical cell in `out[i]`. The scheme is resolved once for the whole
  /// span instead of once per word; the cells stored and the remapping
  /// state left behind are those of the per-word loop.
  void MapSpan(const BatchWrite* writes, size_t n, uint64_t* out) {
    switch (leveling_) {
      case WearLeveling::kRotating:
        for (size_t i = 0; i < n; ++i) out[i] = MapRotating(writes[i].cell);
        return;
      case WearLeveling::kHashed:
        for (size_t i = 0; i < n; ++i) out[i] = MapHashed(writes[i].cell);
        return;
      case WearLeveling::kDirect:
        break;
    }
    for (size_t i = 0; i < n; ++i) out[i] = Wrap(writes[i].cell);
  }

 private:
  // `x % num_cells_` without the division when `x` is already in range
  // (the common case: state rarely outgrows the device).
  uint64_t Wrap(uint64_t x) const {
    return x < num_cells_ ? x : x % num_cells_;
  }

  uint64_t MapRotating(uint64_t logical) {
    const uint64_t physical = Wrap(logical + offset_);
    if (++writes_ % rotate_period_ == 0) {
      offset_ = (offset_ + 1) % num_cells_;
    }
    return physical;
  }

  uint64_t MapHashed(uint64_t logical) {
    // Version the logical cell so successive writes scatter.
    if (logical >= write_counts_.size()) {
      write_counts_.resize(logical + 1, 0);
    }
    const uint64_t version = write_counts_[logical]++;
    return hash_.HashRange(Mix64(logical * 0x9e3779b97f4a7c15ULL + version),
                           num_cells_);
  }

  WearLeveling leveling_;
  uint64_t num_cells_;
  uint64_t rotate_period_;
  uint64_t writes_ = 0;  // kRotating
  uint64_t offset_ = 0;  // kRotating
  TabulationHash hash_;  // kHashed
  std::vector<uint64_t> write_counts_;  // kHashed: per-logical version
};

}  // namespace fewstate

#endif  // FEWSTATE_NVM_WEAR_LEVELING_H_
