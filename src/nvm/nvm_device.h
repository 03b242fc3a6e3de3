#ifndef FEWSTATE_NVM_NVM_DEVICE_H_
#define FEWSTATE_NVM_NVM_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace fewstate {

/// \brief Cost/endurance parameters of a simulated non-volatile memory.
///
/// Defaults are representative of phase-change memory as surveyed in the
/// paper's motivation (§1.1): writes cost roughly an order of magnitude
/// more energy and latency than reads [LIMB09, QGR11], and a cell wears
/// out after 1e8 writes (the low end of [MSCT14]'s 1e8–1e12 range; NAND
/// flash would be 1e4–1e6 [BT11]).
struct NvmConfig {
  uint64_t num_cells = 1 << 20;     ///< device size in words
  double read_energy_nj = 1.0;      ///< energy per word read (nanojoule)
  double write_energy_nj = 10.0;    ///< energy per word write
  double read_latency_ns = 50.0;    ///< latency per word read
  double write_latency_ns = 500.0;  ///< latency per word write
  uint64_t endurance = 100000000;   ///< writes before a cell wears out

  /// \brief Validates parameter ranges.
  Status Validate() const;
};

/// \brief Word-addressable simulated NVM device with per-cell wear.
///
/// The device tracks, for every cell, how many times it has been written.
/// A cell whose write count reaches `endurance` is worn out; the device is
/// considered failed once any cell wears out (without wear leveling) —
/// which is exactly why both wear-leveling (remapping) and write-frugal
/// algorithms (this paper) matter.
class NvmDevice {
 public:
  explicit NvmDevice(const NvmConfig& config);

  /// \brief Records `count` reads at once (reads don't wear cells, so only
  /// the aggregate matters for energy/latency).
  void ReadBulk(uint64_t count) { total_reads_ += count; }

  /// \brief Records a write of `cell` (mod device size).
  void Write(uint64_t cell) { WriteSpan(&cell, 1); }

  /// \brief Records a write of each of `cells[0, n)`, as `n` `Write`s
  /// would, with the max wear and worn-out count held in locals (which a
  /// wear store cannot alias) for the whole span.
  void WriteSpan(const uint64_t* cells, size_t n) {
    uint64_t* const wear = wear_.data();
    const uint64_t num_cells = config_.num_cells;
    const uint64_t endurance = config_.endurance;
    uint64_t max_wear = max_cell_wear_;
    uint64_t worn = worn_out_cells_;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t cell = cells[i];
      const uint64_t w = ++wear[cell < num_cells ? cell : cell % num_cells];
      max_wear = w > max_wear ? w : max_wear;
      worn += w == endurance ? 1 : 0;
    }
    total_writes_ += n;
    max_cell_wear_ = max_wear;
    worn_out_cells_ = worn;
  }

  /// \brief Total writes across all cells.
  uint64_t total_writes() const { return total_writes_; }

  /// \brief Total reads across all cells.
  uint64_t total_reads() const { return total_reads_; }

  /// \brief Write count of the most-worn cell.
  uint64_t max_cell_wear() const { return max_cell_wear_; }

  /// \brief Number of cells at or past the endurance limit.
  uint64_t worn_out_cells() const { return worn_out_cells_; }

  /// \brief True iff some cell has reached the endurance limit.
  bool failed() const { return worn_out_cells_ > 0; }

  /// \brief Total energy consumed, in nanojoules.
  double energy_nj() const;

  /// \brief Total memory-access latency, in nanoseconds (serial model).
  double latency_ns() const;

  /// \brief Remaining lifetime fraction of the most-worn cell in [0, 1].
  double lifetime_remaining() const;

  /// \brief Wear imbalance: max cell wear / mean cell wear (1.0 = perfectly
  /// level; large = one hot cell will kill the device early).
  double wear_imbalance() const;

  const NvmConfig& config() const { return config_; }
  const std::vector<uint64_t>& cell_wear() const { return wear_; }

 private:
  NvmConfig config_;
  std::vector<uint64_t> wear_;
  uint64_t total_writes_ = 0;
  uint64_t total_reads_ = 0;
  uint64_t max_cell_wear_ = 0;
  uint64_t worn_out_cells_ = 0;
};

}  // namespace fewstate

#endif  // FEWSTATE_NVM_NVM_DEVICE_H_
