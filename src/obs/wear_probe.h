#ifndef FEWSTATE_OBS_WEAR_PROBE_H_
#define FEWSTATE_OBS_WEAR_PROBE_H_

#include <cstdint>

#include "obs/metrics.h"

namespace fewstate {

class NvmDevice;
struct CacheStats;

/// \brief Summary of a device's per-cell write distribution at one
/// instant, computed from `NvmDevice::cell_wear()`.
struct WearStats {
  uint64_t total_writes = 0;   ///< writes across all cells
  uint64_t max_wear = 0;       ///< write count of the most-worn cell
  uint64_t p99_wear = 0;       ///< 99th-percentile wear over written cells
  uint64_t written_cells = 0;  ///< cells written at least once
  uint64_t worn_out_cells = 0;  ///< cells at/past the endurance limit
  double mean_wear = 0.0;      ///< mean wear over written cells
};

/// \brief Scans the device's wear vector and summarizes it. O(cells)
/// plus a partial sort over the written cells — meant for checkpoint
/// boundaries and end-of-run, not per-item paths.
WearStats ComputeWearStats(const NvmDevice& device);

/// \brief Publishes `stats` as gauges under `labels`:
/// `fewstate_nvm_total_writes`, `fewstate_nvm_max_cell_wear`,
/// `fewstate_nvm_p99_cell_wear`, `fewstate_nvm_written_cells`,
/// `fewstate_nvm_worn_out_cells`, `fewstate_nvm_mean_cell_wear`.
void PublishWearStats(MetricsRegistry* registry, const MetricLabels& labels,
                      const WearStats& stats);

/// \brief Publishes a DRAM cache tier's traffic counters as gauges under
/// `labels`: `fewstate_cache_total_writes`, `fewstate_cache_hits`,
/// `fewstate_cache_absorbed_writes`, `fewstate_cache_dirty_evictions`,
/// `fewstate_cache_writebacks`, `fewstate_cache_reuse_cold`. Meant for
/// flushed stats (end of run): `writebacks_pending` is deliberately not
/// exported — it is 0 on a flushed tier.
void PublishCacheStats(MetricsRegistry* registry, const MetricLabels& labels,
                       const CacheStats& stats);

/// \brief Replays the cache tier's log2 reuse-distance buckets into the
/// `fewstate_cache_reuse_distance` histogram under `labels`. The tier's
/// buckets use the same log2 rule as `Histogram::BucketOf`, so the replay
/// is lossless (each recorded distance lands in its original bucket).
/// Call once per tier, at end of run — the histogram is cumulative.
void PublishCacheReuseHistogram(MetricsRegistry* registry,
                                const MetricLabels& labels,
                                const CacheStats& stats);

}  // namespace fewstate

#endif  // FEWSTATE_OBS_WEAR_PROBE_H_
