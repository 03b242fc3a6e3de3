#include "obs/wear_probe.h"

#include <algorithm>
#include <vector>

#include "nvm/cache_tier.h"
#include "nvm/nvm_device.h"

namespace fewstate {

WearStats ComputeWearStats(const NvmDevice& device) {
  WearStats stats;
  stats.total_writes = device.total_writes();
  stats.max_wear = device.max_cell_wear();
  stats.worn_out_cells = device.worn_out_cells();

  std::vector<uint64_t> written;
  for (uint64_t wear : device.cell_wear()) {
    if (wear > 0) written.push_back(wear);
  }
  stats.written_cells = written.size();
  if (written.empty()) return stats;

  stats.mean_wear = static_cast<double>(stats.total_writes) /
                    static_cast<double>(written.size());
  const size_t rank = static_cast<size_t>(
      0.99 * static_cast<double>(written.size() - 1));
  std::nth_element(written.begin(), written.begin() + rank, written.end());
  stats.p99_wear = written[rank];
  return stats;
}

void PublishWearStats(MetricsRegistry* registry, const MetricLabels& labels,
                      const WearStats& stats) {
  registry->GetGauge("fewstate_nvm_total_writes", labels)
      ->Set(static_cast<double>(stats.total_writes));
  registry->GetGauge("fewstate_nvm_max_cell_wear", labels)
      ->Set(static_cast<double>(stats.max_wear));
  registry->GetGauge("fewstate_nvm_p99_cell_wear", labels)
      ->Set(static_cast<double>(stats.p99_wear));
  registry->GetGauge("fewstate_nvm_written_cells", labels)
      ->Set(static_cast<double>(stats.written_cells));
  registry->GetGauge("fewstate_nvm_worn_out_cells", labels)
      ->Set(static_cast<double>(stats.worn_out_cells));
  registry->GetGauge("fewstate_nvm_mean_cell_wear", labels)
      ->Set(stats.mean_wear);
}

void PublishCacheStats(MetricsRegistry* registry, const MetricLabels& labels,
                       const CacheStats& stats) {
  registry->GetGauge("fewstate_cache_total_writes", labels)
      ->Set(static_cast<double>(stats.total_writes));
  registry->GetGauge("fewstate_cache_hits", labels)
      ->Set(static_cast<double>(stats.hits));
  registry->GetGauge("fewstate_cache_absorbed_writes", labels)
      ->Set(static_cast<double>(stats.absorbed_writes));
  registry->GetGauge("fewstate_cache_dirty_evictions", labels)
      ->Set(static_cast<double>(stats.dirty_evictions));
  registry->GetGauge("fewstate_cache_writebacks", labels)
      ->Set(static_cast<double>(stats.writebacks));
  registry->GetGauge("fewstate_cache_reuse_cold", labels)
      ->Set(static_cast<double>(stats.reuse_cold));
}

void PublishCacheReuseHistogram(MetricsRegistry* registry,
                                const MetricLabels& labels,
                                const CacheStats& stats) {
  Histogram* hist =
      registry->GetHistogram("fewstate_cache_reuse_distance", labels);
  for (int i = 0; i < CacheStats::kReuseBuckets; ++i) {
    // One observation at the bucket's representative value per recorded
    // distance: CacheStats buckets share Histogram::BucketOf's log2 rule,
    // so every observation lands back in bucket i (0 for i == 0, else
    // 2^(i-1)).
    const uint64_t count = stats.reuse_hist[static_cast<size_t>(i)];
    if (count == 0) continue;
    const uint64_t representative = i == 0 ? 0 : uint64_t{1} << (i - 1);
    hist->ObserveMany(representative, count);
  }
}

}  // namespace fewstate
