#include "nvm/nvm_adapter.h"

#include <algorithm>
#include <limits>

namespace fewstate {

NvmReplayReport AggregateNvmReports(
    const std::vector<NvmReplayReport>& parts) {
  NvmReplayReport out;
  if (parts.empty()) return out;
  out.projected_stream_replays_to_failure =
      std::numeric_limits<double>::infinity();
  for (const NvmReplayReport& part : parts) {
    out.writes_replayed += part.writes_replayed;
    out.reads_replayed += part.reads_replayed;
    out.energy_nj += part.energy_nj;
    out.latency_ns += part.latency_ns;
    out.dropped_writes += part.dropped_writes;
    out.max_cell_wear = std::max(out.max_cell_wear, part.max_cell_wear);
    out.wear_imbalance = std::max(out.wear_imbalance, part.wear_imbalance);
    out.projected_stream_replays_to_failure =
        std::min(out.projected_stream_replays_to_failure,
                 part.projected_stream_replays_to_failure);
    if (part.cache_enabled) {
      out.cache_enabled = true;
      out.cache.total_writes += part.cache.total_writes;
      out.cache.hits += part.cache.hits;
      out.cache.misses += part.cache.misses;
      out.cache.absorbed_writes += part.cache.absorbed_writes;
      out.cache.dirty_evictions += part.cache.dirty_evictions;
      out.cache.clean_evictions += part.cache.clean_evictions;
      out.cache.writebacks += part.cache.writebacks;
      out.cache.writebacks_pending += part.cache.writebacks_pending;
      out.cache.flushes += part.cache.flushes;
      out.cache.reuse_cold += part.cache.reuse_cold;
      for (int i = 0; i < CacheStats::kReuseBuckets; ++i) {
        out.cache.reuse_hist[static_cast<size_t>(i)] +=
            part.cache.reuse_hist[static_cast<size_t>(i)];
      }
    }
  }
  return out;
}

}  // namespace fewstate
