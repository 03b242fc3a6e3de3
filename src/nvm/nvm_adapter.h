#ifndef FEWSTATE_NVM_NVM_ADAPTER_H_
#define FEWSTATE_NVM_NVM_ADAPTER_H_

#include <cstdint>
#include <vector>

#include "nvm/cache_tier.h"

namespace fewstate {

/// \brief Outcome of pricing an algorithm's memory behaviour on NVM —
/// produced by `LiveNvmSink::Report`, whether the sink was fed as the
/// algorithm ran or afterwards from a recorded log (`ReplayOnNvm`); on
/// streams within log capacity the two are bitwise-identical.
///
/// With a cache tier attached, `writes_replayed` counts writes that
/// *reached the device* (dirty-eviction and flush write-backs); the
/// logical write count the algorithm generated is `cache.total_writes`.
struct NvmReplayReport {
  uint64_t writes_replayed = 0;
  uint64_t reads_replayed = 0;
  uint64_t max_cell_wear = 0;
  double wear_imbalance = 1.0;
  double energy_nj = 0.0;
  double latency_ns = 0.0;
  /// Projected number of times the whole stream could be re-run before the
  /// first cell wears out (infinite if no writes landed anywhere).
  double projected_stream_replays_to_failure = 0.0;
  /// Writes the costing never saw: records a bounded `WriteLog` dropped
  /// past capacity. Nonzero means every wear figure above is an
  /// *underestimate* — switch to the live path (`LiveNvmSink`), which
  /// never drops. Always 0 for live-path reports.
  uint64_t dropped_writes = 0;

  /// True iff a DRAM cache tier sat in front of the device; `cache` is
  /// all-zero otherwise.
  bool cache_enabled = false;
  /// Cache-tier traffic accounting (hits, absorbed writes, evictions,
  /// write-backs, reuse-distance histogram). Valid only after flush:
  /// `Report()` asserts the tier holds no pending dirty words.
  CacheStats cache;

  /// \brief True iff the costing under-reports because trace records were
  /// dropped.
  bool truncated() const { return dropped_writes > 0; }
};

/// \brief Folds per-device reports into one deployment-level view (e.g.
/// one device per shard replica, plus checkpoint devices): traffic,
/// energy, latency and drops add up; `max_cell_wear` and `wear_imbalance`
/// take the worst device; lifetime takes the first device to fail.
/// Cache-tier counters and reuse-distance buckets sum element-wise
/// (`cache_enabled` if any part had a cache).
/// An empty input yields a default (all-zero) report.
NvmReplayReport AggregateNvmReports(const std::vector<NvmReplayReport>& parts);

}  // namespace fewstate

#endif  // FEWSTATE_NVM_NVM_ADAPTER_H_
