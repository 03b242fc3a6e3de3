#ifndef FEWSTATE_NVM_LIVE_SINK_H_
#define FEWSTATE_NVM_LIVE_SINK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "nvm/cache_tier.h"
#include "nvm/nvm_adapter.h"
#include "nvm/nvm_device.h"
#include "nvm/wear_leveling.h"
#include "state/state_accountant.h"
#include "state/write_log.h"
#include "state/write_sink.h"

namespace fewstate {

/// \brief Value description of one simulated NVM attachment: device cost
/// parameters plus the wear leveling to put in front of it. Plain data, so
/// engines can copy it into per-shard replicas (every replica mints its
/// own device from the same spec).
struct NvmSpec {
  using Leveling = WearLeveling;

  NvmConfig config;
  Leveling leveling = Leveling::kDirect;
  uint64_t rotate_period = 64;  ///< kRotating: writes per rotation step
  uint64_t hash_seed = 1;       ///< kHashed: scatter hash seed
  /// Optional DRAM write-back cache in front of the device (disabled by
  /// default — `cache.sets == 0` keeps the path bitwise-identical to the
  /// uncached one). The cache holds logical cells; wear leveling remaps
  /// at write-back time.
  CacheSpec cache;

  /// \brief Leveling label for reports ("direct" / "rotate" / "hashed").
  const char* leveling_name() const;

  /// \brief Validates the device parameters, the rotation period (> 0
  /// under kRotating) and the cache geometry.
  Status Validate() const;
};

/// \brief The one NVM costing path: pushes each state write through the
/// spec's wear leveling onto a simulated `NvmDevice`, optionally behind a
/// DRAM `CacheTier` — turning the paper's abstract state-change counts
/// into the §1.1 motivating quantities (energy, latency, device lifetime
/// under asymmetric read/write costs).
///
/// Where a `WriteLog` records O(stream) trace entries (and silently caps
/// them), a live sink holds only the device — O(device) memory — so wear,
/// energy and lifetime are exact on unbounded streams. Offline pricing
/// (`ReplayOnNvm`) feeds a recorded log through a fresh sink, so on a
/// stream that fits the log's capacity `Report()` is bitwise-identical to
/// `ReplayOnNvm(log, ...)` with the same spec (provided the sink was
/// attached for the algorithm's whole lifetime, as replay charges the
/// accountant's total read count).
///
/// With a cache, writes land in the tier and only dirty evictions and
/// `Flush()` write-backs reach the device; wear leveling therefore remaps
/// at write-back time, downstream of the cache.
class LiveNvmSink final : public WriteSink {
 public:
  /// \brief Builds a fresh device, leveler and cache tier from `spec`.
  /// Aborts with the `NvmSpec::Validate` message on an invalid spec
  /// (callers that accept external specs validate first and return it).
  explicit LiveNvmSink(const NvmSpec& spec);

  /// \brief Prices one word write of logical `cell` as it happens.
  void OnWrite(uint64_t epoch, uint64_t cell) override {
    (void)epoch;  // wear does not depend on when, only on where
    if (cache_ == nullptr) {
      WriteBack(cell);
      return;
    }
    cache_->Write(cell, [this](uint64_t victim) { WriteBack(victim); });
  }

  /// \brief Prices a batch of word writes in order as one device span
  /// write (`NvmDevice::WriteSpan`). Uncached, the wear leveling scheme is
  /// resolved once for the span; cached, each word goes through the tier's
  /// lookup and its remapped write-backs form the span.
  void OnWriteSpan(uint64_t base_epoch, const BatchWrite* writes,
                   size_t n) override {
    (void)base_epoch;
    if (cache_ == nullptr) {
      if (physical_.size() < n) physical_.resize(n);
      leveler_.MapSpan(writes, n, physical_.data());
      device_.WriteSpan(physical_.data(), n);
      return;
    }
    physical_.clear();
    CacheTier& cache = *cache_;
    const auto write_back = [this](uint64_t victim) {
      physical_.push_back(leveler_.MapWrite(victim));
    };
    for (size_t i = 0; i < n; ++i) cache.Write(writes[i].cell, write_back);
    device_.WriteSpan(physical_.data(), physical_.size());
  }

  /// \brief Prices `count` aggregate reads (energy/latency; no wear).
  /// Reads are address-free aggregates, so the cache tier cannot filter
  /// them — they pass through to the device unchanged.
  void OnBulkReads(uint64_t count) override { device_.ReadBulk(count); }

  /// \brief Writes back every dirty cached word onto the device. An
  /// uncached device is always consistent, so this is a no-op without a
  /// cache tier. Idempotent; the engines call it at end of run.
  void Flush() override {
    if (cache_ == nullptr) return;
    cache_->Flush([this](uint64_t victim) { WriteBack(victim); });
  }

  /// \brief Costing outcome so far. `dropped_writes` is always 0: the
  /// live path never drops. Flushes the cache tier first, so a mid-run
  /// report on a cached path reflects flushed state (pending write-backs
  /// are priced, never silently excluded).
  NvmReplayReport Report() {
    Flush();
    return std::as_const(*this).Report();
  }

  /// \brief Const overload for already-flushed sinks (e.g. a replica's
  /// live device, which its pipeline flushes at end of run).
  /// Aborts if the cache tier still holds pending write-backs — a const
  /// sink cannot flush, and an unflushed wear figure is a wrong answer.
  NvmReplayReport Report() const;

  /// \brief The simulated device behind this sink (direct wear queries).
  const NvmDevice& device() const { return device_; }

  /// \brief The cache tier, or nullptr when the spec disables it.
  const CacheTier* cache() const { return cache_.get(); }

 private:
  void WriteBack(uint64_t cell) { device_.Write(leveler_.MapWrite(cell)); }

  NvmSpec spec_;
  WearLeveler leveler_;
  NvmDevice device_;
  std::unique_ptr<CacheTier> cache_;  // null when spec_.cache is disabled
  std::vector<uint64_t> physical_;    // one span's physical cells
};

/// \brief Offline pricing: feeds a recorded `WriteLog` (plus the
/// accountant's aggregate read count) through a fresh `LiveNvmSink` built
/// from `spec`, flushes and reports. If the log dropped records past
/// capacity, the report surfaces the shortfall in `dropped_writes` — the
/// wear figures are then underestimates and the live path should be used
/// instead.
NvmReplayReport ReplayOnNvm(const WriteLog& log,
                            const StateAccountant& accountant,
                            const NvmSpec& spec);

}  // namespace fewstate

#endif  // FEWSTATE_NVM_LIVE_SINK_H_
