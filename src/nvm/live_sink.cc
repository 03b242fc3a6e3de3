#include "nvm/live_sink.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

namespace fewstate {

namespace {

// An invalid spec would divide by a zero device size or rotation period
// on the first write; refuse it where the sink is built instead.
const NvmSpec& CheckedSpec(const NvmSpec& spec) {
  const Status valid = spec.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "LiveNvmSink: invalid NvmSpec: %s\n",
                 valid.ToString().c_str());
    std::abort();
  }
  return spec;
}

}  // namespace

const char* NvmSpec::leveling_name() const {
  switch (leveling) {
    case Leveling::kRotating:
      return "rotate";
    case Leveling::kHashed:
      return "hashed";
    case Leveling::kDirect:
      break;
  }
  return "direct";
}

Status NvmSpec::Validate() const {
  Status device_status = config.Validate();
  if (!device_status.ok()) return device_status;
  if (leveling == Leveling::kRotating && rotate_period == 0) {
    return Status::InvalidArgument(
        "NvmSpec.rotate_period must be > 0 under kRotating");
  }
  return cache.Validate();
}

LiveNvmSink::LiveNvmSink(const NvmSpec& spec)
    : spec_(CheckedSpec(spec)),
      leveler_(spec.leveling, spec.config.num_cells, spec.rotate_period,
               spec.hash_seed),
      device_(spec.config),
      cache_(spec.cache.enabled() ? std::make_unique<CacheTier>(spec.cache)
                                  : nullptr) {}

NvmReplayReport LiveNvmSink::Report() const {
  if (cache_ != nullptr && !cache_->flushed()) {
    // Wear, imbalance and projected lifetime would silently exclude the
    // pending write-backs — an unflushed cached report is a wrong answer,
    // not an approximation. The non-const Report() flushes first.
    std::fprintf(stderr,
                 "LiveNvmSink::Report: cache tier holds %llu pending "
                 "write-backs; Flush() before reporting\n",
                 static_cast<unsigned long long>(
                     cache_->stats().writebacks_pending));
    std::abort();
  }
  NvmReplayReport report;
  report.writes_replayed = device_.total_writes();
  report.reads_replayed = device_.total_reads();
  report.max_cell_wear = device_.max_cell_wear();
  report.wear_imbalance = device_.wear_imbalance();
  report.energy_nj = device_.energy_nj();
  report.latency_ns = device_.latency_ns();
  if (cache_ != nullptr) {
    report.cache_enabled = true;
    report.cache = cache_->stats();
  }
  if (device_.max_cell_wear() == 0) {
    report.projected_stream_replays_to_failure =
        std::numeric_limits<double>::infinity();
  } else {
    report.projected_stream_replays_to_failure =
        static_cast<double>(spec_.config.endurance) /
        static_cast<double>(device_.max_cell_wear());
  }
  return report;
}

NvmReplayReport ReplayOnNvm(const WriteLog& log,
                            const StateAccountant& accountant,
                            const NvmSpec& spec) {
  LiveNvmSink sink(spec);
  for (const WriteRecord& record : log.records()) {
    sink.OnWrite(record.epoch, record.cell);
  }
  // Reads are aggregate (the accountant does not log addresses); they cost
  // energy/latency but never wear cells.
  sink.OnBulkReads(accountant.word_reads());
  NvmReplayReport report = sink.Report();
  report.dropped_writes = log.dropped();
  return report;
}

}  // namespace fewstate
