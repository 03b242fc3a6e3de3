#include "recover/recovery.h"

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "api/mergeable.h"
#include "common/cpus.h"
#include "obs/trace.h"
#include "recover/restorable.h"
#include "shard/sharded_engine.h"

namespace fewstate {

std::string RecoveryReport::ToString() const {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "recovery: snapshot_words=%llu tail_items=%llu wall=%.6fs\n"
      "  restore: writes=%llu suppressed=%llu\n"
      "  replay:  updates=%llu state_changes=%llu writes=%llu\n"
      "  total:   writes=%llu%s\n",
      static_cast<unsigned long long>(snapshot_words),
      static_cast<unsigned long long>(tail_items), wall_seconds,
      static_cast<unsigned long long>(restore.word_writes),
      static_cast<unsigned long long>(restore.suppressed_writes),
      static_cast<unsigned long long>(replay.updates),
      static_cast<unsigned long long>(replay.state_changes),
      static_cast<unsigned long long>(replay.word_writes),
      static_cast<unsigned long long>(total.word_writes),
      total.has_nvm ? " (priced on a fresh live device)" : "");
  return line;
}

std::string RecoveryReport::ToCsv(const std::string& label,
                                  const std::string& sketch) const {
  std::string out;
  out += SketchReportCsvRow(label, sketch + "[recover:restore]", restore);
  out += '\n';
  out += SketchReportCsvRow(label, sketch + "[recover:replay]", replay);
  out += '\n';
  out += SketchReportCsvRow(label, sketch + "[recover:total]", total);
  out += '\n';
  return out;
}

Status RecoverReplica(const SketchFactory& factory, const Sketch& snapshot,
                      ItemSource& trace_tail, const RecoveryOptions& options,
                      RecoveredReplica* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("RecoverReplica: null output");
  }
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  TraceSpan recovery_span(options.trace, "recovery", "recovery");

  RecoveredReplica result;
  result.sketch = factory.Make();
  if (result.sketch == nullptr) {
    return Status::InvalidArgument("RecoverReplica: factory for '" +
                                   factory.name() + "' returned null");
  }
  if (options.price_replica_nvm) {
    const Status valid = options.replica_nvm.Validate();
    if (!valid.ok()) return valid;
    result.nvm = std::make_unique<LiveNvmSink>(options.replica_nvm);
    result.sketch->mutable_accountant()->set_write_sink(result.nvm.get());
  }

  // Phase 1 — load the checkpoint: the recoverer reads the replica's
  // whole state region off the checkpoint device (reads cost
  // energy/latency, never wear) and writes it into the fresh replica.
  result.report.snapshot_words = snapshot.accountant().allocated_words();
  if (options.checkpoint_sink != nullptr) {
    options.checkpoint_sink->OnBulkReads(result.report.snapshot_words);
  }
  const AccountantSnapshot before_restore =
      AccountantSnapshot::Of(result.sketch->accountant());
  Status status;
  {
    TraceSpan restore_span(options.trace, "recovery_restore", "recovery");
    RestorableSketch* restorable = AsRestorable(result.sketch.get());
    if (restorable != nullptr) {
      status = restorable->RestoreFrom(snapshot);
    } else if (MergeableSketch* mergeable =
                   AsMergeable(result.sketch.get())) {
      // Merge into empty ≡ copy for the linear sketches; where merges
      // consume randomness the rebuilt replica is distribution-equivalent,
      // not bitwise (see header).
      status = mergeable->MergeFrom(snapshot);
    } else {
      return Status::FailedPrecondition(
          "RecoverReplica: '" + factory.name() +
          "' is neither restorable nor mergeable; nothing can load its "
          "snapshot");
    }
  }
  if (!status.ok()) return status;
  const AccountantSnapshot after_restore =
      AccountantSnapshot::Of(result.sketch->accountant());
  result.report.restore = before_restore.DeltaTo(after_restore);
  result.report.restore.name = factory.name();

  // Phase 2 — replay the tail: the items the crashed shard ingested after
  // its last checkpoint, replayed through the ordinary update path (and
  // priced like one). A tail source in error state (unopenable trace,
  // truncated capture, mid-read failure) means the replica was rebuilt
  // from a *short* tail — state silently short of the crash point — so
  // the whole recovery is untrustworthy and must fail, not report
  // success. The tail runs through the drain core, one slot deep: the
  // replica keeps its own sink, and its pre-stage parts run on up to one
  // lane per usable CPU (recovery has no partitioner to leave one for).
  // A sketch without a pre-stage starts no lane.
  {
    TraceSpan replay_span(options.trace, "recovery_replay", "recovery");
    ReplicaPipelineOptions replay_options;
    replay_options.drain_lanes = UsableCpus();
    ReplicaPipeline replay(std::move(replay_options));
    replay.Add(factory.name(), std::move(result.sketch));
    replay.BeginRun(nullptr, options.trace);
    std::vector<Item> buffer(kDefaultDrainBatchItems);
    uint64_t processed = 0;
    result.report.tail_items = ForEachBatch(
        trace_tail, buffer.data(), buffer.size(),
        [&](const Item* batch, size_t count) {
          replay.Drain(batch, count);
          processed += count;
          replay.AtBatchBoundary(processed);
        });
    replay.Report();
    result.sketch = replay.TakeSketch(0);
  }
  const Status tail_status = trace_tail.status();
  if (!tail_status.ok()) {
    return Status::Internal(
        "RecoverReplica: trace tail for '" + factory.name() +
        "' did not replay cleanly — rebuilt state would be short of the "
        "crash point: " + tail_status.message());
  }
  const AccountantSnapshot after_replay =
      AccountantSnapshot::Of(result.sketch->accountant());
  result.report.replay = after_restore.DeltaTo(after_replay);
  result.report.replay.name = factory.name();

  result.report.total = before_restore.DeltaTo(after_replay);
  result.report.total.name = factory.name();
  result.report.total.peak_allocated_words =
      result.sketch->accountant().peak_allocated_words();
  if (result.nvm != nullptr) {
    result.nvm->Flush();  // end-of-phase barrier (sink contract)
    result.report.total.has_nvm = true;
    result.report.total.nvm = result.nvm->Report();
  }
  result.report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  *out = std::move(result);
  return Status::OK();
}

}  // namespace fewstate
