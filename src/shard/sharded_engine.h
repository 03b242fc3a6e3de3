#ifndef FEWSTATE_SHARD_SHARDED_ENGINE_H_
#define FEWSTATE_SHARD_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/item_source.h"
#include "api/replica_pipeline.h"
#include "common/status.h"
#include "common/stream_types.h"
#include "nvm/live_sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/checkpoint_policy.h"
#include "shard/sketch_factory.h"
#include "shard/snapshot_serving.h"

namespace fewstate {

/// \brief Configuration of a `ShardedEngine`.
struct ShardedEngineOptions {
  /// Number of shards S == number of ingest worker threads. S == 1 runs
  /// any `Sketch` through one pipeline with no merge phase.
  size_t shards = 1;
  /// Items per batch handed to a shard worker. Batching amortises queue
  /// synchronisation; per-shard item order is preserved regardless.
  size_t batch_items = 4096;
  /// Bounded depth, in batches, of each shard's feed queue. The
  /// partitioner blocks when a shard falls this far behind (backpressure
  /// instead of unbounded buffering).
  size_t max_queued_batches = 8;
  /// Durability checkpointing schedule and snapshot mode (see
  /// `CheckpointPolicy`). Checkpoints fire at batch boundaries on the
  /// shard's own worker thread and serialize the shard's live replicas
  /// into NVM-backed snapshot sketches, pricing durability traffic
  /// through the same `WriteSink` pipeline as update wear. With
  /// `Snapshot::kDelta`, `RestorableSketch` entries keep one persistent
  /// snapshot per (shard, sketch) and re-serialize only the words the
  /// `DirtyTracker` saw change; mergeable-but-not-restorable entries fall
  /// back to full snapshots, and non-checkpointable entries (possible
  /// when shards == 1) are skipped. Snapshot devices persist across a
  /// shard's checkpoints within one run — re-snapshotting the same state
  /// region accrues wear, which is exactly the durability cost the report
  /// surfaces. Workers mint snapshot replicas concurrently, so registered
  /// makers must be safe for concurrent `Make()` (see `SketchFactory`).
  CheckpointPolicy checkpoint_policy;
  /// Device spec for the checkpoint snapshots (one device per
  /// (shard, sketch), minted fresh each `Run`). Validated at engine
  /// construction when checkpointing is enabled; an invalid spec is a
  /// fatal setup error (like invalid registration).
  NvmSpec checkpoint_nvm;
  /// Publish each (shard, sketch) checkpoint for lock-free concurrent
  /// reads: at the end of every batch boundary the shard's worker swaps
  /// one immutable `ShardRoster` (its progress plus every sketch's latest
  /// `ShardSnapshot`) into the shard's serving slot, and reader threads
  /// holding a `ServingHandle` (see `Serving`) acquire point-in-time
  /// views during the run with zero worker coordination.
  /// Requires `checkpoint_policy` (nothing publishes without
  /// checkpoints). In `Snapshot::kFull` mode publication is free — the
  /// freshly-minted snapshot replica is published as-is; in
  /// `Snapshot::kDelta` mode the persistent base snapshot is mutated in
  /// place by design, so the worker serves a freshly minted copy of it
  /// and prices the copy as bulk reads of the checkpoint region (reads
  /// cost energy, not wear — the same pricing recovery uses for snapshot
  /// loads). Off by default: non-serving runs are bit-identical to
  /// pre-serving behaviour.
  bool serve_snapshots = false;
  /// Opt-in live telemetry (borrowed; must outlive the engine). When set,
  /// every `Run` registers and feeds the `fewstate_*` metric families
  /// catalogued in `docs/OBSERVABILITY.md`: per-shard item/batch counters
  /// and queue depth/backpressure gauges, per-(shard, sketch)
  /// state-change and word-write counters with live change-rate /
  /// wear-rate gauges (read from each replica's `StateAccountant` at batch
  /// boundaries — metrics attach no sink, so the per-word path is
  /// untouched), checkpoint/publication counters, NVM wear gauges,
  /// and — via `Serving()` handles — view staleness histograms. A
  /// `MetricsRegistry::Snapshot()` polled from any thread mid-run sees
  /// live values; end-of-run counter totals reconcile exactly with the
  /// `ShardedRunReport`. Null (default): zero instrumentation overhead.
  MetricsRegistry* metrics = nullptr;
  /// Opt-in structured tracer (borrowed; must outlive the engine). When
  /// set, `Run` emits Chrome-trace spans for batch drains, per-sketch
  /// update epochs, checkpoint capture/publish, and merges, plus instant
  /// events for checkpoint-policy triggers and source errors. Null
  /// (default): no events.
  TraceRecorder* trace = nullptr;
};

/// \brief Per-sketch outcome of one `ShardedEngine::Run`.
///
/// `per_shard[s]` holds the accountant deltas of shard s's replica during
/// ingest; `merge` holds the deltas the destination replica's accountant
/// saw during the merge phase (each merge is one accounting epoch, so its
/// `updates` counts merges, not stream items); `total` is the aggregate
/// wear across all replicas plus consolidation — the figure a deployed
/// S-way monitor actually pays.
struct ShardedSketchReport {
  std::string name;
  bool mergeable = false;
  /// True iff the registered sketch implements `RestorableSketch` (exact
  /// word-for-word snapshots; required for delta checkpoints/recovery).
  bool restorable = false;
  std::vector<SketchRunReport> per_shard;
  SketchRunReport merge;
  /// Durability traffic: accountant deltas of the NVM-backed snapshot
  /// replicas, summed over every checkpoint on every shard (its `nvm`
  /// aggregates the checkpoint devices). Folded into `total` — a deployed
  /// monitor pays for durability too. Its `full_checkpoints` /
  /// `delta_checkpoints` fields split `checkpoints_taken` by snapshot
  /// kind.
  SketchRunReport checkpoint;
  /// Snapshots taken across all shards (full + delta).
  uint64_t checkpoints_taken = 0;
  /// Snapshots published for concurrent serving across all shards (0
  /// unless `ShardedEngineOptions::serve_snapshots`). Equal to
  /// `checkpoints_taken` when serving: every checkpoint publishes.
  uint64_t snapshots_published = 0;
  /// Per shard: items that shard had ingested at its most recent
  /// checkpoint of this sketch (0 if it never checkpointed). Recovery
  /// replays the trace suffix past this point — the repo's RPO marker.
  std::vector<uint64_t> last_checkpoint_items;
  SketchRunReport total;
};

/// \brief Outcome of one `ShardedEngine::Run`.
struct ShardedRunReport {
  /// Items pulled from the source — counted as the partitioner ingests, so
  /// exact for unsized sources too.
  uint64_t items_ingested = 0;
  size_t shards = 0;
  size_t batch_items = 0;
  /// Items routed to each shard (sums to `items_ingested`).
  std::vector<uint64_t> shard_items;
  /// Whole run: replica construction + ingest + merge.
  double wall_seconds = 0.0;
  /// Partition + feed + worker drain (the parallel section).
  double ingest_seconds = 0.0;
  /// Post-join consolidation of replicas into shard 0's.
  double merge_seconds = 0.0;
  /// items_ingested / ingest_seconds.
  double items_per_second = 0.0;
  std::vector<ShardedSketchReport> sketches;

  /// \brief The entry for `name`, or nullptr if no such sketch ran.
  const ShardedSketchReport* Find(const std::string& name) const;

  /// \brief Human-readable summary (aggregate row per sketch, then
  /// per-shard rows).
  std::string ToString() const;

  /// \brief Column header shared by all report CSV emitters:
  /// `label,sketch,updates,state_changes,word_writes,suppressed_writes,
  /// word_reads,peak_words,wall_seconds,nvm_writes,nvm_max_wear,
  /// nvm_energy_nj,nvm_replays_to_eol,nvm_dropped,ckpt_full,ckpt_delta,
  /// ckpt_published,cache_hits,absorbed_writes,dirty_evictions,writebacks,
  /// cache_reuse_p50`
  /// (the nvm columns are 0 for rows without an attached device; the ckpt
  /// columns are 0 outside `[checkpoint]` rows; the cache columns are 0
  /// without a DRAM cache tier on the device, and `nvm_writes` counts
  /// post-cache device writes when one is attached).
  static std::string CsvHeader();

  /// \brief Machine-readable rows under `CsvHeader()` columns, each
  /// prefixed with `label` (e.g. the stream length or sweep point, so
  /// whole trajectories can be scraped from bench output); the sketch
  /// column is suffixed `[shard<s>]`, `[merge]` or `[total]`.
  std::string ToCsv(const std::string& label) const;
};

/// \brief One `ShardedRunReport::CsvHeader()`-shaped CSV row. The `label`
/// and `sketch` fields are sanitized: any comma, quote or line break
/// becomes `_`, so a caller-supplied label can never shift or split
/// downstream columns.
std::string SketchReportCsvRow(const std::string& label,
                               const std::string& sketch,
                               const SketchRunReport& row);

/// \brief Hash-partitioned, multi-threaded ingest over replicated
/// sketches.
///
/// The paper's state-change metric (§1.5) models per-device write wear; a
/// production monitor partitions a heavy stream across S cores, which
/// multiplies the replicas — and the wear — by S and adds a consolidation
/// (merge) cost. This engine makes that deployment shape measurable:
///
///  * each registered `SketchFactory` mints one replica per shard;
///  * a partitioner thread hash-routes items to per-shard bounded batch
///    queues; one worker thread per shard drives that shard's
///    `ReplicaPipeline`, which drains the replicas on up to
///    min(#sketches, (CPUs - 1) / S) lanes (CPUs in the affinity mask)
///    with a barrier per batch, splitting each sketch's pure pre-stage
///    across the lanes, so every replica (and its `StateAccountant`) is
///    touched by one thread at a time and ends bitwise as a serial drain
///    leaves it;
///  * after the stream ends and workers join, shards 1..S-1 are merged
///    into shard 0's replica through `MergeableSketch::MergeFrom`, with
///    merge-time writes accounted on the destination;
///  * optionally (`checkpoint_policy`), each worker serializes its live
///    replicas into NVM-backed snapshot sketches — on an every-N-items
///    or wear-budget schedule, as full rewrites or as delta
///    checkpoints of just the changed words — so durability traffic is
///    priced through the same `WriteSink` pipeline as update wear.
///    Deterministic for a fixed source/seed/S, since each shard's item
///    sequence and batch boundaries are deterministic. The snapshots
///    survive the run (`Snapshot`), and `RecoverReplica`
///    (`recover/recovery.h`) rebuilds a crashed shard from one plus the
///    shard's trace tail;
///  * the `ShardedRunReport` carries per-shard and aggregated wear (plus
///    live NVM device state when a spec is attached) and an
///    ingest-throughput figure.
///
/// With S > 1 every registered sketch must implement `MergeableSketch`
/// (checked at registration); with S == 1 any `Sketch` is accepted and the
/// run is one pipeline with no merge: each sketch ends in the state a
/// standalone `Drain` of the same stream leaves, sketch-for-sketch. That
/// is the paper's experiment shape (§1.5) — "run algorithm X and
/// baselines Y, Z over the same stream and compare state changes" —
/// without N separate stream passes.
class ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedEngineOptions& options);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// \brief Registers a sketch spec. Fails on duplicate names, on makers
  /// that return null, and on non-mergeable sketches when `shards > 1`
  /// (sample-and-hold structures report non-mergeability statically, by
  /// not deriving from `MergeableSketch`).
  Status AddSketch(SketchFactory factory);

  /// \brief Registers a sketch spec with a live NVM attachment: each `Run`
  /// mints one simulated device per shard replica from `nvm_spec` and
  /// streams that replica's writes onto it as they happen (the merge
  /// phase's consolidation writes land on shard 0's device). Reports gain
  /// per-shard and aggregated device wear/energy/lifetime for this sketch.
  Status AddSketch(SketchFactory factory, const NvmSpec& nvm_spec);

  /// \brief Configured shard count S.
  size_t shards() const { return options_.shards; }

  /// \brief Number of registered sketches.
  size_t size() const { return entries_.size(); }

  /// \brief Registered names, in registration order.
  std::vector<std::string> names() const;

  /// \brief The shard this engine routes `item` to — the partition
  /// function, exposed so a recovery driver can reconstruct one shard's
  /// substream (the trace tail) from a captured whole-stream trace.
  size_t ShardOf(Item item) const;

  /// \brief Pulls `source` to end-of-stream, hash-partitioning items into
  /// the per-shard bounded batch queues, ingests on worker threads, merges
  /// the replicas, and reports. The queues are the backpressure boundary:
  /// the partitioner blocks when a shard falls behind, so memory stays
  /// O(shards * batch * queue depth) however long the source runs.
  /// Scheduling never consults `SizeHint()` — an unsized live feed ingests
  /// identically. Each call builds fresh replicas (a sharded run consumes
  /// its replicas by merging them; there is no carry-over state between
  /// runs).
  ShardedRunReport Run(ItemSource& source);

  /// \brief Rvalue convenience, e.g. `engine.Run(ZipfSource(...))`.
  ShardedRunReport Run(ItemSource&& source) { return Run(source); }

  /// \brief The consolidated sketch for `name` after the last `Run`
  /// (shard 0's replica, post-merge), or nullptr before the first run.
  /// Valid until the next `Run`.
  Sketch* Merged(const std::string& name) const;

  /// \brief Shard `shard`'s replica of `name` after the last `Run`, or
  /// nullptr. Shard 0's replica has absorbed the others when S > 1.
  Sketch* Replica(size_t shard, const std::string& name) const;

  /// \brief Shard `shard`'s most recent checkpoint snapshot of `name`
  /// after the last `Run`, or nullptr if that shard never checkpointed
  /// it. This is the durable state a crash would leave behind — hand it
  /// to `RecoverReplica` with the shard's trace tail to rebuild the
  /// replica. Valid until the next `Run`.
  const Sketch* Snapshot(size_t shard, const std::string& name) const;

  /// \brief The live sink of shard `shard`'s checkpoint device for
  /// `name` (recovery charges its snapshot reads here), or nullptr when
  /// checkpointing was off for that entry. Valid until the next `Run`.
  LiveNvmSink* CheckpointSink(size_t shard, const std::string& name) const;

  /// \brief Lock-free reader handle for `name`'s published snapshots
  /// (invalid handle for unknown names — check `ok()`). Acquire it before
  /// starting `Run` and hand it to query threads: `Acquire()` returns a
  /// consistent point-in-time `SnapshotView` at any moment during or
  /// after the run. Views are empty unless the engine runs with
  /// `serve_snapshots` and a checkpoint policy. The handle stays valid
  /// for the engine's lifetime, across `Run` calls (each `Run` publishes
  /// an empty roster per shard before its first pull; views already
  /// acquired keep their snapshots alive independently).
  ServingHandle Serving(const std::string& name) const;

  /// \brief The report of the most recent `Run` (empty before the first).
  const ShardedRunReport& last_report() const { return last_report_; }

 private:
  struct Entry {
    SketchFactory factory;
    bool mergeable = false;
    bool restorable = false;
    bool has_nvm = false;
    NvmSpec nvm_spec;  // meaningful iff has_nvm
  };

  size_t IndexOf(const std::string& name) const;
  // True iff the last Run built shard `shard`'s replica of sketch `i`.
  bool Built(size_t shard, size_t i) const;
  Status AddSketchEntry(SketchFactory factory, bool has_nvm,
                        const NvmSpec& nvm_spec);

  // options_.checkpoint_policy is kept as given: a zero-parameter trigger
  // stays in place, and CheckpointPolicy::enabled() reports it disabled.
  ShardedEngineOptions options_;
  std::vector<Entry> entries_;
  // pipelines_[shard]: the shard's replicas with their sinks, checkpoint
  // snapshots and devices. Rebuilt by each Run and kept so queries can
  // inspect replicas and devices and recovery can price against
  // checkpoint sinks afterwards.
  std::vector<std::unique_ptr<ReplicaPipeline>> pipelines_;
  // rosters_[shard]: the shard's serving record. ServingHandles point at
  // this vector for the engine's lifetime (the engine never moves).
  // Stored by the shard's pipeline via std::atomic_store when
  // options_.serve_snapshots; read by any thread via std::atomic_load.
  // Sized once, at construction, and never resized.
  std::vector<std::shared_ptr<const ShardRoster>> rosters_;
  ShardedRunReport last_report_;
};

}  // namespace fewstate

#endif  // FEWSTATE_SHARD_SHARDED_ENGINE_H_
