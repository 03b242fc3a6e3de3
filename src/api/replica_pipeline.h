#ifndef FEWSTATE_API_REPLICA_PIPELINE_H_
#define FEWSTATE_API_REPLICA_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/sketch.h"
#include "common/stream_types.h"
#include "nvm/live_sink.h"
#include "obs/metrics.h"
#include "recover/checkpoint_policy.h"
#include "shard/sketch_factory.h"
#include "shard/snapshot_serving.h"
#include "state/dirty_tracker.h"

namespace fewstate {

// api/item_source.h, obs/trace.h
class ItemSource;
class TraceRecorder;

/// \brief Per-sketch outcome of one engine run: the sketch's
/// `StateAccountant` counters over the run, plus wall time spent in its
/// `Update` calls and its pre-stage, on whichever lanes ran them.
struct SketchRunReport {
  std::string name;
  uint64_t updates = 0;
  /// The paper's §1.5 metric: updates t with sigma_t != sigma_{t-1}.
  uint64_t state_changes = 0;
  uint64_t word_writes = 0;
  uint64_t suppressed_writes = 0;
  uint64_t word_reads = 0;
  /// High-water mark of the sketch's allocated state.
  uint64_t peak_allocated_words = 0;
  double wall_seconds = 0.0;
  /// True iff a live NVM device priced this row's traffic.
  bool has_nvm = false;
  /// State of the attached simulated device(s) at report time.
  NvmReplayReport nvm;
  /// Checkpoint/recovery rows only (0 elsewhere): snapshots serialized in
  /// full (whole state rewritten) vs. as deltas (only words changed since
  /// the previous checkpoint). Their sum is the row's checkpoint count.
  uint64_t full_checkpoints = 0;
  uint64_t delta_checkpoints = 0;
  /// Checkpoint rows of serving runs only (0 elsewhere): snapshots
  /// published in the shard's serving rosters for concurrent readers
  /// (`ShardedEngineOptions::serve_snapshots`).
  uint64_t snapshots_published = 0;

  /// \brief Adds `delta`'s accountant counters and wall time to this row
  /// (name, peak, device and checkpoint fields are left alone).
  void Accumulate(const SketchRunReport& delta);
};

/// \brief Value snapshot of an accountant's counters, turning before/after
/// pairs into per-run (or per-phase) report deltas. Extend this (and
/// `DeltaTo`) when `StateAccountant` grows a counter.
struct AccountantSnapshot {
  uint64_t updates = 0;
  uint64_t state_changes = 0;
  uint64_t word_writes = 0;
  uint64_t suppressed_writes = 0;
  uint64_t word_reads = 0;

  static AccountantSnapshot Of(const StateAccountant& a);

  /// \brief The counter deltas accumulated between this snapshot and
  /// `after`, as a report row (name/peak/wall left for the caller).
  SketchRunReport DeltaTo(const AccountantSnapshot& after) const;
};

/// \brief Surfaces a drained `source` that ended non-OK in telemetry: bumps
/// `fewstate_source_errors_total` and emits a `source_error` instant
/// (either may be null). Callers already get `status()`; operators
/// watching mid-run get these.
void PublishSourceStatus(const ItemSource& source, MetricsRegistry* metrics,
                         TraceRecorder* trace);

/// \brief Structural configuration of a `ReplicaPipeline`, fixed for its
/// lifetime.
struct ReplicaPipelineOptions {
  /// Labels every metric series of this pipeline carries (`{shard=s}`).
  MetricLabels labels;
  /// Checkpoint schedule for sketches added with `EnableCheckpoints`
  /// (disabled: nothing is ever checkpointed).
  CheckpointPolicy checkpoint_policy;
  /// Device spec each checkpointed sketch's snapshots are priced on.
  NvmSpec checkpoint_nvm;
  /// Most lanes `Drain` runs on (0 and 1 both mean the calling thread
  /// alone). The first R = min(L, number of sketches) are roster lanes:
  /// slot `i` belongs to lane `i mod R`, lane 0 is the calling thread and
  /// `BeginRun` starts lanes 1..R-1. Lanes R..L-1 run only pre-stage
  /// parts, and `Drain` starts them the first time a plan has more parts
  /// than the running lanes, so a roster without a pre-stage never starts
  /// one. `ShardedEngine` sizes L from the CPUs it can see and caps it at
  /// the roster; `RecoverReplica` gives its one replica a lane per CPU.
  size_t drain_lanes = 1;
};

/// \brief One sketch's outcome of a pipeline run.
struct ReplicaSketchReport {
  /// Accountant counters at the last batch boundary, update wall time,
  /// and the live device's state.
  SketchRunReport ingest;
  /// Checkpointed sketches only: snapshot accountant deltas summed over
  /// the run's checkpoints, with the full/delta/published counts, and the
  /// checkpoint device's state.
  SketchRunReport checkpoint;
  /// Items at the most recent checkpoint (0 if none) — the RPO marker.
  uint64_t last_checkpoint_items = 0;
};

/// \brief The drain core of `ShardedEngine`: one shard's replicas and
/// everything wired to them, for exactly one run.
///
/// For every replica the pipeline owns the sketch, its sink chain
/// (`LiveNvmSink`, `DirtyTracker`, the `TeeSink` joining them), the
/// checkpoint schedule, capture and publication, the telemetry bindings,
/// and the report row. The engine builds one fresh pipeline per shard,
/// drives it on that shard's worker thread and merges afterwards.
///
/// A run is `Add`/`AttachNvm`/`EnableCheckpoints` per replica, then
/// `BeginRun`, then per batch `Drain(items, n)` followed by
/// `AtBatchBoundary(processed)`, then `Report`. Each boundary refreshes
/// every replica's report row from its `StateAccountant`, and telemetry
/// publishes the rows' growth, so metrics attach no sink and leave the
/// batch kernels' closed-form settle intact. Rows cover exactly what the
/// pipeline drained: writes after the last boundary (a merge into the
/// replica) stay out of them.
///
/// Lanes: one thread (the owner) calls every method, in the order above.
/// With more than one lane running, `Drain` hands each replica's
/// `UpdateBatch` to its roster lane and every pre-stage part to its lane,
/// and returns only once every lane has finished the batch, so
/// all per-batch state — sketches, sinks, busy time — is quiescent and
/// visible to the owner whenever `Drain` is not running. Replicas must
/// share no mutable state (scripts/lint.sh gates `static` variables
/// below the `Sketch` API); each replica sees exactly the serial item
/// order, so states, reports and checkpoints are bitwise those of L = 1.
/// `AtBatchBoundary` and everything after it run on the owner alone.
/// `Report` and the destructor stop and join the lanes.
///
/// Pre-stages: before publishing a batch the owner calls every sketch's
/// `PrepareBatch(items, n, L)` with L the `drain_lanes` option, and starts
/// the lanes the largest plan needs. Part k of each plan runs on lane k, so
/// which thread ran what is fixed; each lane runs its parts before its
/// own sketches' `UpdateBatch`, and a sketch with parts first waits for
/// all of them. A sketch's busy time (`wall_seconds`) includes its plan
/// and every part, wherever they ran, and each part is traced as a
/// `prepare:<name>` span on its lane. A failing plan or part is
/// forwarded like a failing `UpdateBatch`, and its sketch skips the
/// batch. With no parts anywhere, `Drain` is the plain per-lane
/// `UpdateBatch` loop.
class ReplicaPipeline {
 public:
  explicit ReplicaPipeline(ReplicaPipelineOptions options = {});
  ~ReplicaPipeline();
  ReplicaPipeline(const ReplicaPipeline&) = delete;
  ReplicaPipeline& operator=(const ReplicaPipeline&) = delete;

  /// \brief Adds the freshly-minted `sketch` under `name`.
  void Add(std::string name, std::unique_ptr<Sketch> sketch);

  /// \brief Prices sketch `i`'s writes live on a fresh device minted from
  /// `spec` (validated by the caller).
  void AttachNvm(size_t i, const NvmSpec& spec);

  /// \brief Checkpoints sketch `i` under the pipeline's policy, minting
  /// snapshot replicas from `factory`. `restorable` selects exact restores
  /// (and delta snapshots) over merge-based full snapshots.
  void EnableCheckpoints(size_t i, SketchFactory factory, bool restorable);

  size_t size() const { return slots_.size(); }
  const std::string& name(size_t i) const { return slots_[i].name; }
  Sketch* sketch(size_t i) const { return slots_[i].sketch.get(); }
  /// \brief Sketch `i`'s live update device, or nullptr.
  LiveNvmSink* live_sink(size_t i) const { return slots_[i].nvm.get(); }
  /// \brief Sketch `i`'s checkpoint device, or nullptr.
  LiveNvmSink* checkpoint_sink(size_t i) const {
    return slots_[i].ckpt_sink.get();
  }
  /// \brief Sketch `i`'s most recent checkpoint, or nullptr.
  const Sketch* snapshot(size_t i) const { return slots_[i].snapshot.get(); }

  /// \brief Starts the run: binds telemetry (both borrowed; null = off)
  /// and starts lanes 1..L-1. A non-null `roster` (the engine's serving
  /// slot for this shard) gets an empty `ShardRoster` now and, at the end
  /// of every batch boundary, one roster holding the boundary's item count
  /// and every sketch's latest checkpoint.
  void BeginRun(MetricsRegistry* metrics, TraceRecorder* trace,
                std::shared_ptr<const ShardRoster>* roster = nullptr);

  /// \brief Lanes running now: 1 before `BeginRun` and after `Report`,
  /// the roster lanes once `BeginRun` returns, plus any pre-stage lanes
  /// `Drain` has started since.
  size_t drain_lanes() const { return lanes_.size() + 1; }

  /// \brief Feeds one batch to every sketch through its pre-stage and
  /// `UpdateBatch`, each lane's sketches in registration order, and
  /// returns once every lane has consumed it. An exception from any
  /// sketch (its plan, a part or its update) is rethrown here, on the
  /// owner, after the barrier; the other sketches still consume the
  /// batch.
  void Drain(const Item* items, size_t n);

  /// \brief Batch-boundary work after `processed` items this run:
  /// telemetry, checkpoint triggers, then the serving roster.
  void AtBatchBoundary(uint64_t processed);

  /// \brief End-of-run barrier: joins the lanes, flushes every device and
  /// returns one row per sketch, publishing the end-of-run wear and cache
  /// probes.
  std::vector<ReplicaSketchReport> Report();

  /// \brief Hands sketch `i` back to the caller after `Report`; the slot
  /// is left empty. A sink the sketch was added with stays attached;
  /// sinks the pipeline attached (`AttachNvm`, `EnableCheckpoints`) are
  /// the pipeline's, so they are detached first.
  std::unique_ptr<Sketch> TakeSketch(size_t i);

 private:
  struct Telemetry {
    Counter* state_changes = nullptr;
    Counter* word_writes = nullptr;
    Gauge* change_rate = nullptr;
    Gauge* wear_rate = nullptr;
    Gauge* live_max_wear = nullptr;  // live device attached only
    Counter* ckpt_full = nullptr;    // checkpointed only, likewise below
    Counter* ckpt_delta = nullptr;
    Counter* ckpt_words = nullptr;
    Counter* published = nullptr;
  };

  /// Checkpoint bookkeeping of one sketch.
  struct CkptTrack {
    uint64_t next_every_items = 0;  // next kEveryItems threshold
    uint64_t writes_at_last = 0;    // live word_writes at last checkpoint
    uint64_t items_at_last = 0;     // items at last checkpoint
    // Snapshot accountant deltas plus the full/delta/published counts.
    SketchRunReport acc;
  };

  // Sinks are declared before the sketch whose accountant points at them,
  // so they are destroyed after it.
  struct Slot {
    std::string name;
    std::string update_span;   // "update:<name>", preformatted
    std::string prepare_span;  // "prepare:<name>", likewise
    std::unique_ptr<LiveNvmSink> nvm;        // live update device
    std::unique_ptr<DirtyTracker> dirty;     // delta checkpoints
    std::unique_ptr<TeeSink> tee;            // when both of the above
    std::unique_ptr<LiveNvmSink> ckpt_sink;  // checkpoint device
    std::optional<SketchFactory> factory;    // checkpointed only
    bool restorable = false;
    // Serving only: the latest checkpoint as readers see it.
    std::shared_ptr<const ShardSnapshot> published;
    // The most recent checkpoint (persistent across checkpoints in delta
    // mode, replaced by full ones). Shared because full-mode serving
    // publishes it directly.
    std::shared_ptr<Sketch> snapshot;
    std::unique_ptr<Sketch> sketch;
    CkptTrack ckpt;
    SketchRunReport row;        // counters at the last batch boundary
    double busy_seconds = 0.0;  // in updates and pre-stages
    Telemetry tele;
    // This batch's pre-stage: its part count (set by the owner before the
    // batch is published) and the seconds lane k spent in part k, written
    // by lane k alone and folded into busy_seconds after the barrier.
    size_t parts = 0;
    std::vector<double> part_seconds;
    // Parts still running, and whether the plan or a part failed; under
    // lane_mu_ while parts run.
    size_t parts_left = 0;
    bool part_failed = false;
  };

  void Rewire(Slot* slot);
  void Checkpoint(Slot* slot, uint64_t processed);
  void PublishRoster();
  // Starts lanes up to `lanes` running in all (never stops any).
  void StartLanes(size_t lanes);
  // Runs part `lane` of every pre-stage, then, on a roster lane, drains
  // one batch into the lane's slots; returns the lane's first failure.
  std::exception_ptr DrainLane(size_t lane, const Item* items, size_t n);
  // Body of lane thread `lane`, started after batch `seen`: drains each
  // later published batch, then checks in.
  void LaneLoop(size_t lane, uint64_t seen);
  void StopLanes();

  ReplicaPipelineOptions options_;
  std::vector<Slot> slots_;
  MetricsRegistry* metrics_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  std::shared_ptr<const ShardRoster>* roster_ = nullptr;  // serving only
  uint64_t processed_ = 0;
  // Lanes that own slots; set by `BeginRun` before any lane starts.
  size_t roster_lanes_ = 1;
  Counter* items_ = nullptr;    // telemetry on only
  Counter* batches_ = nullptr;

  // Lane hand-off: the owning thread publishes a batch (a new
  // `batch_seq_`) under `lane_mu_`; each lane drains it and decrements
  // `lanes_busy_`.
  std::mutex lane_mu_;
  std::condition_variable lane_wake_;
  std::condition_variable lane_done_;
  std::condition_variable parts_done_;  // some slot's last part finished
  const Item* batch_items_ = nullptr;
  size_t batch_n_ = 0;
  uint64_t batch_seq_ = 0;
  size_t lanes_busy_ = 0;
  std::exception_ptr lane_error_;  // first lane failure of the batch
  bool stopping_ = false;
  // Declared after `slots_`, which the lanes update; joined by
  // `StopLanes` before either is destroyed.
  std::vector<std::thread> lanes_;
};

}  // namespace fewstate

#endif  // FEWSTATE_API_REPLICA_PIPELINE_H_
