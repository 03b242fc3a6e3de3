#include "api/replica_pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "api/item_source.h"
#include "api/mergeable.h"
#include "obs/trace.h"
#include "obs/wear_probe.h"
#include "recover/restorable.h"

namespace fewstate {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

MetricLabels With(MetricLabels labels, const std::string& key,
                  const std::string& value) {
  labels.emplace_back(key, value);
  return labels;
}

// "shard-<s>-lane-<k>" under a `shard` label, "lane-<k>" without one.
std::string LaneThreadName(const MetricLabels& labels, size_t lane) {
  std::string name;
  for (const auto& [key, value] : labels) {
    if (key == "shard") name = "shard-" + value + "-";
  }
  return name + "lane-" + std::to_string(lane);
}

// Failures here are a broken factory or sketch (every Make() must mint an
// identical configuration) — programming errors, so the engine dies like
// it does on invalid registration rather than report a half-done run.
void CheckOrDie(const Status& status, const char* what,
                const std::string& name) {
  if (status.ok()) return;
  std::fprintf(stderr, "ReplicaPipeline: %s of '%s' failed: %s\n", what,
               name.c_str(), status.ToString().c_str());
  std::abort();
}

}  // namespace

void PublishSourceStatus(const ItemSource& source, MetricsRegistry* metrics,
                         TraceRecorder* trace) {
  if (source.status().ok()) return;
  if (metrics != nullptr) {
    metrics->GetCounter("fewstate_source_errors_total")->Increment();
  }
  if (trace != nullptr) trace->Instant("source_error", "source");
}

void SketchRunReport::Accumulate(const SketchRunReport& delta) {
  updates += delta.updates;
  state_changes += delta.state_changes;
  word_writes += delta.word_writes;
  suppressed_writes += delta.suppressed_writes;
  word_reads += delta.word_reads;
  wall_seconds += delta.wall_seconds;
}

AccountantSnapshot AccountantSnapshot::Of(const StateAccountant& a) {
  AccountantSnapshot s;
  s.updates = a.updates();
  s.state_changes = a.state_changes();
  s.word_writes = a.word_writes();
  s.suppressed_writes = a.suppressed_writes();
  s.word_reads = a.word_reads();
  return s;
}

SketchRunReport AccountantSnapshot::DeltaTo(
    const AccountantSnapshot& after) const {
  SketchRunReport d;
  d.updates = after.updates - updates;
  d.state_changes = after.state_changes - state_changes;
  d.word_writes = after.word_writes - word_writes;
  d.suppressed_writes = after.suppressed_writes - suppressed_writes;
  d.word_reads = after.word_reads - word_reads;
  return d;
}

ReplicaPipeline::ReplicaPipeline(ReplicaPipelineOptions options)
    : options_(std::move(options)) {}

ReplicaPipeline::~ReplicaPipeline() { StopLanes(); }

void ReplicaPipeline::Add(std::string name, std::unique_ptr<Sketch> sketch) {
  Slot slot;
  slot.update_span = "update:" + name;
  slot.prepare_span = "prepare:" + name;
  slot.name = std::move(name);
  slot.sketch = std::move(sketch);
  slot.row.peak_allocated_words =
      slot.sketch->accountant().peak_allocated_words();
  slots_.push_back(std::move(slot));
}

void ReplicaPipeline::AttachNvm(size_t i, const NvmSpec& spec) {
  slots_[i].nvm = std::make_unique<LiveNvmSink>(spec);
  Rewire(&slots_[i]);
}

void ReplicaPipeline::EnableCheckpoints(size_t i, SketchFactory factory,
                                        bool restorable) {
  const CheckpointPolicy& policy = options_.checkpoint_policy;
  if (!policy.enabled()) return;
  Slot& slot = slots_[i];
  slot.factory.emplace(std::move(factory));
  slot.restorable = restorable;
  // The checkpoint device persists across this replica's checkpoints
  // (re-snapshotting the same region accrues wear).
  slot.ckpt_sink = std::make_unique<LiveNvmSink>(options_.checkpoint_nvm);
  if (policy.trigger == CheckpointPolicy::Trigger::kEveryItems) {
    slot.ckpt.next_every_items = policy.every_items;
  }
  if (policy.needs_dirty_tracking()) {
    slot.dirty = std::make_unique<DirtyTracker>();
    Rewire(&slot);
  }
}

// Joins the slot's sinks into the accountant's one sink, attached before
// any update of the run so it sees the sketch's whole run.
void ReplicaPipeline::Rewire(Slot* slot) {
  std::vector<WriteSink*> chain;
  if (slot->dirty != nullptr) chain.push_back(slot->dirty.get());
  if (slot->nvm != nullptr) chain.push_back(slot->nvm.get());
  std::unique_ptr<TeeSink> tee;
  if (chain.size() > 1) tee = std::make_unique<TeeSink>(chain);
  slot->sketch->mutable_accountant()->set_write_sink(
      tee != nullptr ? tee.get() : chain.front());
  slot->tee = std::move(tee);
}

void ReplicaPipeline::BeginRun(
    MetricsRegistry* metrics, TraceRecorder* trace,
    std::shared_ptr<const ShardRoster>* roster) {
  metrics_ = metrics;
  trace_ = trace;
  roster_ = roster;
  // The empty roster of boundary 0 replaces the previous run's; readers
  // holding views of it keep them alive through their own shared_ptrs.
  PublishRoster();
  roster_lanes_ =
      std::max<size_t>(1, std::min(options_.drain_lanes, slots_.size()));
  StartLanes(roster_lanes_);
  if (metrics_ == nullptr) return;
  items_ = metrics_->GetCounter("fewstate_shard_items_total", options_.labels);
  batches_ =
      metrics_->GetCounter("fewstate_batches_drained_total", options_.labels);
  // Telemetry bindings are resolved once here, so batch boundaries touch
  // only held pointers — never the registry mutex.
  for (Slot& slot : slots_) {
    Telemetry& t = slot.tele;
    const MetricLabels labels = With(options_.labels, "sketch", slot.name);
    t.state_changes =
        metrics_->GetCounter("fewstate_sketch_state_changes_total", labels);
    t.word_writes =
        metrics_->GetCounter("fewstate_sketch_word_writes_total", labels);
    t.change_rate = metrics_->GetGauge("fewstate_sketch_change_rate", labels);
    t.wear_rate = metrics_->GetGauge("fewstate_sketch_wear_rate", labels);
    if (slot.nvm != nullptr) {
      t.live_max_wear = metrics_->GetGauge("fewstate_nvm_max_cell_wear",
                                           With(labels, "device", "live"));
    }
    if (slot.ckpt_sink != nullptr) {
      t.ckpt_full = metrics_->GetCounter("fewstate_checkpoints_total",
                                         With(labels, "kind", "full"));
      t.ckpt_delta = metrics_->GetCounter("fewstate_checkpoints_total",
                                          With(labels, "kind", "delta"));
      t.ckpt_words =
          metrics_->GetCounter("fewstate_checkpoint_word_writes_total", labels);
      t.published =
          metrics_->GetCounter("fewstate_snapshots_published_total", labels);
    }
  }
}

void ReplicaPipeline::StartLanes(size_t lanes) {
  // A lane started between batches waits for the next one published.
  for (size_t lane = drain_lanes(); lane < lanes; ++lane) {
    lanes_.emplace_back(
        [this, lane, seen = batch_seq_] { LaneLoop(lane, seen); });
  }
}

void ReplicaPipeline::Drain(const Item* items, size_t n) {
  if (trace_ != nullptr) trace_->Begin("batch_drain", "ingest");
  // Every pre-stage is planned here, before any lane sees the batch, for
  // as many lanes as the pipeline may run. A sketch whose plan fails
  // skips the batch, like one whose part fails.
  const size_t max_lanes = std::max<size_t>(1, options_.drain_lanes);
  size_t max_parts = 0;
  std::exception_ptr error;
  for (Slot& slot : slots_) {
    const Clock::time_point t0 = Clock::now();
    slot.parts = 0;
    slot.part_failed = false;
    try {
      slot.parts = slot.sketch->PrepareBatch(items, n, max_lanes);
    } catch (...) {
      slot.part_failed = true;
      if (error == nullptr) error = std::current_exception();
    }
    slot.busy_seconds += Seconds(t0, Clock::now());
    slot.parts_left = slot.parts;
    if (slot.part_seconds.size() < slot.parts) {
      slot.part_seconds.resize(slot.parts, 0.0);
    }
    max_parts = std::max(max_parts, slot.parts);
  }
  // Part k runs on lane k: a plan with more parts than the running lanes
  // starts the pre-stage lanes it needs, and they stay for the run.
  StartLanes(max_parts);
  const size_t lanes = drain_lanes();
  if (lanes > 1) {
    {
      std::lock_guard<std::mutex> lock(lane_mu_);
      batch_items_ = items;
      batch_n_ = n;
      ++batch_seq_;
      lanes_busy_ = lanes - 1;
    }
    lane_wake_.notify_all();
  }
  // DrainLane returns failures rather than throwing them: the barrier
  // must hold, since the lanes still read `items`, which the caller may
  // free once `Drain` leaves.
  const std::exception_ptr lane_zero_error = DrainLane(0, items, n);
  if (error == nullptr) error = lane_zero_error;
  if (lanes > 1) {
    // The barrier: every replica has consumed the batch, and the lanes'
    // writes are visible here, before any boundary work reads them.
    std::unique_lock<std::mutex> lock(lane_mu_);
    lane_done_.wait(lock, [this] { return lanes_busy_ == 0; });
    if (error == nullptr) error = lane_error_;
    lane_error_ = nullptr;
  }
  // Each lane timed the parts it ran in its own accumulator; the sketch
  // they served is charged here, on the owner.
  for (Slot& slot : slots_) {
    for (double& seconds : slot.part_seconds) {
      slot.busy_seconds += seconds;
      seconds = 0.0;
    }
  }
  if (trace_ != nullptr) trace_->End("batch_drain", "ingest");
  if (error != nullptr) std::rethrow_exception(error);
}

std::exception_ptr ReplicaPipeline::DrainLane(size_t lane, const Item* items,
                                              size_t n) {
  std::exception_ptr error;
  // Part `lane` of every planned pre-stage first: no lane waits below
  // until it has run all of its own parts, so every wait ends.
  for (Slot& slot : slots_) {
    if (lane >= slot.parts) continue;
    if (trace_ != nullptr) trace_->Begin(slot.prepare_span, "prepare");
    const Clock::time_point t0 = Clock::now();
    bool failed = false;
    try {
      slot.sketch->PreparePart(lane);
    } catch (...) {
      failed = true;
      if (error == nullptr) error = std::current_exception();
    }
    slot.part_seconds[lane] += Seconds(t0, Clock::now());
    if (trace_ != nullptr) trace_->End(slot.prepare_span, "prepare");
    std::lock_guard<std::mutex> lock(lane_mu_);
    slot.part_failed = slot.part_failed || failed;
    if (--slot.parts_left == 0) parts_done_.notify_all();
  }
  // Blocked: each sketch consumes the whole batch in turn, so timing costs
  // two clock reads per (sketch, batch), and each sketch's update order is
  // that of a single pass over the items. A failure skips only the sketch
  // that failed. Pre-stage lanes own no slot.
  for (size_t i = lane; lane < roster_lanes_ && i < slots_.size();
       i += roster_lanes_) {
    Slot& slot = slots_[i];
    if (slot.parts > 0) {
      std::unique_lock<std::mutex> lock(lane_mu_);
      parts_done_.wait(lock, [&slot] { return slot.parts_left == 0; });
    }
    // Final once the parts are done: a sketch whose plan or part failed
    // misses this batch, and whoever ran that reports the failure.
    if (slot.part_failed) continue;
    if (trace_ != nullptr) trace_->Begin(slot.update_span, "update");
    const Clock::time_point t0 = Clock::now();
    try {
      slot.sketch->UpdateBatch(items, n);
    } catch (...) {
      if (error == nullptr) error = std::current_exception();
    }
    slot.busy_seconds += Seconds(t0, Clock::now());
    if (trace_ != nullptr) trace_->End(slot.update_span, "update");
  }
  return error;
}

void ReplicaPipeline::LaneLoop(size_t lane, uint64_t seen) {
  if (trace_ != nullptr) {
    trace_->SetCurrentThreadName(LaneThreadName(options_.labels, lane));
  }
  for (;;) {
    const Item* items = nullptr;
    size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(lane_mu_);
      lane_wake_.wait(lock,
                      [&] { return stopping_ || batch_seq_ != seen; });
      // The owning thread stops the lanes only between batches.
      if (stopping_) return;
      seen = batch_seq_;
      items = batch_items_;
      n = batch_n_;
    }
    // A lane's failure is forwarded to the owning thread, which rethrows
    // it from `Drain` after the barrier.
    const std::exception_ptr error = DrainLane(lane, items, n);
    std::lock_guard<std::mutex> lock(lane_mu_);
    if (lane_error_ == nullptr) lane_error_ = error;
    if (--lanes_busy_ == 0) lane_done_.notify_one();
  }
}

void ReplicaPipeline::StopLanes() {
  if (lanes_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(lane_mu_);
    stopping_ = true;
  }
  lane_wake_.notify_all();
  for (std::thread& lane : lanes_) lane.join();
  lanes_.clear();
  // Past the run, the owner drains alone, starting pre-stage lanes anew.
  stopping_ = false;
  roster_lanes_ = 1;
}

void ReplicaPipeline::AtBatchBoundary(uint64_t processed) {
  const uint64_t batch = processed - processed_;
  processed_ = processed;
  // Refresh every report row from its accountant; telemetry folds the
  // rows' growth over this batch into the shared counters and refreshes
  // the live rate gauges.
  if (metrics_ != nullptr) {
    items_->Increment(batch);
    batches_->Increment();
  }
  const double batch_size = static_cast<double>(batch);
  for (Slot& slot : slots_) {
    const StateAccountant& a = slot.sketch->accountant();
    const uint64_t changes = slot.row.state_changes;
    const uint64_t writes = slot.row.word_writes;
    // The replica was minted for this run, so its totals are the run's.
    slot.row = AccountantSnapshot().DeltaTo(AccountantSnapshot::Of(a));
    slot.row.peak_allocated_words = a.peak_allocated_words();
    if (metrics_ == nullptr) continue;
    const Telemetry& t = slot.tele;
    t.state_changes->Increment(slot.row.state_changes - changes);
    t.word_writes->Increment(slot.row.word_writes - writes);
    t.change_rate->Set(
        static_cast<double>(slot.row.state_changes - changes) / batch_size);
    t.wear_rate->Set(static_cast<double>(slot.row.word_writes - writes) /
                     batch_size);
    if (t.live_max_wear != nullptr) {
      t.live_max_wear->Set(
          static_cast<double>(slot.nvm->device().max_cell_wear()));
    }
  }
  // Triggers are evaluated at batch boundaries — deterministic for a fixed
  // item sequence and batching, since write counts and dirty sets are.
  const CheckpointPolicy& policy = options_.checkpoint_policy;
  for (Slot& slot : slots_) {
    if (slot.ckpt_sink == nullptr) continue;  // not checkpointed
    CkptTrack& track = slot.ckpt;
    switch (policy.trigger) {
      case CheckpointPolicy::Trigger::kEveryItems:
        while (processed >= track.next_every_items) {
          Checkpoint(&slot, processed);
          track.next_every_items += policy.every_items;
        }
        break;
      case CheckpointPolicy::Trigger::kWriteBudget:
        if (slot.sketch->accountant().word_writes() - track.writes_at_last >=
            policy.write_budget) {
          Checkpoint(&slot, processed);
        }
        break;
      case CheckpointPolicy::Trigger::kNone:
        break;
    }
  }
  PublishRoster();
}

// Swaps this boundary's progress and every sketch's latest checkpoint into
// the serving slot as one immutable roster: the only store to it.
void ReplicaPipeline::PublishRoster() {
  if (roster_ == nullptr) return;
  auto roster = std::make_shared<ShardRoster>();
  roster->items = processed_;
  roster->snapshots.reserve(slots_.size());
  for (const Slot& slot : slots_) roster->snapshots.push_back(slot.published);
  std::atomic_store(roster_,
                    std::shared_ptr<const ShardRoster>(std::move(roster)));
}

// Serializes the live sketch into its snapshot, pricing the writes on the
// checkpoint device. A *full* checkpoint rewrites the whole state region
// (a freshly-minted snapshot absorbs the live sketch — every nonzero word
// costs a device write); a *delta* checkpoint overwrites the persistent
// snapshot with just the words the `DirtyTracker` saw change, which for
// the paper's write-frugal sketches is a tiny fraction of state.
void ReplicaPipeline::Checkpoint(Slot* slot, uint64_t processed) {
  const CheckpointPolicy& policy = options_.checkpoint_policy;
  const Sketch& live = *slot->sketch;
  DirtyTracker* dirty = slot->dirty.get();
  CkptTrack& track = slot->ckpt;
  if (trace_ != nullptr) {
    trace_->Instant("policy_trigger", "checkpoint", processed);
  }
  const uint64_t ckpt_words_before = track.acc.word_writes;
  // Delta only when the policy asks for it, the sketch supports exact
  // restores, a base snapshot exists, and the dirty fraction is below the
  // full-rewrite threshold (past it, a delta costs a rewrite anyway).
  bool full = true;
  if (policy.snapshot == CheckpointPolicy::Snapshot::kDelta &&
      slot->restorable && slot->snapshot != nullptr && dirty != nullptr) {
    const uint64_t allocated = live.accountant().allocated_words();
    const double fraction =
        allocated == 0 ? 1.0
                       : static_cast<double>(dirty->dirty_words()) /
                             static_cast<double>(allocated);
    full = fraction >= policy.full_snapshot_dirty_fraction;
  }
  const Clock::time_point t0 = Clock::now();
  // Explicit Begin/End (not TraceSpan): the capture span must close before
  // the publish span below opens, and the only other exits are aborts.
  if (trace_ != nullptr) trace_->Begin("checkpoint_capture", "checkpoint");
  // A fresh snapshot is charged its whole accountant, construction-time
  // writes included (a zero `pre`).
  AccountantSnapshot pre;
  if (full) {
    std::unique_ptr<Sketch> fresh = slot->factory->Make();
    fresh->mutable_accountant()->set_write_sink(slot->ckpt_sink.get());
    CheckOrDie(slot->restorable
                   ? AsRestorable(fresh.get())->RestoreFrom(live)
                   : AsMergeable(fresh.get())->MergeFrom(live),
               "checkpoint", slot->name);
    slot->snapshot = std::move(fresh);
    ++track.acc.full_checkpoints;
  } else {
    pre = AccountantSnapshot::Of(slot->snapshot->accountant());
    CheckOrDie(AsRestorable(slot->snapshot.get())->RestoreDirty(live, *dirty),
               "delta checkpoint", slot->name);
    ++track.acc.delta_checkpoints;
  }
  track.acc.Accumulate(
      pre.DeltaTo(AccountantSnapshot::Of(slot->snapshot->accountant())));
  if (trace_ != nullptr) trace_->End("checkpoint_capture", "checkpoint");
  track.acc.wall_seconds += Seconds(t0, Clock::now());
  // The next interval's dirty set and budgets start now.
  if (dirty != nullptr) dirty->ClearDirty();
  track.writes_at_last = live.accountant().word_writes();
  track.items_at_last = processed;
  const Telemetry& t = slot->tele;
  if (metrics_ != nullptr) {
    (full ? t.ckpt_full : t.ckpt_delta)->Increment();
    t.ckpt_words->Increment(track.acc.word_writes - ckpt_words_before);
  }
  if (roster_ == nullptr) return;
  TraceSpan publish_span(trace_, "checkpoint_publish", "checkpoint");
  // Serve the capture; the boundary's roster carries it to readers.
  // Whenever the checkpoint minted a snapshot that nothing will mutate
  // again — every checkpoint outside (kDelta && restorable) — publish it
  // directly, zero-copy. In
  // delta mode the base snapshot is the mutation target of the *next*
  // delta, so serve a freshly minted copy instead, priced as bulk reads
  // of the checkpoint region (serving re-reads durable state; reads cost
  // energy, never wear). The copy is never written again once published,
  // so readers release it through the shared_ptr count alone; reusing a
  // buffer would need a hand-back that orders the readers' last reads
  // before the next restore into it.
  std::shared_ptr<const Sketch> to_publish;
  if (policy.snapshot != CheckpointPolicy::Snapshot::kDelta ||
      !slot->restorable) {
    to_publish = slot->snapshot;
  } else {
    std::shared_ptr<Sketch> copy = slot->factory->Make();
    CheckOrDie(AsRestorable(copy.get())->RestoreFrom(live), "serving copy",
               slot->name);
    slot->ckpt_sink->OnBulkReads(
        slot->snapshot->accountant().allocated_words());
    to_publish = std::move(copy);
  }
  auto published = std::make_shared<ShardSnapshot>();
  published->sketch = std::move(to_publish);
  published->items_at_checkpoint = processed;
  published->sequence =
      track.acc.full_checkpoints + track.acc.delta_checkpoints;
  slot->published = std::move(published);
  ++track.acc.snapshots_published;
  if (metrics_ != nullptr) t.published->Increment();
}

std::vector<ReplicaSketchReport> ReplicaPipeline::Report() {
  StopLanes();
  std::vector<ReplicaSketchReport> rows(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    ReplicaSketchReport& row = rows[i];
    row.ingest = slot.row;
    row.ingest.name = slot.name;
    row.ingest.wall_seconds = slot.busy_seconds;
    // LiveNvmSink::Report() flushes first: the end-of-phase barrier of the
    // sink contract, so cached devices report their pending write-backs.
    if (slot.nvm != nullptr) {
      row.ingest.has_nvm = true;
      row.ingest.nvm = slot.nvm->Report();
    }
    if (slot.ckpt_sink != nullptr) {
      row.checkpoint = slot.ckpt.acc;
      row.checkpoint.name = slot.name;
      row.checkpoint.has_nvm = true;
      row.checkpoint.nvm = slot.ckpt_sink->Report();
      row.last_checkpoint_items = slot.ckpt.items_at_last;
    }
    if (metrics_ == nullptr) continue;
    // Full wear summaries (max/p99/mean over written cells) under the
    // labels the live gauges used. O(cells) per device, paid once, after
    // the timed phases.
    const MetricLabels labels = With(options_.labels, "sketch", slot.name);
    for (const auto& [device, kind] :
         {std::make_pair(slot.nvm.get(), "live"),
          std::make_pair(slot.ckpt_sink.get(), "checkpoint")}) {
      if (device == nullptr) continue;
      const MetricLabels device_labels = With(labels, "device", kind);
      PublishWearStats(metrics_, device_labels,
                       ComputeWearStats(device->device()));
      if (const CacheTier* cache = device->cache()) {
        PublishCacheStats(metrics_, device_labels, cache->stats());
        PublishCacheReuseHistogram(metrics_, device_labels, cache->stats());
      }
    }
  }
  return rows;
}

std::unique_ptr<Sketch> ReplicaPipeline::TakeSketch(size_t i) {
  Slot& slot = slots_[i];
  if (slot.nvm != nullptr || slot.dirty != nullptr) {
    slot.sketch->mutable_accountant()->set_write_sink(nullptr);
  }
  return std::move(slot.sketch);
}

}  // namespace fewstate
