#include "shard/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "api/mergeable.h"
#include "common/cpus.h"
#include "common/random.h"
#include "recover/restorable.h"

namespace fewstate {

namespace {

using Clock = std::chrono::steady_clock;

// Seed of the item -> shard hash. Partitioning is by item identity, so all
// occurrences of an item land on one shard — required for the
// counter-based summaries to merge meaningfully.
constexpr uint64_t kPartitionSeed = 0x5a4dedb175ULL;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Bounded FIFO of item batches between the partitioner and one shard
/// worker. `Push` blocks when the worker is `max_batches` behind
/// (backpressure); `Pop` blocks until a batch arrives or the queue is
/// closed and drained. With `metrics`, the queue publishes shard `shard`'s
/// live depth, the run's high-water depth, and the number of pushes that
/// actually blocked on backpressure; all stores happen under the queue
/// lock the caller already pays for.
class BatchQueue {
 public:
  BatchQueue(size_t max_batches, MetricsRegistry* metrics, size_t shard)
      : max_batches_(max_batches) {
    if (metrics == nullptr) return;
    const MetricLabels labels{{"shard", std::to_string(shard)}};
    depth_ = metrics->GetGauge("fewstate_shard_queue_depth", labels);
    peak_depth_ = metrics->GetGauge("fewstate_shard_queue_peak_depth", labels);
    backpressure_ =
        metrics->GetCounter("fewstate_backpressure_waits_total", labels);
  }

  void Push(Stream batch) {
    std::unique_lock<std::mutex> lock(mu_);
    if (backpressure_ != nullptr && batches_.size() >= max_batches_) {
      backpressure_->Increment();
    }
    not_full_.wait(lock, [this] { return batches_.size() < max_batches_; });
    batches_.push_back(std::move(batch));
    PublishDepth();
    not_empty_.notify_one();
  }

  bool Pop(Stream* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !batches_.empty() || closed_; });
    if (batches_.empty()) return false;
    *out = std::move(batches_.front());
    batches_.pop_front();
    PublishDepth();
    not_full_.notify_one();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  void PublishDepth() {  // callers hold mu_
    if (depth_ == nullptr) return;
    depth_->Set(static_cast<double>(batches_.size()));
    if (batches_.size() > peak_seen_) {
      peak_seen_ = batches_.size();
      peak_depth_->Set(static_cast<double>(peak_seen_));
    }
  }

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Stream> batches_;
  size_t max_batches_;
  Gauge* depth_ = nullptr;  // telemetry on only, likewise below
  Gauge* peak_depth_ = nullptr;
  Counter* backpressure_ = nullptr;
  size_t peak_seen_ = 0;
  bool closed_ = false;
};

// A caller-supplied label (or a sketch name built from one) containing a
// comma, quote or line break would shift or split every downstream CSV
// column; neuter those characters rather than emit a malformed row.
std::string CsvSanitize(const std::string& field) {
  std::string out = field;
  for (char& c : out) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

// printf onto the end of `out`. The string grows to fit, so a long label
// never truncates a report line or CSV row.
__attribute__((format(printf, 2, 3))) void Appendf(std::string* out,
                                                   const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  if (n > 0) {
    const size_t old_size = out->size();
    out->resize(old_size + static_cast<size_t>(n) + 1);
    std::vsnprintf(&(*out)[old_size], static_cast<size_t>(n) + 1, format,
                   args);
    out->resize(old_size + static_cast<size_t>(n));
  }
  va_end(args);
}

}  // namespace

std::string SketchReportCsvRow(const std::string& label,
                               const std::string& sketch,
                               const SketchRunReport& row) {
  const std::string safe_label = CsvSanitize(label);
  const std::string safe_sketch = CsvSanitize(sketch);
  const bool cached = row.has_nvm && row.nvm.cache_enabled;
  std::string line;
  Appendf(&line,
          "%s,%s,%llu,%llu,%llu,%llu,%llu,%llu,%.6f,%llu,%llu,%.6g,"
          "%.6g,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
          safe_label.c_str(), safe_sketch.c_str(),
          static_cast<unsigned long long>(row.updates),
          static_cast<unsigned long long>(row.state_changes),
          static_cast<unsigned long long>(row.word_writes),
          static_cast<unsigned long long>(row.suppressed_writes),
          static_cast<unsigned long long>(row.word_reads),
          static_cast<unsigned long long>(row.peak_allocated_words),
          row.wall_seconds,
          static_cast<unsigned long long>(
              row.has_nvm ? row.nvm.writes_replayed : 0),
          static_cast<unsigned long long>(
              row.has_nvm ? row.nvm.max_cell_wear : 0),
          row.has_nvm ? row.nvm.energy_nj : 0.0,
          row.has_nvm ? row.nvm.projected_stream_replays_to_failure : 0.0,
          static_cast<unsigned long long>(
              row.has_nvm ? row.nvm.dropped_writes : 0),
          static_cast<unsigned long long>(row.full_checkpoints),
          static_cast<unsigned long long>(row.delta_checkpoints),
          static_cast<unsigned long long>(row.snapshots_published),
          static_cast<unsigned long long>(cached ? row.nvm.cache.hits : 0),
          static_cast<unsigned long long>(
              cached ? row.nvm.cache.absorbed_writes : 0),
          static_cast<unsigned long long>(
              cached ? row.nvm.cache.dirty_evictions : 0),
          static_cast<unsigned long long>(
              cached ? row.nvm.cache.writebacks : 0),
          static_cast<unsigned long long>(
              cached ? row.nvm.cache.ReuseP50() : 0));
  return line;
}

const ShardedSketchReport* ShardedRunReport::Find(
    const std::string& name) const {
  for (const ShardedSketchReport& s : sketches) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string ShardedRunReport::ToString() const {
  std::string out;
  Appendf(&out,
          "sharded run: shards=%zu batch=%zu items_ingested=%llu "
          "ingest=%.6fs merge=%.6fs wall=%.6fs throughput=%.0f items/s\n",
          shards, batch_items, static_cast<unsigned long long>(items_ingested),
          ingest_seconds, merge_seconds, wall_seconds, items_per_second);
  out += "  shard items:";
  for (uint64_t items : shard_items) {
    Appendf(&out, " %llu", static_cast<unsigned long long>(items));
  }
  out += '\n';
  for (const ShardedSketchReport& s : sketches) {
    Appendf(
        &out,
        "  %-24s total: state_changes=%-10llu word_writes=%-10llu "
        "suppressed=%-8llu reads=%-10llu (merge: changes=%llu writes=%llu)\n",
        s.name.c_str(), static_cast<unsigned long long>(s.total.state_changes),
        static_cast<unsigned long long>(s.total.word_writes),
        static_cast<unsigned long long>(s.total.suppressed_writes),
        static_cast<unsigned long long>(s.total.word_reads),
        static_cast<unsigned long long>(s.merge.state_changes),
        static_cast<unsigned long long>(s.merge.word_writes));
    if (s.total.has_nvm) {
      Appendf(
          &out,
          "    nvm (all devices): writes=%-10llu max_wear=%-8llu "
          "energy=%.3gnJ replays_to_eol=%.4g\n",
          static_cast<unsigned long long>(s.total.nvm.writes_replayed),
          static_cast<unsigned long long>(s.total.nvm.max_cell_wear),
          s.total.nvm.energy_nj,
          s.total.nvm.projected_stream_replays_to_failure);
    }
    if (s.checkpoints_taken > 0) {
      Appendf(
          &out,
          "    checkpoints=%-4llu (full=%llu delta=%llu published=%llu) "
          "snapshot_writes=%-10llu ckpt_nvm_max_wear=%-8llu "
          "ckpt_replays_to_eol=%.4g\n",
          static_cast<unsigned long long>(s.checkpoints_taken),
          static_cast<unsigned long long>(s.checkpoint.full_checkpoints),
          static_cast<unsigned long long>(s.checkpoint.delta_checkpoints),
          static_cast<unsigned long long>(s.snapshots_published),
          static_cast<unsigned long long>(s.checkpoint.word_writes),
          static_cast<unsigned long long>(s.checkpoint.nvm.max_cell_wear),
          s.checkpoint.nvm.projected_stream_replays_to_failure);
    }
    for (size_t shard = 0; shard < s.per_shard.size(); ++shard) {
      const SketchRunReport& p = s.per_shard[shard];
      Appendf(
          &out,
          "    shard %-2zu items=%-10llu state_changes=%-10llu "
          "word_writes=%-10llu wall=%.6fs\n",
          shard, static_cast<unsigned long long>(p.updates),
          static_cast<unsigned long long>(p.state_changes),
          static_cast<unsigned long long>(p.word_writes), p.wall_seconds);
    }
  }
  return out;
}

std::string ShardedRunReport::CsvHeader() {
  return "label,sketch,updates,state_changes,word_writes,suppressed_writes,"
         "word_reads,peak_words,wall_seconds,nvm_writes,nvm_max_wear,"
         "nvm_energy_nj,nvm_replays_to_eol,nvm_dropped,ckpt_full,ckpt_delta,"
         "ckpt_published,cache_hits,absorbed_writes,dirty_evictions,"
         "writebacks,cache_reuse_p50";
}

std::string ShardedRunReport::ToCsv(const std::string& label) const {
  std::string out;
  for (const ShardedSketchReport& s : sketches) {
    for (size_t shard = 0; shard < s.per_shard.size(); ++shard) {
      out += SketchReportCsvRow(
          label, s.name + "[shard" + std::to_string(shard) + "]",
          s.per_shard[shard]);
      out += '\n';
    }
    out += SketchReportCsvRow(label, s.name + "[merge]", s.merge);
    out += '\n';
    if (s.checkpoints_taken > 0) {
      out += SketchReportCsvRow(label, s.name + "[checkpoint]", s.checkpoint);
      out += '\n';
    }
    out += SketchReportCsvRow(label, s.name + "[total]", s.total);
    out += '\n';
  }
  return out;
}

ShardedEngine::ShardedEngine(const ShardedEngineOptions& options)
    : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.batch_items == 0) options_.batch_items = 1;
  if (options_.max_queued_batches == 0) options_.max_queued_batches = 1;
  const CheckpointPolicy& policy = options_.checkpoint_policy;
  // An invalid checkpoint device is a programming error, caught at setup
  // — not mid-run.
  if (policy.enabled()) {
    const Status valid = options_.checkpoint_nvm.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr,
                   "ShardedEngine: invalid checkpoint_nvm spec: %s\n",
                   valid.ToString().c_str());
      std::abort();
    }
  }
  // Serving publishes checkpoints; without a schedule nothing would ever
  // be published, which is a silently-empty view — a setup error.
  if (options_.serve_snapshots && !policy.enabled()) {
    std::fprintf(stderr,
                 "ShardedEngine: serve_snapshots requires an enabled "
                 "checkpoint_policy (nothing publishes without "
                 "checkpoints)\n");
    std::abort();
  }
  // Null until a serving Run begins.
  rosters_.resize(options_.shards);
}

Status ShardedEngine::AddSketch(SketchFactory factory) {
  return AddSketchEntry(std::move(factory), /*has_nvm=*/false, NvmSpec());
}

Status ShardedEngine::AddSketch(SketchFactory factory,
                                const NvmSpec& nvm_spec) {
  const Status valid = nvm_spec.Validate();
  if (!valid.ok()) return valid;
  return AddSketchEntry(std::move(factory), /*has_nvm=*/true, nvm_spec);
}

Status ShardedEngine::AddSketchEntry(SketchFactory factory, bool has_nvm,
                                     const NvmSpec& nvm_spec) {
  if (IndexOf(factory.name()) != entries_.size()) {
    return Status::InvalidArgument("ShardedEngine::AddSketch: duplicate name '" +
                                   factory.name() + "'");
  }
  std::unique_ptr<Sketch> probe = factory.Make();
  if (probe == nullptr) {
    return Status::InvalidArgument(
        "ShardedEngine::AddSketch: factory for '" + factory.name() +
        "' returned null");
  }
  const bool mergeable = IsMergeable(*probe);
  if (!mergeable && options_.shards > 1) {
    return Status::FailedPrecondition(
        "ShardedEngine::AddSketch: '" + factory.name() +
        "' is not mergeable; a multi-shard engine requires MergeableSketch "
        "implementations (run it in a shards=1 engine instead)");
  }
  const bool restorable = IsRestorable(*probe);
  Entry entry{std::move(factory), mergeable, restorable, has_nvm, nvm_spec};
  entries_.push_back(std::move(entry));
  return Status::OK();
}

size_t ShardedEngine::ShardOf(Item item) const {
  return options_.shards == 1
             ? 0
             : static_cast<size_t>(Mix64(item ^ kPartitionSeed) %
                                   options_.shards);
}

std::vector<std::string> ShardedEngine::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.factory.name());
  return out;
}

size_t ShardedEngine::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].factory.name() == name) return i;
  }
  return entries_.size();
}

Sketch* ShardedEngine::Merged(const std::string& name) const {
  return Replica(0, name);
}

// Sketches registered after the last Run have no replicas yet.
bool ShardedEngine::Built(size_t shard, size_t i) const {
  return shard < pipelines_.size() && i < pipelines_[shard]->size();
}

Sketch* ShardedEngine::Replica(size_t shard, const std::string& name) const {
  const size_t i = IndexOf(name);
  return Built(shard, i) ? pipelines_[shard]->sketch(i) : nullptr;
}

const Sketch* ShardedEngine::Snapshot(size_t shard,
                                      const std::string& name) const {
  const size_t i = IndexOf(name);
  return Built(shard, i) ? pipelines_[shard]->snapshot(i) : nullptr;
}

LiveNvmSink* ShardedEngine::CheckpointSink(size_t shard,
                                           const std::string& name) const {
  const size_t i = IndexOf(name);
  return Built(shard, i) ? pipelines_[shard]->checkpoint_sink(i) : nullptr;
}

ServingHandle ShardedEngine::Serving(const std::string& name) const {
  const size_t i = IndexOf(name);
  if (i >= entries_.size()) return ServingHandle();
  // With metrics attached, bind the handle's serving telemetry: staleness
  // of every complete view acquired, and an acquire counter. Reader
  // threads feed these with relaxed atomics only.
  Histogram* staleness = nullptr;
  Counter* acquires = nullptr;
  if (options_.metrics != nullptr) {
    staleness = options_.metrics->GetHistogram("fewstate_view_staleness_items",
                                               {{"sketch", name}});
    acquires = options_.metrics->GetCounter("fewstate_view_acquires_total",
                                            {{"sketch", name}});
  }
  return ServingHandle(&rosters_, i, staleness, acquires);
}

ShardedRunReport ShardedEngine::Run(ItemSource& source) {
  const size_t num_shards = options_.shards;
  const size_t num_sketches = entries_.size();
  const Clock::time_point run_start = Clock::now();

  ShardedRunReport report;
  report.shards = num_shards;
  report.batch_items = options_.batch_items;
  report.shard_items.assign(num_shards, 0);
  report.sketches.resize(num_sketches);

  const bool checkpointing = options_.checkpoint_policy.enabled();
  MetricsRegistry* const metrics = options_.metrics;
  TraceRecorder* const trace = options_.trace;
  TraceSpan run_span(trace, "sharded_run", "engine");

  // Fresh pipelines, built before the first source pull: a sharded run
  // consumes its replicas by merging them. Entries with an NVM spec get
  // one live device per replica; checkpoint devices (and dirty trackers,
  // for delta policies) go to the entries that can be snapshotted —
  // mergeable or restorable ones. A serving pipeline starts by publishing
  // an empty roster, before the first pull.
  // Each shard drains its replicas on up to (CPUs - 1) / S lanes: one CPU
  // stays with the partitioner, so S workers and their lanes never
  // oversubscribe the CPUs this process may use, and a multi-shard engine
  // on a small box keeps one lane per shard.
  const size_t cpus = UsableCpus();
  const size_t drain_lanes =
      std::min(num_sketches, std::max<size_t>(1, (cpus - 1) / num_shards));
  pipelines_.clear();
  for (size_t s = 0; s < num_shards; ++s) {
    ReplicaPipelineOptions po;
    po.labels = {{"shard", std::to_string(s)}};
    po.checkpoint_policy = options_.checkpoint_policy;
    po.checkpoint_nvm = options_.checkpoint_nvm;
    po.drain_lanes = drain_lanes;
    auto pipeline = std::make_unique<ReplicaPipeline>(std::move(po));
    for (size_t i = 0; i < num_sketches; ++i) {
      const Entry& e = entries_[i];
      pipeline->Add(e.factory.name(), e.factory.Make());
      if (e.has_nvm) pipeline->AttachNvm(i, e.nvm_spec);
      if (checkpointing && (e.mergeable || e.restorable)) {
        pipeline->EnableCheckpoints(i, e.factory, e.restorable);
      }
    }
    pipeline->BeginRun(metrics, trace,
                       options_.serve_snapshots ? &rosters_[s] : nullptr);
    pipelines_.push_back(std::move(pipeline));
  }

  Counter* items_total_counter = nullptr;
  if (metrics != nullptr) {
    items_total_counter = metrics->GetCounter("fewstate_items_ingested_total");
  }
  std::vector<std::unique_ptr<BatchQueue>> queues;
  queues.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    queues.push_back(std::make_unique<BatchQueue>(options_.max_queued_batches,
                                                  metrics, s));
  }

  // Ingest: one bounded queue + worker thread per shard. Each worker is
  // the only thread driving its pipeline between thread start and join
  // (its lanes update replicas only inside `Drain`, which returns after
  // they all finish); the queue provides the ordering handoff for the
  // batches themselves.
  const Clock::time_point ingest_start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    workers.emplace_back([this, s, trace, &queues] {
      if (trace != nullptr) {
        trace->SetCurrentThreadName("shard-worker-" + std::to_string(s));
      }
      ReplicaPipeline& pipeline = *pipelines_[s];
      Stream batch;
      uint64_t processed = 0;
      while (queues[s]->Pop(&batch)) {
        pipeline.Drain(batch.data(), batch.size());
        processed += batch.size();
        pipeline.AtBatchBoundary(processed);
      }
    });
  }

  // Partition: pull batches straight from the source and hash-route each
  // item (on identity, so all occurrences of an item land on one shard,
  // preserving arrival order within the shard) into the bounded shard
  // queues. Nothing here depends on the stream's total length — the loop
  // runs until the source reports end-of-stream, never on `SizeHint()` —
  // and the queues' backpressure is the only buffering between a live feed
  // and the workers.
  {
    if (trace != nullptr) trace->SetCurrentThreadName("partitioner");
    std::vector<Item> pull(options_.batch_items);
    std::vector<Stream> pending(num_shards);
    for (Stream& p : pending) p.reserve(options_.batch_items);
    report.items_ingested = ForEachBatch(
        source, pull.data(), pull.size(),
        [&](const Item* batch, size_t count) {
          if (items_total_counter != nullptr) {
            items_total_counter->Increment(count);
          }
          for (size_t k = 0; k < count; ++k) {
            const Item item = batch[k];
            const size_t s = ShardOf(item);
            ++report.shard_items[s];
            pending[s].push_back(item);
            if (pending[s].size() >= options_.batch_items) {
              queues[s]->Push(std::move(pending[s]));
              pending[s] = Stream();
              pending[s].reserve(options_.batch_items);
            }
          }
        });
    for (size_t s = 0; s < num_shards; ++s) {
      if (!pending[s].empty()) queues[s]->Push(std::move(pending[s]));
      queues[s]->Close();
    }
  }
  for (std::thread& w : workers) w.join();
  report.ingest_seconds = Seconds(ingest_start, Clock::now());

  // Merge: consolidate shards 1..S-1 into shard 0's replica, wear
  // accounted on the destination. `SketchFactory`'s contract is that every
  // Make() mints an identical configuration, so a failure here is a broken
  // factory (e.g. a stateful maker varying seeds across calls) — a
  // programming error, so the engine dies rather than return a
  // half-merged report.
  const Clock::time_point merge_start = Clock::now();
  if (num_shards > 1) {
    for (size_t i = 0; i < num_sketches; ++i) {
      ShardedSketchReport& sk = report.sketches[i];
      const std::string& name = entries_[i].factory.name();
      MergeableSketch* merged = AsMergeable(pipelines_[0]->sketch(i));
      const AccountantSnapshot pre =
          AccountantSnapshot::Of(merged->accountant());
      const Clock::time_point t0 = Clock::now();
      {
        TraceSpan merge_span(trace, "merge:" + name, "merge");
        for (size_t s = 1; s < num_shards; ++s) {
          const Status status = merged->MergeFrom(*pipelines_[s]->sketch(i));
          if (!status.ok()) {
            std::fprintf(stderr,
                         "ShardedEngine::Run: merge of '%s' failed: %s\n",
                         name.c_str(), status.ToString().c_str());
            std::abort();
          }
        }
      }
      sk.merge = pre.DeltaTo(AccountantSnapshot::Of(merged->accountant()));
      sk.merge.name = name;
      sk.merge.wall_seconds = Seconds(t0, Clock::now());
      // Merge traffic is deliberately kept out of the per-shard ingest
      // counters (those reconcile exactly with per_shard report rows);
      // it gets its own per-sketch family.
      if (metrics != nullptr) {
        metrics
            ->GetCounter("fewstate_merge_word_writes_total",
                         {{"sketch", name}})
            ->Increment(sk.merge.word_writes);
        metrics
            ->GetCounter("fewstate_merge_state_changes_total",
                         {{"sketch", name}})
            ->Increment(sk.merge.state_changes);
      }
    }
  }
  report.merge_seconds = Seconds(merge_start, Clock::now());

  // Per-shard rows. Their accountant deltas end at the last batch
  // boundary, before the merge; device state is captured now, so shard
  // 0's live device includes the consolidation writes.
  std::vector<std::vector<ReplicaSketchReport>> rows(num_shards);
  for (size_t s = 0; s < num_shards; ++s) rows[s] = pipelines_[s]->Report();

  // Per-sketch rollup. Durability (checkpoint) traffic is folded over the
  // shards into one view and charged to total, as are the merge and every
  // device: a deployed monitor pays for all of it.
  for (size_t i = 0; i < num_sketches; ++i) {
    ShardedSketchReport& sk = report.sketches[i];
    sk.name = entries_[i].factory.name();
    sk.mergeable = entries_[i].mergeable;
    sk.restorable = entries_[i].restorable;
    std::vector<NvmReplayReport> ckpt_devices;
    std::vector<NvmReplayReport> devices;
    if (checkpointing) {
      sk.checkpoint.name = sk.name;
      sk.last_checkpoint_items.assign(num_shards, 0);
    }
    for (size_t s = 0; s < num_shards; ++s) {
      const ReplicaSketchReport& row = rows[s][i];
      sk.per_shard.push_back(row.ingest);
      sk.total.Accumulate(row.ingest);
      sk.total.peak_allocated_words += row.ingest.peak_allocated_words;
      if (row.ingest.has_nvm) devices.push_back(row.ingest.nvm);
      if (!row.checkpoint.has_nvm) continue;  // not checkpointed
      const SketchRunReport& c = row.checkpoint;
      sk.checkpoint.Accumulate(c);
      sk.checkpoint.full_checkpoints += c.full_checkpoints;
      sk.checkpoint.delta_checkpoints += c.delta_checkpoints;
      sk.checkpoint.snapshots_published += c.snapshots_published;
      sk.last_checkpoint_items[s] = row.last_checkpoint_items;
      ckpt_devices.push_back(c.nvm);
    }
    sk.total.Accumulate(sk.merge);
    sk.checkpoints_taken =
        sk.checkpoint.full_checkpoints + sk.checkpoint.delta_checkpoints;
    sk.snapshots_published = sk.checkpoint.snapshots_published;
    if (!ckpt_devices.empty()) {
      sk.checkpoint.has_nvm = true;
      sk.checkpoint.nvm = AggregateNvmReports(ckpt_devices);
      sk.total.Accumulate(sk.checkpoint);
      devices.push_back(sk.checkpoint.nvm);
    }
    sk.total.name = sk.name;
    if (!devices.empty()) {
      sk.total.has_nvm = true;
      sk.total.nvm = AggregateNvmReports(devices);
    }
  }

  PublishSourceStatus(source, metrics, trace);

  report.wall_seconds = Seconds(run_start, Clock::now());
  report.items_per_second =
      report.ingest_seconds > 0.0
          ? static_cast<double>(report.items_ingested) / report.ingest_seconds
          : 0.0;
  last_report_ = report;
  return report;
}

}  // namespace fewstate
