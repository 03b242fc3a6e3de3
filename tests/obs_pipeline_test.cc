// End-to-end observability: a live 2-shard serving ingest with metrics
// and tracing attached must (a) expose nonzero wear-rate / checkpoint /
// queue-depth / staleness telemetry to a mid-run poll, (b) reconcile its
// end-of-run counter totals *exactly* with the ShardedRunReport — the
// metrics pipeline and the report pipeline measure the same run through
// different plumbing, so any drift is a bug in one of them — and (c)
// emit a parseable Chrome trace whose spans pair correctly. A
// single-shard run gets the same reconciliation treatment, and its
// metric totals match standalone sketches drained over the same stream.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/item_source.h"
#include "baselines/count_min.h"
#include "baselines/misra_gries.h"
#include "json_lite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/checkpoint_policy.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "shard/view_query.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kUniverse = 400;
constexpr uint64_t kLength = 120000;
constexpr uint64_t kSeed = 99;
constexpr size_t kShards = 2;
constexpr size_t kBatch = 512;
constexpr uint64_t kEvery = 5000;

NvmSpec SmallSpec() {
  NvmSpec spec;
  spec.config.num_cells = 1 << 12;
  spec.config.endurance = 1 << 20;
  return spec;
}

SketchFactory CountMinFactory() {
  return SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{128},
                                     uint64_t{21}, false);
}

SketchFactory MisraGriesFactory() {
  return SketchFactory::Of<MisraGries>("misra_gries", size_t{64});
}

// Forwards a borrowed stream and fires `probe` once, on the ingest
// (partitioner) thread, after `trigger_at` items have been delivered —
// a deterministic "mid-run" hook that cannot be starved by scheduling,
// unlike a free-running poller thread.
class ProbeSource : public ItemSource {
 public:
  ProbeSource(const Stream& stream, uint64_t trigger_at,
              std::function<void()> probe)
      : inner_(stream), trigger_at_(trigger_at), probe_(std::move(probe)) {}

  size_t NextBatch(Item* out, size_t cap) override {
    const size_t got = inner_.NextBatch(out, cap);
    delivered_ += got;
    if (!fired_ && delivered_ >= trigger_at_) {
      fired_ = true;
      probe_();
    }
    return got;
  }

  std::optional<uint64_t> SizeHint() const override {
    return inner_.SizeHint();
  }

 private:
  VectorSource inner_;
  const uint64_t trigger_at_;
  std::function<void()> probe_;
  uint64_t delivered_ = 0;
  bool fired_ = false;
};

// Asserts Chrome-trace shape on a parsed document and returns the set of
// (phase, name) pairs seen, so callers can check for specific spans.
std::set<std::pair<std::string, std::string>> CheckTraceAndCollect(
    const json_lite::Value& root) {
  std::set<std::pair<std::string, std::string>> seen;
  const json_lite::Value* events = root.Get("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr || !events->is_array()) return seen;
  std::map<int64_t, std::vector<std::string>> open;
  for (const json_lite::Value& e : events->array) {
    EXPECT_TRUE(e.is_object());
    EXPECT_NE(e.Get("name"), nullptr);
    EXPECT_NE(e.Get("ph"), nullptr);
    EXPECT_NE(e.Get("ts"), nullptr);
    EXPECT_NE(e.Get("pid"), nullptr);
    EXPECT_NE(e.Get("tid"), nullptr);
    const std::string& ph = e.Get("ph")->string_value;
    const std::string& name = e.Get("name")->string_value;
    const int64_t tid = static_cast<int64_t>(e.Get("tid")->number);
    seen.insert({ph, name});
    if (ph == "B") {
      open[tid].push_back(name);
    } else if (ph == "E") {
      EXPECT_FALSE(open[tid].empty()) << "unmatched E: " << name;
      if (!open[tid].empty()) {
        EXPECT_EQ(open[tid].back(), name) << "spans closed out of order";
        open[tid].pop_back();
      }
    }
  }
  for (const auto& entry : open) {
    EXPECT_TRUE(entry.second.empty())
        << "unclosed span on tid " << entry.first;
  }
  return seen;
}

MetricLabels ShardSketch(size_t shard, const std::string& sketch) {
  return {{"shard", std::to_string(shard)}, {"sketch", sketch}};
}

TEST(ObsPipeline, ShardedServingRunReconcilesExactly) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);
  MetricsRegistry registry;
  TraceRecorder trace;

  ShardedEngineOptions options;
  options.shards = kShards;
  options.batch_items = kBatch;
  options.checkpoint_policy =
      CheckpointPolicy::EveryItems(kEvery, CheckpointPolicy::Snapshot::kFull);
  options.checkpoint_nvm = SmallSpec();
  options.serve_snapshots = true;
  options.metrics = &registry;
  options.trace = &trace;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.AddSketch(CountMinFactory(), SmallSpec()).ok());
  ASSERT_TRUE(engine.AddSketch(MisraGriesFactory()).ok());
  const ServingHandle handle = engine.Serving("count_min");
  ASSERT_TRUE(handle.ok());

  std::atomic<uint64_t> acquires{0};
  std::atomic<uint64_t> complete_acquires{0};

  // The deterministic mid-run poll: fires on the partitioner thread at
  // the stream's halfway point, where both shards have provably drained
  // well past their first checkpoints (the bounded queues cap how far a
  // worker can lag the partitioner).
  MetricsSnapshot mid;
  bool mid_taken = false;
  ProbeSource source(stream, kLength / 2, [&] {
    const SnapshotView view = handle.Acquire();
    acquires.fetch_add(1, std::memory_order_relaxed);
    if (view.complete()) {
      complete_acquires.fetch_add(1, std::memory_order_relaxed);
    }
    EXPECT_TRUE(view.complete());
    mid = registry.Snapshot();
    mid_taken = true;
  });

  // A free-running poller exercises the concurrent-snapshot path (the
  // TSan surface) and checks counter monotonicity across polls.
  std::atomic<bool> done{false};
  std::thread poller([&] {
    uint64_t last_items = 0;
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = registry.Snapshot();
      const uint64_t items = snap.CounterValue("fewstate_items_ingested_total");
      ASSERT_GE(items, last_items);
      last_items = items;
      const SnapshotView view = handle.Acquire();
      acquires.fetch_add(1, std::memory_order_relaxed);
      if (view.complete()) {
        complete_acquires.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  const ShardedRunReport report = engine.Run(source);
  done.store(true, std::memory_order_release);
  poller.join();

  // --- The mid-run snapshot: live telemetry was visibly nonzero. ---
  ASSERT_TRUE(mid_taken);
  const uint64_t mid_items = mid.CounterValue("fewstate_items_ingested_total");
  EXPECT_GT(mid_items, 0u);
  EXPECT_LT(mid_items, report.items_ingested);
  EXPECT_GT(mid.CounterTotal("fewstate_checkpoints_total"), 0u);
  for (size_t s = 0; s < kShards; ++s) {
    const GaugeSample* wear_rate =
        mid.FindGauge("fewstate_sketch_wear_rate", ShardSketch(s, "count_min"));
    ASSERT_NE(wear_rate, nullptr);
    EXPECT_GT(wear_rate->value, 0.0) << "shard " << s;
    const GaugeSample* peak = mid.FindGauge("fewstate_shard_queue_peak_depth",
                                            {{"shard", std::to_string(s)}});
    ASSERT_NE(peak, nullptr);
    EXPECT_GT(peak->value, 0.0) << "shard " << s;
    const GaugeSample* live_wear = mid.FindGauge(
        "fewstate_nvm_max_cell_wear",
        {{"device", "live"}, {"shard", std::to_string(s)},
         {"sketch", "count_min"}});
    ASSERT_NE(live_wear, nullptr);
    EXPECT_GT(live_wear->value, 0.0) << "shard " << s;
  }
  const HistogramSample* mid_staleness = mid.FindHistogram(
      "fewstate_view_staleness_items", {{"sketch", "count_min"}});
  ASSERT_NE(mid_staleness, nullptr);
  EXPECT_GE(mid_staleness->count, 1u);  // the probe's own complete acquire

  // --- End-of-run: exact reconciliation against the report. ---
  const MetricsSnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.CounterValue("fewstate_items_ingested_total"),
            report.items_ingested);
  uint64_t shard_item_sum = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const uint64_t shard_items = final_snap.CounterValue(
        "fewstate_shard_items_total", {{"shard", std::to_string(s)}});
    EXPECT_EQ(shard_items, report.shard_items[s]) << "shard " << s;
    shard_item_sum += shard_items;
    // Batches drained: full batches plus one trailing partial per shard.
    const uint64_t batches = final_snap.CounterValue(
        "fewstate_batches_drained_total", {{"shard", std::to_string(s)}});
    EXPECT_EQ(batches, (report.shard_items[s] + kBatch - 1) / kBatch)
        << "shard " << s;
    // Queues are drained at end of run; the peak stays as the high-water
    // mark.
    EXPECT_EQ(final_snap
                  .FindGauge("fewstate_shard_queue_depth",
                             {{"shard", std::to_string(s)}})
                  ->value,
              0.0);
  }
  EXPECT_EQ(shard_item_sum, report.items_ingested);

  for (const ShardedSketchReport& sk : report.sketches) {
    uint64_t ckpt_words = 0;
    uint64_t full = 0;
    uint64_t delta = 0;
    uint64_t published = 0;
    for (size_t s = 0; s < kShards; ++s) {
      const MetricLabels labels = ShardSketch(s, sk.name);
      EXPECT_EQ(final_snap.CounterValue("fewstate_sketch_state_changes_total",
                                        labels),
                sk.per_shard[s].state_changes)
          << sk.name << " shard " << s;
      EXPECT_EQ(
          final_snap.CounterValue("fewstate_sketch_word_writes_total", labels),
          sk.per_shard[s].word_writes)
          << sk.name << " shard " << s;
      ckpt_words += final_snap.CounterValue(
          "fewstate_checkpoint_word_writes_total", labels);
      published += final_snap.CounterValue("fewstate_snapshots_published_total",
                                           labels);
      full += final_snap.CounterValue(
          "fewstate_checkpoints_total",
          {{"kind", "full"}, {"shard", std::to_string(s)},
           {"sketch", sk.name}});
      delta += final_snap.CounterValue(
          "fewstate_checkpoints_total",
          {{"kind", "delta"}, {"shard", std::to_string(s)},
           {"sketch", sk.name}});
    }
    EXPECT_EQ(full + delta, sk.checkpoints_taken) << sk.name;
    EXPECT_EQ(full, sk.checkpoint.full_checkpoints) << sk.name;
    EXPECT_EQ(delta, sk.checkpoint.delta_checkpoints) << sk.name;
    EXPECT_EQ(ckpt_words, sk.checkpoint.word_writes) << sk.name;
    EXPECT_EQ(published, sk.snapshots_published) << sk.name;
    // Merge traffic reconciles under its own family, not the ingest
    // counters.
    EXPECT_EQ(final_snap.CounterValue("fewstate_merge_word_writes_total",
                                      {{"sketch", sk.name}}),
              sk.merge.word_writes)
        << sk.name;
    EXPECT_EQ(final_snap.CounterValue("fewstate_merge_state_changes_total",
                                      {{"sketch", sk.name}}),
              sk.merge.state_changes)
        << sk.name;
  }

  // Serving telemetry: one count per Acquire, one staleness observation
  // per *complete* view (every acquire above ran before this snapshot).
  EXPECT_EQ(final_snap.CounterValue("fewstate_view_acquires_total",
                                    {{"sketch", "count_min"}}),
            acquires.load());
  const HistogramSample* staleness = final_snap.FindHistogram(
      "fewstate_view_staleness_items", {{"sketch", "count_min"}});
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(staleness->count, complete_acquires.load());

  // Device introspection: the end-of-run wear gauges agree with the
  // report's device state.
  const ShardedSketchReport* cm = report.Find("count_min");
  ASSERT_NE(cm, nullptr);
  for (size_t s = 0; s < kShards; ++s) {
    const MetricLabels live{{"device", "live"},
                            {"shard", std::to_string(s)},
                            {"sketch", "count_min"}};
    EXPECT_EQ(final_snap.FindGauge("fewstate_nvm_max_cell_wear", live)->value,
              static_cast<double>(cm->per_shard[s].nvm.max_cell_wear));
    EXPECT_GT(final_snap.FindGauge("fewstate_nvm_total_writes", live)->value,
              0.0);
    EXPECT_GT(final_snap.FindGauge("fewstate_nvm_written_cells", live)->value,
              0.0);
    // Checkpoint devices were attached for both sketches.
    const MetricLabels ckpt{{"device", "checkpoint"},
                            {"shard", std::to_string(s)},
                            {"sketch", "count_min"}};
    ASSERT_NE(final_snap.FindGauge("fewstate_nvm_total_writes", ckpt), nullptr);
    EXPECT_GT(final_snap.FindGauge("fewstate_nvm_total_writes", ckpt)->value,
              0.0);
  }

  // --- The trace: parseable, paired, and covering the span taxonomy. ---
  json_lite::Value root;
  ASSERT_TRUE(json_lite::Parse(trace.ToJson(), &root));
  const auto seen = CheckTraceAndCollect(root);
  EXPECT_TRUE(seen.count({"B", "sharded_run"}));
  EXPECT_TRUE(seen.count({"B", "batch_drain"}));
  EXPECT_TRUE(seen.count({"B", "update:count_min"}));
  EXPECT_TRUE(seen.count({"B", "update:misra_gries"}));
  EXPECT_TRUE(seen.count({"B", "checkpoint_capture"}));
  EXPECT_TRUE(seen.count({"B", "checkpoint_publish"}));
  EXPECT_TRUE(seen.count({"B", "merge:count_min"}));
  EXPECT_TRUE(seen.count({"i", "policy_trigger"}));
  EXPECT_TRUE(seen.count({"M", "thread_name"}));
  EXPECT_EQ(trace.dropped_events(), 0u);
}

// Serving telemetry counts views, however they are cut: one AcquireAll
// round over k handles adds exactly what k Acquire() calls add — one
// acquire per view, and one staleness observation per complete view.
TEST(ObsPipeline, AcquireAllRoundCountsLikeAcquireCalls) {
  MetricsRegistry registry;
  ShardedEngineOptions options;
  options.shards = kShards;
  options.batch_items = kBatch;
  options.checkpoint_policy =
      CheckpointPolicy::EveryItems(kEvery, CheckpointPolicy::Snapshot::kFull);
  options.checkpoint_nvm = SmallSpec();
  options.serve_snapshots = true;
  options.metrics = &registry;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.AddSketch(CountMinFactory()).ok());
  ASSERT_TRUE(engine.AddSketch(MisraGriesFactory()).ok());
  const std::vector<std::string> names = {"count_min", "misra_gries"};
  const std::vector<ServingHandle> handles = {engine.Serving(names[0]),
                                              engine.Serving(names[1])};
  // (acquires, staleness observations) per sketch.
  const auto counts = [&] {
    const MetricsSnapshot snap = registry.Snapshot();
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const std::string& name : names) {
      const HistogramSample* staleness = snap.FindHistogram(
          "fewstate_view_staleness_items", {{"sketch", name}});
      out.emplace_back(
          snap.CounterValue("fewstate_view_acquires_total", {{"sketch", name}}),
          staleness != nullptr ? staleness->count : 0);
    }
    return out;
  };
  using Counts = std::vector<std::pair<uint64_t, uint64_t>>;

  // Before any run every view is incomplete: acquires count, staleness
  // does not.
  const Counts start = counts();
  ASSERT_EQ(AcquireAll(handles).attempts, 1);
  EXPECT_EQ(counts(), (Counts{{start[0].first + 1, start[0].second},
                              {start[1].first + 1, start[1].second}}));
  for (const ServingHandle& h : handles) h.Acquire();
  EXPECT_EQ(counts(), (Counts{{start[0].first + 2, start[0].second},
                              {start[1].first + 2, start[1].second}}));

  engine.Run(VectorSource(ZipfStream(kUniverse, 1.2, kLength, kSeed)));
  const Counts ran = counts();
  const ConsistentViews cut = AcquireAll(handles);
  ASSERT_TRUE(cut.consistent);
  ASSERT_EQ(cut.attempts, 1);
  ASSERT_TRUE(cut.views[0].complete() && cut.views[1].complete());
  const Counts after_round = counts();
  EXPECT_EQ(after_round, (Counts{{ran[0].first + 1, ran[0].second + 1},
                                 {ran[1].first + 1, ran[1].second + 1}}));
  for (const ServingHandle& h : handles) h.Acquire();
  EXPECT_EQ(counts(),
            (Counts{{after_round[0].first + 1, after_round[0].second + 1},
                    {after_round[1].first + 1, after_round[1].second + 1}}));
}

TEST(ObsPipeline, SingleShardReconcilesWithRunReport) {
  const Stream stream = ZipfStream(kUniverse, 1.2, 50000, kSeed);
  MetricsRegistry registry;
  TraceRecorder trace;
  ShardedEngineOptions options;
  options.metrics = &registry;
  options.trace = &trace;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.AddSketch(CountMinFactory()).ok());
  ASSERT_TRUE(engine.AddSketch(MisraGriesFactory()).ok());

  const ShardedRunReport report = engine.Run(VectorSource(stream));
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("fewstate_items_ingested_total"),
            report.items_ingested);
  for (const ShardedSketchReport& sk : report.sketches) {
    const MetricLabels labels = ShardSketch(0, sk.name);
    EXPECT_EQ(snap.CounterValue("fewstate_sketch_state_changes_total", labels),
              sk.per_shard[0].state_changes)
        << sk.name;
    EXPECT_EQ(snap.CounterValue("fewstate_sketch_word_writes_total", labels),
              sk.per_shard[0].word_writes)
        << sk.name;
    EXPECT_GT(snap.FindGauge("fewstate_sketch_change_rate", labels)->value,
              0.0);
  }

  json_lite::Value root;
  ASSERT_TRUE(json_lite::Parse(trace.ToJson(), &root));
  const auto seen = CheckTraceAndCollect(root);
  EXPECT_TRUE(seen.count({"B", "batch_drain"}));
  EXPECT_TRUE(seen.count({"B", "update:count_min"}));
  EXPECT_TRUE(seen.count({"B", "update:misra_gries"}));

  // A second run keeps accumulating into the same counters (they are
  // cumulative across runs, like any monotonic telemetry).
  const ShardedRunReport second = engine.Run(VectorSource(stream));
  EXPECT_EQ(registry.Snapshot().CounterValue("fewstate_items_ingested_total"),
            report.items_ingested + second.items_ingested);
}

// Metrics alone attach nothing to the write path: the pipeline reads the
// per-sketch counters off the accountants at batch boundaries, so a
// metrics-only S=1 run leaves every replica sink-free and publishes
// exactly the totals of standalone sketches drained over the same stream.
// Two runs: each mints fresh replicas, and the cumulative counters must
// equal the standalone totals summed over both runs.
TEST(ObsPipeline, MetricsAttachNoSinkAndMatchStandaloneDrain) {
  const Stream stream = ZipfStream(kUniverse, 1.2, 30000, kSeed);
  MetricsRegistry registry;
  ShardedEngineOptions options;
  options.batch_items = kDefaultDrainBatchItems;
  options.metrics = &registry;
  ShardedEngine engine(options);
  const std::vector<SketchFactory> factories = {CountMinFactory(),
                                                MisraGriesFactory()};
  for (const SketchFactory& f : factories) {
    ASSERT_TRUE(engine.AddSketch(f).ok());
  }

  // Standalone accountant totals summed over the runs so far.
  struct Totals {
    uint64_t state_changes = 0;
    uint64_t word_writes = 0;
  };
  std::map<std::string, Totals> standalone_sum;
  for (int run = 0; run < 2; ++run) {
    const ShardedRunReport report = engine.Run(VectorSource(stream));
    const MetricsSnapshot snap = registry.Snapshot();
    for (const SketchFactory& f : factories) {
      const std::string& name = f.name();
      std::unique_ptr<Sketch> standalone = f.Make();
      standalone->Drain(VectorSource(stream));
      const StateAccountant& want = standalone->accountant();
      Totals& sum = standalone_sum[name];
      sum.state_changes += want.state_changes();
      sum.word_writes += want.word_writes();
      EXPECT_GT(sum.state_changes, 0u) << name;

      EXPECT_EQ(engine.Replica(0, name)->accountant().write_sink(), nullptr)
          << name;
      const SketchRunReport& row = report.Find(name)->per_shard[0];
      EXPECT_EQ(row.state_changes, want.state_changes()) << name;
      EXPECT_EQ(row.word_writes, want.word_writes()) << name;
      const MetricLabels labels = ShardSketch(0, name);
      EXPECT_EQ(
          snap.CounterValue("fewstate_sketch_state_changes_total", labels),
          sum.state_changes)
          << name << " run " << run;
      EXPECT_EQ(snap.CounterValue("fewstate_sketch_word_writes_total", labels),
                sum.word_writes)
          << name << " run " << run;
    }
  }
}

TEST(ObsPipeline, SourceErrorsSurfaceInTelemetry) {
  MetricsRegistry registry;
  TraceRecorder trace;
  ShardedEngineOptions options;
  options.metrics = &registry;
  options.trace = &trace;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.AddSketch(CountMinFactory()).ok());
  FileSource bad("/nonexistent/fewstate-no-such-trace.bin");
  engine.Run(bad);
  EXPECT_EQ(registry.Snapshot().CounterValue("fewstate_source_errors_total"),
            1u);
  json_lite::Value root;
  ASSERT_TRUE(json_lite::Parse(trace.ToJson(), &root));
  EXPECT_TRUE(CheckTraceAndCollect(root).count({"i", "source_error"}));
}

}  // namespace
}  // namespace fewstate
