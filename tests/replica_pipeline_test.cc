// The sketch-parallel drain: a ReplicaPipeline draining its replicas on
// L > 1 lanes must be bitwise the L = 1 pipeline — final sketch states
// (and their random cursors), every report counter but wall time, live
// and checkpoint device wear cell by cell, checkpoint counts and the
// sequence of published serving snapshots — also when stable_morris's
// pure pre-stage is split across the lanes. Roster lanes clamp to the
// roster size; lanes past it run only pre-stage parts and start only when
// a plan has that many parts, so a one-sketch stable_morris pipeline is
// `Sketch::Drain` with its pre-stage on lanes and a CountMin-only one
// starts no thread. A pipeline torn down mid-run joins its lanes, and a
// failing update or pre-stage part reaches the caller after the barrier.

#include "api/replica_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/item_source.h"
#include "api/mergeable.h"
#include "baselines/count_min.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "core/fp_estimator.h"
#include "core/full_sample_and_hold.h"
#include "json_lite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/checkpoint_policy.h"
#include "recover/restorable.h"
#include "shard/sketch_factory.h"
#include "state/write_log.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kFlows = 500;
constexpr uint64_t kLength = 12000;
constexpr uint64_t kCheckpointEvery = 2000;
constexpr size_t kCachedSlot = 3;   // count_min's live device is cached
constexpr size_t kServingSlot = 3;  // count_min: served snapshots compared

// Far wider than stable_morris's projection memo, so it misses in every
// batch and its pre-stage has parts for every lane.
constexpr uint64_t kWideFlows = uint64_t{1} << 20;

// The paper's write-frugal structures plus two baselines: restorable
// (delta checkpoints), mergeable-only (full checkpoints) and neither
// (never checkpointed) replicas on one pipeline, sized for `flows`.
std::vector<SketchFactory> Roster(uint64_t flows = kFlows) {
  FullSampleAndHoldOptions fsh;
  fsh.universe = flows;
  fsh.stream_length_hint = kLength;
  fsh.p = 2.0;
  fsh.eps = 0.4;
  fsh.seed = 5;
  FpEstimatorOptions fp;
  fp.universe = flows;
  fp.stream_length_hint = kLength;
  fp.p = 2.0;
  fp.eps = 0.35;
  fp.seed = 9;
  return {
      SketchFactory::Of<StableSketch>("stable_morris", 0.5, size_t{16},
                                      uint64_t{31},
                                      StableSketch::CounterMode::kMorris, 0.2),
      SketchFactory("full_sample_and_hold",
                    [fsh] { return std::make_unique<FullSampleAndHold>(fsh); }),
      SketchFactory("fp_estimator",
                    [fp] { return std::make_unique<FpEstimator>(fp); }),
      SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{256},
                                  uint64_t{7}, false),
      SketchFactory::Of<SpaceSaving>("space_saving", size_t{64}),
  };
}

NvmSpec Nvm(bool cached) {
  NvmSpec spec;
  spec.config.num_cells = 1 << 12;
  if (cached) {
    spec.cache.sets = 4;
    spec.cache.ways = 2;
    spec.cache.line_words = 8;
  }
  return spec;
}

// Everything a run leaves behind that must not depend on the lane count.
struct Outcome {
  std::vector<SketchFactory> roster;
  // Declared before the pipeline, which holds a pointer to it.
  std::shared_ptr<const ShardRoster> serving;
  std::unique_ptr<ReplicaPipeline> pipeline;
  size_t lanes = 0;
  std::vector<ReplicaSketchReport> rows;
  std::vector<std::vector<uint64_t>> live_wear;
  std::vector<std::vector<uint64_t>> ckpt_wear;
  // (sequence, items_at_checkpoint) of kServingSlot's served snapshot
  // after each batch.
  std::vector<std::pair<uint64_t, uint64_t>> published;
};

std::unique_ptr<ReplicaPipeline> BuildPipeline(
    size_t drain_lanes, const std::vector<SketchFactory>& roster) {
  ReplicaPipelineOptions options;
  options.labels = {{"shard", "0"}};
  options.checkpoint_policy = CheckpointPolicy::EveryItems(
      kCheckpointEvery, CheckpointPolicy::Snapshot::kDelta);
  options.checkpoint_nvm = Nvm(false);
  options.drain_lanes = drain_lanes;
  auto pipeline = std::make_unique<ReplicaPipeline>(std::move(options));
  for (size_t i = 0; i < roster.size(); ++i) {
    std::unique_ptr<Sketch> sketch = roster[i].Make();
    const bool mergeable = IsMergeable(*sketch);
    const bool restorable = IsRestorable(*sketch);
    pipeline->Add(roster[i].name(), std::move(sketch));
    pipeline->AttachNvm(i, Nvm(i == kCachedSlot));
    if (mergeable || restorable) {
      pipeline->EnableCheckpoints(i, roster[i], restorable);
    }
  }
  return pipeline;
}

// Uneven batch sizes, so checkpoints straddle batch boundaries.
void RunPipeline(size_t drain_lanes, const Stream& stream,
                 MetricsRegistry* metrics, TraceRecorder* trace, Outcome* out,
                 uint64_t flows = kFlows) {
  out->roster = Roster(flows);
  out->pipeline = BuildPipeline(drain_lanes, out->roster);
  ReplicaPipeline& p = *out->pipeline;
  p.BeginRun(metrics, trace, &out->serving);
  out->lanes = p.drain_lanes();
  const size_t batch_sizes[] = {1500, 700, 1, 2048, 333};
  uint64_t processed = 0;
  for (size_t b = 0; processed < stream.size(); ++b) {
    const size_t n = std::min<size_t>(batch_sizes[b % 5],
                                      stream.size() - processed);
    p.Drain(stream.data() + processed, n);
    processed += n;
    p.AtBatchBoundary(processed);
    const std::shared_ptr<const ShardRoster> served =
        std::atomic_load(&out->serving);
    ASSERT_NE(served, nullptr);
    ASSERT_EQ(served->items, processed);
    ASSERT_EQ(served->snapshots.size(), p.size());
    const std::shared_ptr<const ShardSnapshot>& snap =
        served->snapshots[kServingSlot];
    if (snap != nullptr) {
      out->published.emplace_back(snap->sequence, snap->items_at_checkpoint);
    }
  }
  out->rows = p.Report();
  for (size_t i = 0; i < p.size(); ++i) {
    out->live_wear.push_back(p.live_sink(i)->device().cell_wear());
    out->ckpt_wear.push_back(p.checkpoint_sink(i) != nullptr
                                 ? p.checkpoint_sink(i)->device().cell_wear()
                                 : std::vector<uint64_t>());
  }
}

void ExpectSameDevice(const NvmReplayReport& a, const NvmReplayReport& b) {
  EXPECT_EQ(a.writes_replayed, b.writes_replayed);
  EXPECT_EQ(a.reads_replayed, b.reads_replayed);
  EXPECT_EQ(a.max_cell_wear, b.max_cell_wear);
  EXPECT_EQ(a.wear_imbalance, b.wear_imbalance);
  EXPECT_EQ(a.energy_nj, b.energy_nj);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.projected_stream_replays_to_failure,
            b.projected_stream_replays_to_failure);
  EXPECT_EQ(a.dropped_writes, b.dropped_writes);
  EXPECT_EQ(a.cache_enabled, b.cache_enabled);
  EXPECT_EQ(a.cache.total_writes, b.cache.total_writes);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache.absorbed_writes, b.cache.absorbed_writes);
  EXPECT_EQ(a.cache.dirty_evictions, b.cache.dirty_evictions);
  EXPECT_EQ(a.cache.clean_evictions, b.cache.clean_evictions);
  EXPECT_EQ(a.cache.writebacks, b.cache.writebacks);
  EXPECT_EQ(a.cache.writebacks_pending, b.cache.writebacks_pending);
  EXPECT_EQ(a.cache.flushes, b.cache.flushes);
  EXPECT_EQ(a.cache.reuse_hist, b.cache.reuse_hist);
  EXPECT_EQ(a.cache.reuse_cold, b.cache.reuse_cold);
}

// Every field of a report row except `wall_seconds`.
void ExpectSameRow(const SketchRunReport& a, const SketchRunReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.state_changes, b.state_changes);
  EXPECT_EQ(a.word_writes, b.word_writes);
  EXPECT_EQ(a.suppressed_writes, b.suppressed_writes);
  EXPECT_EQ(a.word_reads, b.word_reads);
  EXPECT_EQ(a.peak_allocated_words, b.peak_allocated_words);
  EXPECT_EQ(a.has_nvm, b.has_nvm);
  EXPECT_EQ(a.full_checkpoints, b.full_checkpoints);
  EXPECT_EQ(a.delta_checkpoints, b.delta_checkpoints);
  EXPECT_EQ(a.snapshots_published, b.snapshots_published);
  if (a.has_nvm && b.has_nvm) ExpectSameDevice(a.nvm, b.nvm);
}

void ExpectSameCounters(const StateAccountant& a, const StateAccountant& b) {
  EXPECT_EQ(a.updates(), b.updates());
  EXPECT_EQ(a.state_changes(), b.state_changes());
  EXPECT_EQ(a.word_writes(), b.word_writes());
  EXPECT_EQ(a.suppressed_writes(), b.suppressed_writes());
  EXPECT_EQ(a.word_reads(), b.word_reads());
}

// Bitwise state equality. For a restorable sketch: a probe restored from
// `a` takes zero priced writes restoring from `b` (restores suppress
// unchanged words, cursors included). For every sketch: identical
// frequency estimates over the flow universe.
void ExpectSameState(const SketchFactory& factory, const Sketch& a,
                     const Sketch& b) {
  if (IsRestorable(a)) {
    std::unique_ptr<Sketch> probe = factory.Make();
    RestorableSketch* restorable = AsRestorable(probe.get());
    ASSERT_TRUE(restorable->RestoreFrom(a).ok());
    const uint64_t writes = probe->accountant().word_writes();
    ASSERT_TRUE(restorable->RestoreFrom(b).ok());
    EXPECT_EQ(probe->accountant().word_writes(), writes) << factory.name();
  }
  for (Item item = 0; item < kFlows; ++item) {
    ASSERT_EQ(a.EstimateFrequency(item), b.EstimateFrequency(item))
        << factory.name() << " item " << item;
  }
}

void ExpectSameOutcome(const Outcome& serial, const Outcome& lanes,
                       const Stream& continuation) {
  const std::vector<SketchFactory>& roster = serial.roster;
  ASSERT_EQ(serial.rows.size(), lanes.rows.size());
  for (size_t i = 0; i < roster.size(); ++i) {
    SCOPED_TRACE(roster[i].name());
    ExpectSameRow(serial.rows[i].ingest, lanes.rows[i].ingest);
    ExpectSameRow(serial.rows[i].checkpoint, lanes.rows[i].checkpoint);
    EXPECT_EQ(serial.rows[i].last_checkpoint_items,
              lanes.rows[i].last_checkpoint_items);
    EXPECT_EQ(serial.live_wear[i], lanes.live_wear[i]);
    EXPECT_EQ(serial.ckpt_wear[i], lanes.ckpt_wear[i]);
    const Sketch& a = *serial.pipeline->sketch(i);
    const Sketch& b = *lanes.pipeline->sketch(i);
    ExpectSameState(roster[i], a, b);
    const Sketch* snap_a = serial.pipeline->snapshot(i);
    const Sketch* snap_b = lanes.pipeline->snapshot(i);
    ASSERT_EQ(snap_a == nullptr, snap_b == nullptr);
    if (snap_a != nullptr) ExpectSameState(roster[i], *snap_a, *snap_b);
  }
  EXPECT_EQ(serial.published, lanes.published);
  ASSERT_NE(serial.serving, nullptr);
  ASSERT_NE(lanes.serving, nullptr);
  ExpectSameState(roster[kServingSlot],
                  *serial.serving->snapshots[kServingSlot]->sketch,
                  *lanes.serving->snapshots[kServingSlot]->sketch);
  // Continuing both replicas over the same items keeps them equal: the
  // random cursors of the non-restorable sketches match too.
  for (size_t i = 0; i < roster.size(); ++i) {
    SCOPED_TRACE(roster[i].name());
    Sketch* a = serial.pipeline->sketch(i);
    Sketch* b = lanes.pipeline->sketch(i);
    a->UpdateBatch(continuation.data(), continuation.size());
    b->UpdateBatch(continuation.data(), continuation.size());
    ExpectSameCounters(a->accountant(), b->accountant());
    ExpectSameState(roster[i], *a, *b);
  }
}

// (thread name, span name) of every span `trace` recorded; threads that
// were never named have the empty name.
std::set<std::pair<std::string, std::string>> SpansByThread(
    const TraceRecorder& trace) {
  json_lite::Value root;
  EXPECT_TRUE(json_lite::Parse(trace.ToJson(), &root));
  std::map<double, std::string> names;
  std::vector<std::pair<double, std::string>> spans;
  const json_lite::Value* events = root.Get("traceEvents");
  if (events == nullptr) return {};
  for (const json_lite::Value& e : events->array) {
    const std::string& ph = e.Get("ph")->string_value;
    const double tid = e.Get("tid")->number;
    if (ph == "M") {
      names[tid] = e.Get("args")->Get("name")->string_value;
    } else if (ph == "B") {
      spans.emplace_back(tid, e.Get("name")->string_value);
    }
  }
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& [tid, name] : spans) out.emplace(names[tid], name);
  return out;
}

TEST(ReplicaPipelineLanes, LaneDrainIsBitwiseTheSerialDrain) {
  const Stream stream = ZipfStream(kFlows, 1.1, kLength, 41);
  const Stream continuation = ZipfStream(kFlows, 1.1, 3000, 42);
  Outcome serial;
  RunPipeline(1, stream, nullptr, nullptr, &serial);
  ASSERT_EQ(serial.lanes, 1u);
  // The roster exercises delta, full and no checkpoints.
  EXPECT_GT(serial.rows[0].checkpoint.delta_checkpoints, 0u);
  EXPECT_GT(serial.rows[4].checkpoint.full_checkpoints, 0u);
  EXPECT_FALSE(serial.rows[1].checkpoint.has_nvm);
  EXPECT_TRUE(serial.rows[kCachedSlot].ingest.nvm.cache_enabled);
  EXPECT_FALSE(serial.published.empty());
  for (size_t lanes : {size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("drain_lanes=" + std::to_string(lanes));
    Outcome parallel;
    RunPipeline(lanes, stream, nullptr, nullptr, &parallel);
    EXPECT_EQ(parallel.lanes, std::min<size_t>(lanes, 5));
    Outcome reference;  // a fresh serial twin to continue alongside
    RunPipeline(1, stream, nullptr, nullptr, &reference);
    ExpectSameOutcome(reference, parallel, continuation);
  }
}

TEST(ReplicaPipelineLanes, TelemetryAndTraceNameEveryLane) {
  const Stream stream = ZipfStream(kFlows, 1.1, 4000, 43);
  MetricsRegistry metrics_serial;
  MetricsRegistry metrics_lanes;
  TraceRecorder trace;
  Outcome serial;
  Outcome lanes;
  RunPipeline(1, stream, &metrics_serial, nullptr, &serial);
  RunPipeline(3, stream, &metrics_lanes, &trace, &lanes);
  ASSERT_EQ(lanes.lanes, 3u);
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    ExpectSameRow(serial.rows[i].ingest, lanes.rows[i].ingest);
  }
  const MetricLabels labels = {{"shard", "0"}, {"sketch", "count_min"}};
  EXPECT_EQ(metrics_serial.GetCounter("fewstate_sketch_word_writes_total",
                                      labels)->Value(),
            metrics_lanes.GetCounter("fewstate_sketch_word_writes_total",
                                     labels)->Value());
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("shard-0-lane-1"), std::string::npos);
  EXPECT_NE(json.find("shard-0-lane-2"), std::string::npos);
  EXPECT_EQ(json.find("shard-0-lane-3"), std::string::npos);
  EXPECT_NE(json.find("update:fp_estimator"), std::string::npos);
  // stable_morris (lane 0) misses its cold memo in the first batch, so
  // its pre-stage parts 1 and 2 run on the helper lanes.
  const auto spans = SpansByThread(trace);
  EXPECT_EQ(spans.count({"shard-0-lane-1", "prepare:stable_morris"}), 1u);
  EXPECT_EQ(spans.count({"shard-0-lane-2", "prepare:stable_morris"}), 1u);
  EXPECT_EQ(spans.count({"shard-0-lane-1", "update:full_sample_and_hold"}),
            1u);
}

TEST(ReplicaPipelineLanes, WideUniversePreStageSplitsAcrossEveryLane) {
  const Stream stream = ZipfStream(kWideFlows, 1.1, kLength, 46);
  const Stream continuation = ZipfStream(kWideFlows, 1.1, 3000, 47);
  for (size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("drain_lanes=" + std::to_string(lanes));
    TraceRecorder trace;
    Outcome parallel;
    RunPipeline(lanes, stream, nullptr, &trace, &parallel, kWideFlows);
    Outcome reference;
    RunPipeline(1, stream, nullptr, nullptr, &reference, kWideFlows);
    ExpectSameOutcome(reference, parallel, continuation);
    const auto spans = SpansByThread(trace);
    EXPECT_EQ(spans.count({"", "prepare:stable_morris"}), 1u);
    for (size_t k = 1; k < parallel.lanes; ++k) {
      EXPECT_EQ(spans.count({"shard-0-lane-" + std::to_string(k),
                             "prepare:stable_morris"}),
                1u)
          << "lane " << k;
    }
  }
}

TEST(ReplicaPipelineLanes, LaneCountClampsToTheRoster) {
  const std::vector<SketchFactory> roster = Roster();
  std::unique_ptr<ReplicaPipeline> p = BuildPipeline(64, roster);
  EXPECT_EQ(p->drain_lanes(), 1u);  // no lanes before the run
  p->BeginRun(nullptr, nullptr);
  EXPECT_EQ(p->drain_lanes(), roster.size());
  p->Report();
  EXPECT_EQ(p->drain_lanes(), 1u);  // joined

  std::unique_ptr<ReplicaPipeline> zero = BuildPipeline(0, roster);
  zero->BeginRun(nullptr, nullptr);
  EXPECT_EQ(zero->drain_lanes(), 1u);
}

// Drives a one-slot pipeline with `Sketch::Drain`'s batching (the way
// recovery replays a tail) and hands the sketch back; `lanes_seen` gets
// the running lane count after the last batch.
std::unique_ptr<Sketch> DrainThroughPipeline(std::unique_ptr<Sketch> sketch,
                                             size_t drain_lanes,
                                             const Stream& stream,
                                             size_t* lanes_seen) {
  ReplicaPipelineOptions options;
  options.drain_lanes = drain_lanes;
  ReplicaPipeline p(options);
  p.Add("one", std::move(sketch));
  p.BeginRun(nullptr, nullptr);
  EXPECT_EQ(p.drain_lanes(), 1u);  // one slot: one roster lane
  VectorSource source(stream);
  std::vector<Item> buffer(kDefaultDrainBatchItems);
  uint64_t processed = 0;
  ForEachBatch(source, buffer.data(), buffer.size(),
               [&](const Item* batch, size_t count) {
                 p.Drain(batch, count);
                 processed += count;
                 p.AtBatchBoundary(processed);
               });
  *lanes_seen = p.drain_lanes();
  const std::vector<ReplicaSketchReport> rows = p.Report();
  EXPECT_EQ(rows[0].ingest.updates, stream.size());
  EXPECT_EQ(p.drain_lanes(), 1u);  // joined
  return p.TakeSketch(0);
}

void ExpectSameLog(const WriteLog& a, const WriteLog& b) {
  EXPECT_EQ(a.total_appends(), b.total_appends());
  ASSERT_EQ(a.records().size(), b.records().size());
  for (size_t i = 0; i < a.records().size(); ++i) {
    ASSERT_EQ(a.records()[i].epoch, b.records()[i].epoch) << "record " << i;
    ASSERT_EQ(a.records()[i].cell, b.records()[i].cell) << "record " << i;
  }
}

TEST(ReplicaPipelineLanes, OneSketchPreStagePipelineIsBitwiseSketchDrain) {
  // Wide and cold: every batch misses the projection memo for thousands
  // of distinct items, so each plan has a part for every lane.
  const Stream stream = ZipfStream(kWideFlows, 1.1, kLength, 49);
  const Stream continuation = ZipfStream(kWideFlows, 1.1, 3000, 50);
  for (const auto mode : {StableSketch::CounterMode::kMorris,
                          StableSketch::CounterMode::kExact}) {
    const auto make = [mode] {
      return std::make_unique<StableSketch>(0.5, 16, 31, mode, 0.2);
    };
    for (size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      SCOPED_TRACE(std::string(mode == StableSketch::CounterMode::kMorris
                                   ? "morris"
                                   : "exact") +
                   " drain_lanes=" + std::to_string(lanes));
      std::unique_ptr<StableSketch> reference = make();
      WriteLog reference_log;
      reference->mutable_accountant()->set_write_sink(&reference_log);
      reference->Drain(VectorSource(stream));

      std::unique_ptr<StableSketch> fresh = make();
      WriteLog log;
      fresh->mutable_accountant()->set_write_sink(&log);
      size_t lanes_seen = 0;
      std::unique_ptr<Sketch> drained =
          DrainThroughPipeline(std::move(fresh), lanes, stream, &lanes_seen);
      EXPECT_EQ(lanes_seen, lanes);  // the pre-stage lanes started
      auto& got = static_cast<StableSketch&>(*drained);
      // The sketch leaves with the sink it came with.
      EXPECT_EQ(got.accountant().write_sink(), &log);
      EXPECT_EQ(got.TrackedWords(), reference->TrackedWords());
      ExpectSameCounters(got.accountant(), reference->accountant());
      ExpectSameLog(log, reference_log);
      // The RNG cursor: both continue alike.
      got.UpdateBatch(continuation.data(), continuation.size());
      reference->UpdateBatch(continuation.data(), continuation.size());
      EXPECT_EQ(got.TrackedWords(), reference->TrackedWords());
      ExpectSameCounters(got.accountant(), reference->accountant());
      ExpectSameLog(log, reference_log);
    }
  }
}

TEST(ReplicaPipelineLanes, RosterWithoutPreStageStartsNoHelperLane) {
  const Stream stream = ZipfStream(kWideFlows, 1.1, kLength, 51);
  size_t lanes_seen = 0;
  std::unique_ptr<Sketch> drained = DrainThroughPipeline(
      std::make_unique<CountMin>(4, 256, 7), 8, stream, &lanes_seen);
  EXPECT_EQ(lanes_seen, 1u);
  CountMin reference(4, 256, 7);
  reference.Drain(VectorSource(stream));
  ExpectSameCounters(drained->accountant(), reference.accountant());

  // Two CountMins at eight lanes: the two roster lanes, and no more.
  ReplicaPipelineOptions options;
  options.drain_lanes = 8;
  ReplicaPipeline p(options);
  p.Add("cm1", std::make_unique<CountMin>(4, 64, 3));
  p.Add("cm2", std::make_unique<CountMin>(4, 64, 3));
  p.BeginRun(nullptr, nullptr);
  p.Drain(stream.data(), stream.size());
  p.AtBatchBoundary(stream.size());
  EXPECT_EQ(p.drain_lanes(), 2u);
}

TEST(ReplicaPipelineLanes, TeardownWithoutReportJoinsTheLanes) {
  const Stream stream = ZipfStream(kFlows, 1.1, 3000, 44);
  for (size_t drains : {size_t{0}, size_t{3}}) {
    std::unique_ptr<ReplicaPipeline> p = BuildPipeline(3, Roster());
    p->BeginRun(nullptr, nullptr);
    ASSERT_EQ(p->drain_lanes(), 3u);
    for (size_t b = 0; b < drains; ++b) {
      p->Drain(stream.data() + b * 1000, 1000);
      p->AtBatchBoundary((b + 1) * 1000);
    }
    EXPECT_EQ(p->sketch(0)->accountant().updates(), drains * 1000);
    p.reset();  // must neither hang nor std::terminate
  }
}

// A CountMin whose UpdateBatch throws on a batch of `kPoisonBatch` items.
constexpr size_t kPoisonBatch = 7;
class ThrowingCountMin : public CountMin {
 public:
  ThrowingCountMin() : CountMin(4, 64, 3) {}
  void UpdateBatch(const Item* items, size_t n) override {
    if (n == kPoisonBatch) throw std::runtime_error("replica failed");
    CountMin::UpdateBatch(items, n);
  }
};

TEST(ReplicaPipelineLanes, ReplicaFailureReachesTheCallerAfterTheBarrier) {
  const Stream stream = ZipfStream(kFlows, 1.1, 1000, 45);
  // The throwing replica on the calling thread's lane, then on a lane thread.
  for (size_t throwing : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE("throwing slot " + std::to_string(throwing));
    ReplicaPipelineOptions options;
    options.drain_lanes = 3;
    ReplicaPipeline p(options);
    for (size_t i = 0; i < 3; ++i) {
      p.Add("cm" + std::to_string(i),
            i == throwing ? std::make_unique<ThrowingCountMin>()
                          : std::make_unique<CountMin>(4, 64, 3));
    }
    p.BeginRun(nullptr, nullptr);
    EXPECT_THROW(p.Drain(stream.data(), kPoisonBatch), std::runtime_error);
    // The other lanes finished the batch before Drain returned.
    EXPECT_EQ(p.sketch(2)->accountant().updates(), kPoisonBatch);
    // The pipeline keeps working once the failure has been delivered.
    p.Drain(stream.data(), stream.size());
    p.AtBatchBoundary(stream.size());
    EXPECT_EQ(p.Report()[throwing].ingest.updates, stream.size());
  }
}

// A Morris StableSketch whose pre-stage part 1 throws on a batch of
// `kPoisonPart` items, and whose plan throws on one of `kPoisonPlan`.
constexpr size_t kPoisonPart = 64;
constexpr size_t kPoisonPlan = 32;
class ThrowingPrepareSketch : public StableSketch {
 public:
  ThrowingPrepareSketch()
      : StableSketch(0.5, 16, 31, StableSketch::CounterMode::kMorris, 0.2) {}
  size_t PrepareBatch(const Item* items, size_t n, size_t parts) override {
    if (n == kPoisonPlan) throw std::runtime_error("plan failed");
    poisoned_ = n == kPoisonPart;
    return StableSketch::PrepareBatch(items, n, parts);
  }
  void PreparePart(size_t k) override {
    if (poisoned_ && k == 1) throw std::runtime_error("part failed");
    StableSketch::PreparePart(k);
  }

 private:
  bool poisoned_ = false;
};

TEST(ReplicaPipelineLanes, PreStageFailureReachesTheCallerAfterTheBarrier) {
  // Distinct items: every one misses the cold memo, so the poisoned batch
  // has a part for each of the three lanes.
  const Stream stream = PermutationStream(4096, 48);
  ReplicaPipelineOptions options;
  options.drain_lanes = 3;
  ReplicaPipeline p(options);
  p.Add("stable", std::make_unique<ThrowingPrepareSketch>());
  p.Add("cm1", std::make_unique<CountMin>(4, 64, 3));
  p.Add("cm2", std::make_unique<CountMin>(4, 64, 3));
  p.BeginRun(nullptr, nullptr);
  // A failing part (on lane 1), then a failing plan: the failed sketch
  // skips each batch, and the others consume it.
  size_t drained = 0;
  for (const size_t poison : {kPoisonPart, kPoisonPlan}) {
    SCOPED_TRACE("poisoned batch of " + std::to_string(poison));
    EXPECT_THROW(p.Drain(stream.data() + drained, poison),
                 std::runtime_error);
    drained += poison;
    EXPECT_EQ(p.sketch(0)->accountant().updates(), 0u);
    EXPECT_EQ(p.sketch(1)->accountant().updates(), drained);
    EXPECT_EQ(p.sketch(2)->accountant().updates(), drained);
  }
  // The next batch works, and leaves the failed sketch exactly where a
  // sketch that only ever saw that batch is.
  const Item* rest = stream.data() + drained;
  const size_t rest_n = stream.size() - drained;
  p.Drain(rest, rest_n);
  p.AtBatchBoundary(stream.size());
  StableSketch reference(0.5, 16, 31, StableSketch::CounterMode::kMorris, 0.2);
  reference.UpdateBatch(rest, rest_n);
  const auto& stable = static_cast<const StableSketch&>(*p.sketch(0));
  EXPECT_EQ(stable.TrackedWords(), reference.TrackedWords());
  EXPECT_EQ(stable.accountant().word_writes(),
            reference.accountant().word_writes());
  const std::vector<ReplicaSketchReport> rows = p.Report();
  EXPECT_EQ(rows[0].ingest.updates, rest_n);
  EXPECT_EQ(rows[1].ingest.updates, stream.size());
}

}  // namespace
}  // namespace fewstate
