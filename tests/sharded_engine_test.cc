// The sharded ingest subsystem: an S=1 ShardedEngine run must match
// standalone sketches drained over the same stream, sketch-for-sketch on
// accountant totals and estimates; S>1 runs must partition the stream
// exactly, keep per-shard
// wear isolated, merge linear sketches back to the single-run state, and
// reject non-mergeable sketches at registration.

#include "shard/sharded_engine.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ams_sketch.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "core/sample_and_hold.h"
#include "obs/trace.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kUniverse = 400;
constexpr uint64_t kLength = 20000;
constexpr uint64_t kSeed = 77;

// The full mergeable roster, identically configured everywhere.
std::vector<SketchFactory> MergeableFactories() {
  return {
      SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{128},
                                  uint64_t{21}, false),
      SketchFactory::Of<CountSketch>("count_sketch", size_t{3}, size_t{128},
                                     uint64_t{22}),
      SketchFactory::Of<AmsSketch>("ams", size_t{3}, size_t{32}, uint64_t{23}),
      SketchFactory::Of<MisraGries>("misra_gries", size_t{64}),
      SketchFactory::Of<SpaceSaving>("space_saving", size_t{64}),
      SketchFactory::Of<StableSketch>("stable_morris", 0.5, size_t{16},
                                      uint64_t{25},
                                      StableSketch::CounterMode::kMorris),
  };
}

SketchFactory SampleAndHoldFactory() {
  SampleAndHoldOptions options;
  options.universe = kUniverse;
  options.stream_length_hint = kLength;
  options.p = 2.0;
  options.eps = 0.4;
  options.seed = 11;
  return SketchFactory("sample_and_hold", [options] {
    return std::make_unique<SampleAndHold>(options);
  });
}

// Standalone references: one fresh sketch per factory, each drained over
// `stream` on its own (the reference S=1 must reproduce).
std::vector<std::unique_ptr<Sketch>> DrainStandalone(
    const std::vector<SketchFactory>& factories, const Stream& stream) {
  std::vector<std::unique_ptr<Sketch>> out;
  for (const SketchFactory& f : factories) {
    out.push_back(f.Make());
    EXPECT_EQ(out.back()->Drain(VectorSource(stream)), stream.size());
  }
  return out;
}

// Report totals and estimates of S=1 `report`/`sharded` against the
// standalone `reference` sketches, factory by factory.
void ExpectMatchesStandalone(
    const std::vector<SketchFactory>& factories,
    const std::vector<std::unique_ptr<Sketch>>& reference,
    const ShardedRunReport& report, const ShardedEngine& sharded) {
  for (size_t i = 0; i < factories.size(); ++i) {
    const std::string& name = factories[i].name();
    const StateAccountant& want = reference[i]->accountant();
    const ShardedSketchReport* got = report.Find(name);
    ASSERT_NE(got, nullptr) << name;
    // No merge phase at S=1: totals are exactly the one shard's ingest.
    EXPECT_EQ(got->merge.state_changes, 0u) << name;
    EXPECT_EQ(got->total.updates, want.updates()) << name;
    EXPECT_EQ(got->total.state_changes, want.state_changes()) << name;
    EXPECT_EQ(got->total.word_writes, want.word_writes()) << name;
    EXPECT_EQ(got->total.suppressed_writes, want.suppressed_writes()) << name;
    EXPECT_EQ(got->total.word_reads, want.word_reads()) << name;
    EXPECT_EQ(got->total.peak_allocated_words, want.peak_allocated_words())
        << name;

    // Identical estimates: same seeds, same update sequence.
    const Sketch* merged = sharded.Merged(name);
    ASSERT_NE(merged, nullptr) << name;
    for (Item j = 0; j < kUniverse; ++j) {
      EXPECT_EQ(merged->EstimateFrequency(j),
                reference[i]->EstimateFrequency(j))
          << name << " diverged at item " << j;
    }
  }
}

TEST(ShardedEngine, SingleShardMatchesStandaloneDrainSketchForSketch) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  // shards == 1 accepts non-mergeable sketches too (single-threaded path).
  std::vector<SketchFactory> factories = MergeableFactories();
  factories.push_back(SampleAndHoldFactory());
  ShardedEngineOptions options;
  options.shards = 1;
  options.batch_items = 512;
  ShardedEngine sharded(options);
  for (const SketchFactory& f : factories) {
    ASSERT_TRUE(sharded.AddSketch(f).ok()) << f.name();
  }
  const std::vector<std::unique_ptr<Sketch>> reference =
      DrainStandalone(factories, stream);
  const ShardedRunReport report = sharded.Run(VectorSource(stream));

  EXPECT_EQ(report.shards, 1u);
  EXPECT_EQ(report.items_ingested, kLength);
  ASSERT_EQ(report.shard_items.size(), 1u);
  EXPECT_EQ(report.shard_items[0], kLength);
  EXPECT_GT(report.items_per_second, 0.0);
  ExpectMatchesStandalone(factories, reference, report, sharded);
}

TEST(ShardedEngine, ShardedLinearSketchesMatchSingleRunExactly) {
  // Linearity: hash-partitioning the stream and summing the shard tables
  // is bitwise the same table as one replica that saw everything.
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  ShardedEngineOptions options;
  options.shards = 4;
  options.batch_items = 256;
  ShardedEngine sharded(options);
  for (const SketchFactory& f : MergeableFactories()) {
    ASSERT_TRUE(sharded.AddSketch(f).ok()) << f.name();
  }
  sharded.Run(VectorSource(stream));

  CountMin cm(4, 128, 21);
  CountSketch cs(3, 128, 22);
  AmsSketch ams(3, 32, 23);
  cm.Consume(stream);
  cs.Consume(stream);
  ams.Consume(stream);

  for (Item j = 0; j < kUniverse; ++j) {
    EXPECT_EQ(sharded.Merged("count_min")->EstimateFrequency(j),
              cm.EstimateFrequency(j));
    EXPECT_EQ(sharded.Merged("count_sketch")->EstimateFrequency(j),
              cs.EstimateFrequency(j));
    EXPECT_EQ(sharded.Merged("ams")->EstimateFrequency(j),
              ams.EstimateFrequency(j));
  }
}

TEST(ShardedEngine, PartitionAndAggregationAccounting) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  ShardedEngineOptions options;
  options.shards = 4;
  options.batch_items = 256;
  ShardedEngine sharded(options);
  for (const SketchFactory& f : MergeableFactories()) {
    ASSERT_TRUE(sharded.AddSketch(f).ok());
  }
  const ShardedRunReport report = sharded.Run(VectorSource(stream));

  // Every item lands on exactly one shard, and with a 400-item universe
  // all four shards see traffic.
  uint64_t routed = 0;
  for (uint64_t items : report.shard_items) {
    EXPECT_GT(items, 0u);
    routed += items;
  }
  EXPECT_EQ(routed, kLength);

  for (const ShardedSketchReport& sk : report.sketches) {
    EXPECT_TRUE(sk.mergeable) << sk.name;
    ASSERT_EQ(sk.per_shard.size(), 4u) << sk.name;
    SketchRunReport sum;
    uint64_t updates = 0;
    for (size_t s = 0; s < sk.per_shard.size(); ++s) {
      // Each shard's replica saw exactly the items routed to it.
      EXPECT_EQ(sk.per_shard[s].updates, report.shard_items[s]) << sk.name;
      updates += sk.per_shard[s].updates;
      sum.state_changes += sk.per_shard[s].state_changes;
      sum.word_writes += sk.per_shard[s].word_writes;
    }
    EXPECT_EQ(updates, kLength) << sk.name;
    // Aggregate == sum of shard ingest + merge consolidation, nothing else.
    EXPECT_EQ(sk.total.state_changes,
              sum.state_changes + sk.merge.state_changes)
        << sk.name;
    EXPECT_EQ(sk.total.word_writes, sum.word_writes + sk.merge.word_writes)
        << sk.name;
  }

  // CountMin changes state on every update, and each of the S-1 merges is
  // one additional accounting epoch — the aggregate wear figure a 4-way
  // deployment actually pays.
  const ShardedSketchReport* cm = report.Find("count_min");
  ASSERT_NE(cm, nullptr);
  EXPECT_EQ(cm->merge.state_changes, 3u);
  EXPECT_EQ(cm->total.state_changes, kLength + 3);

  // Report plumbing.
  EXPECT_EQ(report.Find("no_such_sketch"), nullptr);
  EXPECT_FALSE(report.ToString().empty());
  const std::string csv = report.ToCsv("S4");
  // One row per (sketch, shard) plus merge and total rows per sketch.
  const size_t rows = static_cast<size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, report.sketches.size() * (4 + 2));
  EXPECT_NE(csv.find("S4,count_min[total]"), std::string::npos);
}

TEST(ShardedEngine, RunsAreDeterministic) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  ShardedEngineOptions options;
  options.shards = 3;
  options.batch_items = 1;  // degenerate batching must not change results
  options.max_queued_batches = 2;
  ShardedEngine sharded(options);
  for (const SketchFactory& f : MergeableFactories()) {
    ASSERT_TRUE(sharded.AddSketch(f).ok());
  }
  const ShardedRunReport first = sharded.Run(VectorSource(stream));
  const ShardedRunReport second = sharded.Run(VectorSource(stream));

  ASSERT_EQ(first.sketches.size(), second.sketches.size());
  for (size_t i = 0; i < first.sketches.size(); ++i) {
    EXPECT_EQ(first.sketches[i].total.state_changes,
              second.sketches[i].total.state_changes)
        << first.sketches[i].name;
    EXPECT_EQ(first.sketches[i].total.word_writes,
              second.sketches[i].total.word_writes)
        << first.sketches[i].name;
  }
  EXPECT_EQ(first.shard_items, second.shard_items);
}

TEST(ShardedEngine, RegistrationRules) {
  ShardedEngineOptions options;
  options.shards = 2;
  ShardedEngine sharded(options);

  // Non-mergeable sketches are rejected up front when S > 1 …
  const Status not_mergeable = sharded.AddSketch(SampleAndHoldFactory());
  EXPECT_FALSE(not_mergeable.ok());
  EXPECT_EQ(not_mergeable.code(), Status::Code::kFailedPrecondition);

  // … duplicate names and null makers are invalid arguments.
  ASSERT_TRUE(sharded
                  .AddSketch(SketchFactory::Of<CountMin>(
                      "count_min", size_t{4}, size_t{64}, uint64_t{1}, false))
                  .ok());
  EXPECT_FALSE(sharded
                   .AddSketch(SketchFactory::Of<CountMin>(
                       "count_min", size_t{4}, size_t{64}, uint64_t{1}, false))
                   .ok());
  EXPECT_FALSE(
      sharded.AddSketch(SketchFactory("null", [] { return nullptr; })).ok());
  EXPECT_EQ(sharded.size(), 1u);

  // Accessors before the first run.
  EXPECT_EQ(sharded.Merged("count_min"), nullptr);
  EXPECT_EQ(sharded.Replica(0, "count_min"), nullptr);

  sharded.Run(VectorSource(ZipfStream(kUniverse, 1.2, 1000, kSeed)));
  EXPECT_NE(sharded.Merged("count_min"), nullptr);
  EXPECT_NE(sharded.Replica(1, "count_min"), nullptr);
  EXPECT_EQ(sharded.Replica(2, "count_min"), nullptr);
  EXPECT_EQ(sharded.Merged("nope"), nullptr);

  // A sketch registered after a run has no replicas until the next run.
  ASSERT_TRUE(sharded
                  .AddSketch(SketchFactory::Of<CountMin>(
                      "late", size_t{2}, size_t{32}, uint64_t{3}, false))
                  .ok());
  EXPECT_EQ(sharded.Merged("late"), nullptr);
}

TEST(ShardedEngine, EmptyAndTinyStreams) {
  ShardedEngineOptions options;
  options.shards = 4;
  options.batch_items = 4096;  // far larger than the stream
  ShardedEngine sharded(options);
  ASSERT_TRUE(sharded
                  .AddSketch(SketchFactory::Of<CountMin>(
                      "count_min", size_t{2}, size_t{32}, uint64_t{5}, false))
                  .ok());

  const ShardedRunReport empty = sharded.Run(VectorSource(Stream{}));
  EXPECT_EQ(empty.items_ingested, 0u);
  EXPECT_EQ(empty.Find("count_min")->total.state_changes, 0u)
      << "merging all-zero tables must not register wear";

  const ShardedRunReport tiny = sharded.Run(VectorSource(Stream{1, 2, 3}));
  EXPECT_EQ(tiny.items_ingested, 3u);
  uint64_t routed = 0;
  for (uint64_t items : tiny.shard_items) routed += items;
  EXPECT_EQ(routed, 3u);
}

TEST(ShardedEngine, SourceFedSingleShardMatchesVectorFedDrain) {
  // The acceptance bar of the ItemSource redesign: S=1 ingest from a lazy
  // generator is sketch-for-sketch identical — estimates and accountant
  // totals — to standalone drains of the materialized vector.
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  const std::vector<SketchFactory> factories = MergeableFactories();
  ShardedEngineOptions options;
  options.shards = 1;
  options.batch_items = 512;
  ShardedEngine sharded(options);
  for (const SketchFactory& f : factories) {
    ASSERT_TRUE(sharded.AddSketch(f).ok()) << f.name();
  }
  const std::vector<std::unique_ptr<Sketch>> reference =
      DrainStandalone(factories, stream);
  const ShardedRunReport report =
      sharded.Run(ZipfSource(kUniverse, 1.2, kLength, kSeed));

  EXPECT_EQ(report.items_ingested, kLength);
  ExpectMatchesStandalone(factories, reference, report, sharded);
}

TEST(ShardedEngine, UnsizedSourceIngestsIdentically) {
  // Regression for the size-agnostic scheduler: a source that declines to
  // declare a horizon (SizeHint() == nullopt, i.e. a live socket) must
  // partition, ingest, and merge exactly like the same items from a sized
  // vector — batch scheduling may not consult the size up front.
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  ShardedEngineOptions options;
  options.shards = 4;
  options.batch_items = 256;

  ShardedEngine sized(options);
  ShardedEngine unsized(options);
  for (const SketchFactory& f : MergeableFactories()) {
    ASSERT_TRUE(sized.AddSketch(f).ok());
    ASSERT_TRUE(unsized.AddSketch(f).ok());
  }

  const ShardedRunReport want = sized.Run(VectorSource(stream));

  GeneratorSource generator = ZipfSource(kUniverse, 1.2, kLength, kSeed);
  UnsizedSource hidden(&generator);
  ASSERT_EQ(hidden.SizeHint(), std::nullopt);
  const ShardedRunReport got = unsized.Run(hidden);

  EXPECT_EQ(got.items_ingested, kLength)
      << "items must be counted at the ingest boundary, not from a hint";
  EXPECT_EQ(got.shard_items, want.shard_items);
  ASSERT_EQ(got.sketches.size(), want.sketches.size());
  for (size_t i = 0; i < want.sketches.size(); ++i) {
    const ShardedSketchReport& w = want.sketches[i];
    const ShardedSketchReport& g = got.sketches[i];
    EXPECT_EQ(g.total.state_changes, w.total.state_changes) << w.name;
    EXPECT_EQ(g.total.word_writes, w.total.word_writes) << w.name;
    EXPECT_EQ(g.merge.word_writes, w.merge.word_writes) << w.name;
    for (Item j = 0; j < kUniverse; ++j) {
      EXPECT_EQ(unsized.Merged(w.name)->EstimateFrequency(j),
                sized.Merged(w.name)->EstimateFrequency(j))
          << w.name << " diverged at item " << j;
    }
  }
}

// Restores the calling thread's CPU affinity mask on scope exit.
class AffinityGuard {
 public:
  AffinityGuard() { ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0; }
  ~AffinityGuard() {
    if (ok_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  bool ok() const { return ok_; }
  const cpu_set_t& saved() const { return saved_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

// Lanes are sized from the CPUs the process may run on, not from every
// online CPU: a run pinned to one CPU spawns no lane thread.
TEST(ShardedEngine, PinnedRunSpawnsNoLanes) {
  AffinityGuard guard;
  ASSERT_TRUE(guard.ok());
  int cpu = 0;
  while (cpu + 1 < CPU_SETSIZE && !CPU_ISSET(cpu, &guard.saved())) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

  TraceRecorder trace;
  ShardedEngineOptions options;
  options.shards = 1;
  options.trace = &trace;
  ShardedEngine engine(options);
  for (const char* name : {"cm0", "cm1", "cm2"}) {
    ASSERT_TRUE(engine
                    .AddSketch(SketchFactory::Of<CountMin>(
                        name, size_t{4}, size_t{64}, uint64_t{3}, false))
                    .ok());
  }
  const Stream stream = ZipfStream(kUniverse, 1.2, 5000, kSeed);
  EXPECT_EQ(engine.Run(VectorSource(stream)).items_ingested, stream.size());
  EXPECT_EQ(trace.ToJson().find("shard-0-lane-1"), std::string::npos);
}

}  // namespace
}  // namespace fewstate
