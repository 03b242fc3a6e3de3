// The WriteSink pipeline: live NVM pricing must agree bitwise with the
// recorded-log replay path on streams the log can hold (replay feeds the
// log through the same sink), TeeSink must be equivalent to each sink
// alone, truncated replays must say so, and sharded checkpoint wear must
// be deterministic.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "api/item_source.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "core/full_sample_and_hold.h"
#include "nvm/live_sink.h"
#include "nvm/nvm_adapter.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "state/state_accountant.h"
#include "state/write_log.h"
#include "state/write_sink.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

// Bitwise: exact equality on every field, doubles included (inf == inf).
void ExpectReportsIdentical(const NvmReplayReport& a,
                            const NvmReplayReport& b) {
  EXPECT_EQ(a.writes_replayed, b.writes_replayed);
  EXPECT_EQ(a.reads_replayed, b.reads_replayed);
  EXPECT_EQ(a.max_cell_wear, b.max_cell_wear);
  EXPECT_EQ(a.wear_imbalance, b.wear_imbalance);
  EXPECT_EQ(a.energy_nj, b.energy_nj);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.projected_stream_replays_to_failure,
            b.projected_stream_replays_to_failure);
  EXPECT_EQ(a.dropped_writes, b.dropped_writes);
}

NvmSpec SmallSpec(NvmSpec::Leveling leveling) {
  NvmSpec spec;
  spec.config.num_cells = 1 << 12;
  spec.config.endurance = 1 << 20;
  spec.leveling = leveling;
  spec.rotate_period = 16;
  spec.hash_seed = 11;
  return spec;
}

Stream TestStream() { return ZipfStream(2000, 1.2, 50000, /*seed=*/97); }

FullSampleAndHoldOptions FshOptions() {
  FullSampleAndHoldOptions options;
  options.universe = 2000;
  options.stream_length_hint = 50000;
  options.p = 2.0;
  options.eps = 0.3;
  options.seed = 12;
  return options;
}

// A sink that records raw events, to pin the accountant->sink contract.
struct RecordingSink : public WriteSink {
  std::vector<WriteRecord> writes;
  uint64_t bulk_reads = 0;
  int flushes = 0;
  int resets = 0;

  void OnWrite(uint64_t epoch, uint64_t cell) override {
    writes.push_back(WriteRecord{epoch, cell});
  }
  void OnBulkReads(uint64_t count) override { bulk_reads += count; }
  void Flush() override { ++flushes; }
  void Reset() override { ++resets; }
};

TEST(WriteSink, AccountantStreamsEveryEventToTheSink) {
  StateAccountant a;
  RecordingSink sink;
  a.set_write_sink(&sink);
  EXPECT_EQ(a.write_sink(), &sink);

  a.BeginUpdate();
  a.RecordWrite(5, 2);  // words: cells 5 and 6, epoch 1
  a.RecordRead(3);
  a.RecordSuppressedWrite();  // not a state change: never reaches the sink
  a.BeginUpdate();
  a.RecordWrite(9);

  ASSERT_EQ(sink.writes.size(), 3u);
  EXPECT_EQ(sink.writes[0].epoch, 1u);
  EXPECT_EQ(sink.writes[0].cell, 5u);
  EXPECT_EQ(sink.writes[1].cell, 6u);
  EXPECT_EQ(sink.writes[2].epoch, 2u);
  EXPECT_EQ(sink.writes[2].cell, 9u);
  EXPECT_EQ(sink.bulk_reads, 3u);

  a.Reset();
  EXPECT_EQ(sink.resets, 1);
}

// The acceptance bar: for every wear policy, the live path's report is
// bitwise-identical to log+replay on a stream the log holds entirely.
TEST(WriteSink, LiveSinkMatchesLogReplayBitwiseForEveryPolicy) {
  const Stream stream = TestStream();
  for (NvmSpec::Leveling leveling :
       {NvmSpec::Leveling::kDirect, NvmSpec::Leveling::kRotating,
        NvmSpec::Leveling::kHashed}) {
    const NvmSpec spec = SmallSpec(leveling);

    WriteLog log(1ULL << 24);
    CountMin logged(4, 512, /*seed=*/7);
    logged.mutable_accountant()->set_write_sink(&log);
    logged.Consume(stream);
    const NvmReplayReport replayed =
        ReplayOnNvm(log, logged.accountant(), spec);
    ASSERT_EQ(replayed.dropped_writes, 0u);

    LiveNvmSink live(spec);
    CountMin streamed(4, 512, /*seed=*/7);
    streamed.mutable_accountant()->set_write_sink(&live);
    streamed.Consume(stream);

    ExpectReportsIdentical(live.Report(), replayed);
  }
}

// Same equivalence for a write-frugal sketch, whose traffic is dominated
// by reads and suppressed writes (exercises the bulk-read forwarding).
TEST(WriteSink, LiveSinkMatchesLogReplayForWriteFrugalSketch) {
  const Stream stream = TestStream();
  const NvmSpec spec = SmallSpec(NvmSpec::Leveling::kHashed);

  WriteLog log(1ULL << 24);
  FullSampleAndHold logged(FshOptions());
  logged.mutable_accountant()->set_write_sink(&log);
  logged.Consume(stream);
  const NvmReplayReport replayed =
      ReplayOnNvm(log, logged.accountant(), spec);

  LiveNvmSink live(spec);
  FullSampleAndHold streamed(FshOptions());
  streamed.mutable_accountant()->set_write_sink(&live);
  streamed.Consume(stream);

  ExpectReportsIdentical(live.Report(), replayed);
}

// TeeSink composes: a log and a live device fed through one tee behave
// exactly as each would alone.
TEST(WriteSink, TeeSinkIsEquivalentToEachSinkAlone) {
  const Stream stream = TestStream();
  const NvmSpec spec = SmallSpec(NvmSpec::Leveling::kDirect);

  WriteLog solo_log(1ULL << 24);
  CountMin a(4, 512, /*seed=*/3);
  a.mutable_accountant()->set_write_sink(&solo_log);
  a.Consume(stream);

  LiveNvmSink solo_live(spec);
  CountMin b(4, 512, /*seed=*/3);
  b.mutable_accountant()->set_write_sink(&solo_live);
  b.Consume(stream);

  WriteLog teed_log(1ULL << 24);
  LiveNvmSink teed_live(spec);
  TeeSink tee({&teed_log, &teed_live});
  CountMin c(4, 512, /*seed=*/3);
  c.mutable_accountant()->set_write_sink(&tee);
  c.Consume(stream);

  ASSERT_EQ(teed_log.records().size(), solo_log.records().size());
  for (size_t i = 0; i < solo_log.records().size(); ++i) {
    EXPECT_EQ(teed_log.records()[i].epoch, solo_log.records()[i].epoch);
    EXPECT_EQ(teed_log.records()[i].cell, solo_log.records()[i].cell);
  }
  EXPECT_EQ(teed_log.total_appends(), solo_log.total_appends());
  ExpectReportsIdentical(teed_live.Report(), solo_live.Report());
}

// Satellite: a truncated log must say so instead of silently
// under-reporting wear — and the live path must never drop.
TEST(WriteSink, ReplaySurfacesDroppedWritesAndLiveSinkNeverDrops) {
  const Stream stream = TestStream();
  const NvmSpec spec = SmallSpec(NvmSpec::Leveling::kDirect);

  WriteLog tiny_log(/*capacity=*/1000);
  LiveNvmSink live(spec);
  TeeSink tee({&tiny_log, &live});
  CountMin alg(4, 512, /*seed=*/5);
  alg.mutable_accountant()->set_write_sink(&tee);
  alg.Consume(stream);

  ASSERT_GT(tiny_log.dropped(), 0u);
  const NvmReplayReport replayed =
      ReplayOnNvm(tiny_log, alg.accountant(), spec);
  EXPECT_TRUE(replayed.truncated());
  EXPECT_EQ(replayed.dropped_writes, tiny_log.dropped());
  EXPECT_EQ(replayed.writes_replayed + replayed.dropped_writes,
            alg.accountant().word_writes());

  const NvmReplayReport exact = live.Report();
  EXPECT_FALSE(exact.truncated());
  EXPECT_EQ(exact.writes_replayed, alg.accountant().word_writes());
  // Truncation under-reports wear; the live device saw everything.
  EXPECT_LT(replayed.max_cell_wear, exact.max_cell_wear);
}

TEST(WriteSink, AccountantResetRenewsTheLiveDevice) {
  const NvmSpec spec = SmallSpec(NvmSpec::Leveling::kDirect);
  LiveNvmSink live(spec);
  StateAccountant a;
  a.set_write_sink(&live);
  a.BeginUpdate();
  a.RecordWrite(3);
  a.RecordRead(2);
  EXPECT_EQ(live.Report().writes_replayed, 1u);
  a.Reset();
  const NvmReplayReport fresh = live.Report();
  EXPECT_EQ(fresh.writes_replayed, 0u);
  EXPECT_EQ(fresh.reads_replayed, 0u);
  EXPECT_EQ(fresh.max_cell_wear, 0u);
}

TEST(ShardedNvm, AddSketchWithNvmPricesWritesLive) {
  ShardedEngine engine(ShardedEngineOptions{});
  const SketchFactory factory =
      SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{512},
                                  uint64_t{7});
  NvmSpec invalid;
  invalid.config.num_cells = 0;
  EXPECT_FALSE(engine.AddSketch(factory, invalid).ok());
  ASSERT_TRUE(
      engine.AddSketch(factory, SmallSpec(NvmSpec::Leveling::kDirect)).ok());

  const ShardedRunReport report = engine.Run(VectorSource(TestStream()));
  const SketchRunReport& row = report.Find("count_min")->per_shard[0];
  ASSERT_TRUE(row.has_nvm);
  EXPECT_EQ(row.nvm.writes_replayed, row.word_writes);
  EXPECT_EQ(row.nvm.dropped_writes, 0u);
  EXPECT_GT(row.nvm.max_cell_wear, 0u);
}

TEST(ShardedNvm, SingleShardLiveDeviceMatchesStandaloneSinkBitwise) {
  const Stream stream = TestStream();
  const NvmSpec spec = SmallSpec(NvmSpec::Leveling::kRotating);
  const SketchFactory factory = SketchFactory::Of<CountMin>(
      "count_min", size_t{4}, size_t{512}, uint64_t{7}, false);

  // Reference: the same sketch drained standalone, its writes priced on a
  // `LiveNvmSink` attached directly to its accountant.
  LiveNvmSink live(spec);
  std::unique_ptr<Sketch> reference = factory.Make();
  reference->mutable_accountant()->set_write_sink(&live);
  reference->Drain(VectorSource(stream));
  const NvmReplayReport expected = live.Report();
  const StateAccountant& want = reference->accountant();

  ShardedEngineOptions options;
  options.shards = 1;
  ShardedEngine sharded(options);
  ASSERT_TRUE(sharded.AddSketch(factory, spec).ok());
  const ShardedRunReport report = sharded.Run(VectorSource(stream));
  const ShardedSketchReport* row = report.Find("count_min");
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(row->per_shard[0].has_nvm);
  ASSERT_TRUE(row->total.has_nvm);
  ExpectReportsIdentical(row->per_shard[0].nvm, expected);
  ExpectReportsIdentical(row->total.nvm, expected);
  EXPECT_EQ(row->total.updates, want.updates());
  EXPECT_EQ(row->total.state_changes, want.state_changes());
  EXPECT_EQ(row->total.word_writes, want.word_writes());
  EXPECT_EQ(row->total.suppressed_writes, want.suppressed_writes());
  EXPECT_EQ(row->total.word_reads, want.word_reads());
}

ShardedRunReport RunCheckpointed(size_t shards, uint64_t every,
                                 uint64_t items) {
  ShardedEngineOptions options;
  options.shards = shards;
  options.batch_items = 1024;
  options.checkpoint_policy =
      CheckpointPolicy::EveryItems(every, CheckpointPolicy::Snapshot::kFull);
  options.checkpoint_nvm = SmallSpec(NvmSpec::Leveling::kDirect);
  ShardedEngine engine(options);
  EXPECT_TRUE(engine
                  .AddSketch(SketchFactory::Of<CountMin>(
                                 "count_min", size_t{4}, size_t{512},
                                 uint64_t{7}, false),
                             SmallSpec(NvmSpec::Leveling::kDirect))
                  .ok());
  EXPECT_TRUE(engine
                  .AddSketch(SketchFactory::Of<CountSketch>(
                                 "count_sketch", size_t{4}, size_t{512},
                                 uint64_t{8}),
                             SmallSpec(NvmSpec::Leveling::kHashed))
                  .ok());
  return engine.Run(ZipfSource(5000, 1.2, items, /*seed=*/4242));
}

TEST(ShardedNvm, CheckpointWearIsDeterministicForFixedSeedAndShards) {
  const ShardedRunReport first = RunCheckpointed(2, 10000, 60000);
  const ShardedRunReport second = RunCheckpointed(2, 10000, 60000);
  ASSERT_EQ(first.sketches.size(), second.sketches.size());
  for (size_t i = 0; i < first.sketches.size(); ++i) {
    const ShardedSketchReport& a = first.sketches[i];
    const ShardedSketchReport& b = second.sketches[i];
    EXPECT_GT(a.checkpoints_taken, 0u);
    EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
    EXPECT_EQ(a.checkpoint.updates, b.checkpoint.updates);
    EXPECT_EQ(a.checkpoint.state_changes, b.checkpoint.state_changes);
    EXPECT_EQ(a.checkpoint.word_writes, b.checkpoint.word_writes);
    EXPECT_EQ(a.checkpoint.word_reads, b.checkpoint.word_reads);
    ASSERT_TRUE(a.checkpoint.has_nvm);
    ExpectReportsIdentical(a.checkpoint.nvm, b.checkpoint.nvm);
    ExpectReportsIdentical(a.total.nvm, b.total.nvm);
  }
}

TEST(ShardedNvm, CheckpointCountMatchesThresholdsCrossed) {
  // S == 1: the shard sees all N items, so exactly floor(N / every)
  // thresholds are crossed regardless of batch splits.
  const ShardedRunReport report = RunCheckpointed(1, 10000, 55000);
  for (const ShardedSketchReport& sk : report.sketches) {
    EXPECT_EQ(sk.checkpoints_taken, 5u);
    EXPECT_EQ(sk.checkpoint.updates, 5u);  // one merge epoch per snapshot
    EXPECT_GT(sk.checkpoint.word_writes, 0u);
  }
}

TEST(ShardedNvm, MoreFrequentCheckpointsCostMoreDurabilityWear) {
  const ShardedRunReport sparse = RunCheckpointed(1, 20000, 60000);
  const ShardedRunReport dense = RunCheckpointed(1, 5000, 60000);
  const ShardedSketchReport* s = sparse.Find("count_min");
  const ShardedSketchReport* d = dense.Find("count_min");
  ASSERT_NE(s, nullptr);
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->checkpoints_taken, s->checkpoints_taken);
  EXPECT_GT(d->checkpoint.word_writes, s->checkpoint.word_writes);
  EXPECT_GT(d->checkpoint.nvm.writes_replayed,
            s->checkpoint.nvm.writes_replayed);
  // Update-path wear is unaffected by how often we snapshot.
  EXPECT_EQ(d->per_shard[0].word_writes, s->per_shard[0].word_writes);
}

}  // namespace
}  // namespace fewstate
