// The WriteSink pipeline: live NVM pricing must agree bitwise with the
// recorded-log replay path on streams the log can hold (replay feeds the
// log through the same sink), TeeSink must be equivalent to each sink
// alone, truncated replays must say so, and sharded checkpoint wear must
// be deterministic. A batch span delivered through `OnWriteSpan` must
// leave every sink exactly as the same records fed word by word, and the
// bitmap `DirtyTracker` must answer like an ordered set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "api/item_source.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "core/full_sample_and_hold.h"
#include "nvm/live_sink.h"
#include "nvm/nvm_adapter.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "state/dirty_tracker.h"
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
  int spans = 0;
  int flushes = 0;

  void OnWrite(uint64_t epoch, uint64_t cell) override {
    writes.push_back(WriteRecord{epoch, cell});
  }
  void OnWriteSpan(uint64_t base_epoch, const BatchWrite* batch,
                   size_t n) override {
    ++spans;
    WriteSink::OnWriteSpan(base_epoch, batch, n);
  }
  void OnBulkReads(uint64_t count) override { bulk_reads += count; }
  void Flush() override { ++flushes; }
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
}

// A flushed batch reaches the sink as one span whose events carry the
// scalar path's epoch numbering.
TEST(WriteSink, ApplyBatchDeliversOneSpanPerBatch) {
  StateAccountant a;
  RecordingSink sink;
  a.set_write_sink(&sink);
  a.BeginUpdate();
  a.RecordWrite(1);  // the pending pre-batch update, epoch 1

  BatchUpdateScratch scratch;
  scratch.Begin(a.needs_cell_addresses());
  scratch.BeginItem();
  scratch.Write(7, 2);  // cells 7 and 8, epoch 2
  scratch.BeginItem();
  scratch.SuppressedWrite();
  scratch.BeginItem();
  scratch.Write(3);  // epoch 4
  scratch.Read(5);
  a.ApplyBatch(scratch);

  EXPECT_EQ(sink.spans, 1);
  const std::vector<WriteRecord> want = {{1, 1}, {2, 7}, {2, 8}, {4, 3}};
  ASSERT_EQ(sink.writes.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sink.writes[i].epoch, want[i].epoch) << i;
    EXPECT_EQ(sink.writes[i].cell, want[i].cell) << i;
  }
  EXPECT_EQ(sink.bulk_reads, 5u);
  EXPECT_EQ(a.updates(), 4u);
  EXPECT_EQ(a.state_changes(), 3u);
}

// Every sink kind the span path specialises or defaults: a log, a dirty
// tracker, and a live device under each leveling scheme, uncached and
// behind a small cache that evicts.
struct SinkSet {
  WriteLog log{1ULL << 20};
  DirtyTracker dirty;
  std::vector<std::unique_ptr<LiveNvmSink>> nvm;

  explicit SinkSet(uint64_t endurance = SmallSpec(NvmSpec::Leveling::kDirect)
                                            .config.endurance) {
    for (NvmSpec::Leveling leveling :
         {NvmSpec::Leveling::kDirect, NvmSpec::Leveling::kRotating,
          NvmSpec::Leveling::kHashed}) {
      NvmSpec spec = SmallSpec(leveling);
      spec.config.endurance = endurance;
      nvm.push_back(std::make_unique<LiveNvmSink>(spec));
      spec.cache.sets = 4;
      spec.cache.ways = 2;
      spec.cache.line_words = 8;
      spec.cache.reuse_stack_max = 64;
      nvm.push_back(std::make_unique<LiveNvmSink>(spec));
    }
  }

  std::vector<WriteSink*> All() {
    std::vector<WriteSink*> sinks = {&log, &dirty};
    for (const std::unique_ptr<LiveNvmSink>& sink : nvm) {
      sinks.push_back(sink.get());
    }
    return sinks;
  }
};

// One seeded batch stream: spans of varying length (some empty), each
// with nondecreasing update indices, over cells up to three times the
// device size so the in-range shortcut and the wrap are both exercised.
struct SeededSpan {
  uint64_t base_epoch = 0;
  std::vector<BatchWrite> writes;
};

std::vector<SeededSpan> SeededSpans(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const uint64_t device_cells = SmallSpec(NvmSpec::Leveling::kDirect)
                                    .config.num_cells;
  std::vector<SeededSpan> spans;
  uint64_t epoch = 0;
  for (int s = 0; s < 40; ++s) {
    SeededSpan span;
    span.base_epoch = epoch;
    const uint32_t items = static_cast<uint32_t>(rng() % 300);
    for (uint32_t item = 0; item < items; ++item) {
      const uint64_t words = rng() % 5;
      for (uint64_t w = 0; w < words; ++w) {
        // Mostly a hot region (so the cache absorbs and levelers revisit
        // cells), sometimes anywhere up to 3x the device.
        const uint64_t cell =
            (rng() % 4 == 0) ? rng() % (3 * device_cells) : rng() % 96;
        span.writes.push_back(BatchWrite{cell, item});
      }
    }
    epoch += items;
    spans.push_back(std::move(span));
  }
  return spans;
}

void FeedSpans(WriteSink* sink, const std::vector<SeededSpan>& spans) {
  for (const SeededSpan& span : spans) {
    sink->OnWriteSpan(span.base_epoch, span.writes.data(),
                      span.writes.size());
  }
}

void FeedWords(WriteSink* sink, const std::vector<SeededSpan>& spans) {
  for (const SeededSpan& span : spans) {
    for (const BatchWrite& w : span.writes) {
      sink->OnWrite(span.base_epoch + w.update_index + 1, w.cell);
    }
  }
}

void ExpectCacheStatsIdentical(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.total_writes, b.total_writes);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.absorbed_writes, b.absorbed_writes);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
  EXPECT_EQ(a.clean_evictions, b.clean_evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.writebacks_pending, b.writebacks_pending);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.reuse_hist, b.reuse_hist);
  EXPECT_EQ(a.reuse_cold, b.reuse_cold);
}

void ExpectSinkSetsIdentical(SinkSet* spanned, SinkSet* worded) {
  const std::vector<WriteRecord>& a = spanned->log.records();
  const std::vector<WriteRecord>& b = worded->log.records();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].epoch, b[i].epoch) << i;
    EXPECT_EQ(a[i].cell, b[i].cell) << i;
  }
  EXPECT_EQ(spanned->log.total_appends(), worded->log.total_appends());

  EXPECT_EQ(spanned->dirty.dirty_words(), worded->dirty.dirty_words());
  const std::vector<uint64_t> cells = spanned->dirty.SortedCells();
  EXPECT_EQ(cells, worded->dirty.SortedCells());
  for (uint64_t cell : cells) EXPECT_TRUE(worded->dirty.Contains(cell));

  ASSERT_EQ(spanned->nvm.size(), worded->nvm.size());
  for (size_t i = 0; i < spanned->nvm.size(); ++i) {
    SCOPED_TRACE(i);
    // Compare before flushing too: pending cache contents must match.
    if (spanned->nvm[i]->cache() != nullptr) {
      ExpectCacheStatsIdentical(spanned->nvm[i]->cache()->stats(),
                                worded->nvm[i]->cache()->stats());
    }
    const NvmReplayReport ra = spanned->nvm[i]->Report();
    const NvmReplayReport rb = worded->nvm[i]->Report();
    ExpectReportsIdentical(ra, rb);
    EXPECT_EQ(ra.cache_enabled, rb.cache_enabled);
    ExpectCacheStatsIdentical(ra.cache, rb.cache);
    EXPECT_EQ(spanned->nvm[i]->device().cell_wear(),
              worded->nvm[i]->device().cell_wear());
    EXPECT_EQ(spanned->nvm[i]->device().worn_out_cells(),
              worded->nvm[i]->device().worn_out_cells());
  }
}

TEST(WriteSinkSpan, EverySinkMatchesPerWordDelivery) {
  const std::vector<SeededSpan> spans = SeededSpans(/*seed=*/2024);
  SinkSet spanned;
  SinkSet worded;
  const std::vector<WriteSink*> a = spanned.All();
  const std::vector<WriteSink*> b = worded.All();
  for (size_t i = 0; i < a.size(); ++i) {
    FeedSpans(a[i], spans);
    FeedWords(b[i], spans);
  }
  // The stream must reach past the device (the wrap) and evict.
  EXPECT_GT(spanned.dirty.SortedCells().back(),
            SmallSpec(NvmSpec::Leveling::kDirect).config.num_cells);
  EXPECT_GT(spanned.nvm[1]->cache()->stats().dirty_evictions, 0u);
  ExpectSinkSetsIdentical(&spanned, &worded);

  // Both deliveries share the in-range shortcut, so pin it against plain
  // `%` arithmetic: direct and start-gap rotation wear, recomputed here.
  const NvmSpec rotating = SmallSpec(NvmSpec::Leveling::kRotating);
  const uint64_t n = rotating.config.num_cells;
  std::vector<uint64_t> direct_wear(n, 0);
  std::vector<uint64_t> rotating_wear(n, 0);
  uint64_t offset = 0;
  uint64_t writes = 0;
  for (const SeededSpan& span : spans) {
    for (const BatchWrite& w : span.writes) {
      ++direct_wear[w.cell % n];
      ++rotating_wear[(w.cell + offset) % n];
      if (++writes % rotating.rotate_period == 0) offset = (offset + 1) % n;
    }
  }
  EXPECT_EQ(spanned.nvm[0]->device().cell_wear(), direct_wear);
  EXPECT_EQ(spanned.nvm[2]->device().cell_wear(), rotating_wear);
}

TEST(WriteSinkSpan, TeeOfEverySinkMatchesPerWordDelivery) {
  const std::vector<SeededSpan> spans = SeededSpans(/*seed=*/77);
  SinkSet spanned;
  SinkSet worded;
  TeeSink spanned_tee(spanned.All());
  TeeSink worded_tee(worded.All());
  FeedSpans(&spanned_tee, spans);
  FeedWords(&worded_tee, spans);
  ExpectSinkSetsIdentical(&spanned, &worded);
}

// With endurance 3 cells wear out mid-stream, so the span write's
// register-held worn-out count, max wear and failure flag must cross their
// thresholds inside a span exactly where per-word delivery does: after
// every span the device counters agree with per-word delivery and with
// the wear table, and every device (each scheme, uncached and cached)
// first fails inside one.
TEST(WriteSinkSpan, EnduranceCrossedInsideASpanMatchesPerWordDelivery) {
  const std::vector<SeededSpan> spans = SeededSpans(/*seed=*/5);
  SinkSet spanned(/*endurance=*/3);
  SinkSet worded(/*endurance=*/3);
  std::vector<bool> failed_inside_a_span(spanned.nvm.size(), false);
  for (const SeededSpan& span : spans) {
    for (size_t i = 0; i < spanned.nvm.size(); ++i) {
      SCOPED_TRACE(i);
      LiveNvmSink& a = *spanned.nvm[i];
      LiveNvmSink& b = *worded.nvm[i];
      const bool failed_before = a.device().failed();
      FeedSpans(&a, {span});
      FeedWords(&b, {span});
      EXPECT_EQ(a.device().total_writes(), b.device().total_writes());
      EXPECT_EQ(a.device().max_cell_wear(), b.device().max_cell_wear());
      EXPECT_EQ(a.device().worn_out_cells(), b.device().worn_out_cells());
      EXPECT_EQ(a.device().failed(), b.device().failed());
      // Both deliveries share the device's counting, so also pin the
      // counters against the wear table they summarize.
      const std::vector<uint64_t>& wear = a.device().cell_wear();
      uint64_t total = 0;
      uint64_t max_wear = 0;
      uint64_t worn = 0;
      for (const uint64_t w : wear) {
        total += w;
        max_wear = std::max(max_wear, w);
        worn += w >= 3 ? 1 : 0;
      }
      EXPECT_EQ(a.device().total_writes(), total);
      EXPECT_EQ(a.device().max_cell_wear(), max_wear);
      EXPECT_EQ(a.device().worn_out_cells(), worn);
      if (!failed_before && a.device().failed()) {
        failed_inside_a_span[i] = true;
      }
    }
  }
  for (size_t i = 0; i < spanned.nvm.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(failed_inside_a_span[i]);
    EXPECT_GT(spanned.nvm[i]->device().worn_out_cells(), 1u);
    EXPECT_GT(spanned.nvm[i]->device().max_cell_wear(), 3u);
  }
  ExpectSinkSetsIdentical(&spanned, &worded);
}

// The bitmap tracker against an ordered-set oracle, across several
// checkpoint intervals, a sparse high cell, repeated marks and a reset.
TEST(DirtyTrackerBitmap, MatchesOrderedSetOracle) {
  std::mt19937_64 rng(31);
  DirtyTracker dirty;
  std::set<uint64_t> oracle;
  auto expect_same = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(dirty.dirty_words(), oracle.size());
    const std::vector<uint64_t> want(oracle.begin(), oracle.end());
    EXPECT_EQ(dirty.SortedCells(), want);
    for (uint64_t cell = 0; cell < 2048; ++cell) {
      ASSERT_EQ(dirty.Contains(cell), oracle.count(cell) > 0) << cell;
    }
  };

  for (int interval = 0; interval < 5; ++interval) {
    // Half the marks per word, half through a span.
    std::vector<BatchWrite> span;
    for (int i = 0; i < 400; ++i) {
      const uint64_t cell = rng() % 2000;
      oracle.insert(cell);
      if (i % 2 == 0) {
        dirty.OnWrite(/*epoch=*/0, cell);
      } else {
        span.push_back(BatchWrite{cell, 0});
      }
    }
    dirty.OnWriteSpan(/*base_epoch=*/0, span.data(), span.size());
    expect_same("interval");
    dirty.ClearDirty();
    oracle.clear();
    expect_same("cleared");
  }

  // Repeated marks count once.
  for (int i = 0; i < 10; ++i) dirty.OnWrite(1, 42);
  oracle.insert(42);
  expect_same("repeated");

  // A sparse high cell grows the bitmap; the scan stays ascending.
  const uint64_t high = uint64_t{1} << 20;
  dirty.OnWrite(1, high);
  dirty.OnWrite(1, high - 1);
  oracle.insert(high);
  oracle.insert(high - 1);
  expect_same("sparse high");
  EXPECT_TRUE(dirty.Contains(high));
  EXPECT_FALSE(dirty.Contains(high + 1));
  // Far past the bitmap's end is a plain miss, not an out-of-range read.
  EXPECT_FALSE(dirty.Contains(high << 8));
  EXPECT_FALSE(dirty.Contains(~uint64_t{0}));

  dirty.ClearDirty();
  oracle.clear();
  expect_same("reset");
  EXPECT_FALSE(dirty.Contains(high));
  EXPECT_TRUE(dirty.SortedCells().empty());

  // A reset tracker keeps working.
  dirty.OnWrite(2, 5);
  oracle.insert(5);
  expect_same("after reset");
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
