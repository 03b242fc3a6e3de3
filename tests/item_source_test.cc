// The pull-based ingestion API: every ItemSource adapter must be
// indistinguishable, at the engine boundary, from the materialized vector
// it stands for — bitwise on estimates and on StateAccountant totals.
// FileSource round-trips a written trace.

#include "api/item_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/count_min.h"
#include "baselines/space_saving.h"
#include "core/heavy_hitters.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/adversarial.h"
#include "stream/generators.h"
#include "stream/stream_stats.h"

namespace fewstate {
namespace {

constexpr uint64_t kUniverse = 500;
constexpr uint64_t kLength = 30000;
constexpr uint64_t kSeed = 99;

// A single-shard engine over a heterogeneous roster (deterministic given
// fixed seeds): a linear sketch, a counter summary, and the paper's own
// reservoir structure.
void RegisterRoster(ShardedEngine* engine) {
  HeavyHittersOptions hh;
  hh.universe = kUniverse;
  hh.stream_length_hint = kLength;
  hh.p = 2.0;
  hh.eps = 0.3;
  hh.seed = 7;
  for (const SketchFactory& factory :
       {SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{256},
                                    uint64_t{21}),
        SketchFactory::Of<SpaceSaving>("space_saving", size_t{128}),
        SketchFactory("lp_heavy_hitters",
                      [hh] { return std::make_unique<LpHeavyHitters>(hh); })}) {
    ASSERT_TRUE(engine->AddSketch(factory).ok()) << factory.name();
  }
}

// Engine-over-`source` must equal engine-over-`stream` sketch-for-sketch:
// identical accountant deltas and identical point estimates over the whole
// universe.
void ExpectEngineEquivalence(ItemSource& source, const Stream& stream) {
  ShardedEngine from_vector(ShardedEngineOptions{});
  ShardedEngine from_source(ShardedEngineOptions{});
  RegisterRoster(&from_vector);
  RegisterRoster(&from_source);

  const ShardedRunReport want = from_vector.Run(VectorSource(stream));
  const ShardedRunReport got = from_source.Run(source);

  EXPECT_EQ(got.items_ingested, stream.size());
  EXPECT_EQ(want.items_ingested, stream.size());
  ASSERT_EQ(got.sketches.size(), want.sketches.size());
  for (size_t i = 0; i < want.sketches.size(); ++i) {
    const SketchRunReport& w = want.sketches[i].total;
    const SketchRunReport& g = got.sketches[i].total;
    EXPECT_EQ(g.updates, w.updates) << w.name;
    EXPECT_EQ(g.state_changes, w.state_changes) << w.name;
    EXPECT_EQ(g.word_writes, w.word_writes) << w.name;
    EXPECT_EQ(g.suppressed_writes, w.suppressed_writes) << w.name;
    EXPECT_EQ(g.word_reads, w.word_reads) << w.name;
    EXPECT_EQ(g.peak_allocated_words, w.peak_allocated_words) << w.name;
  }
  for (const std::string& name : from_vector.names()) {
    for (Item j = 0; j < kUniverse; ++j) {
      EXPECT_EQ(from_source.Merged(name)->EstimateFrequency(j),
                from_vector.Merged(name)->EstimateFrequency(j))
          << name << " diverged at item " << j;
    }
  }
}

TEST(VectorSource, BatchesAreTheVectorInOrder) {
  const Stream stream = ZipfStream(kUniverse, 1.2, 1000, kSeed);
  VectorSource source(stream);
  ASSERT_TRUE(source.SizeHint().has_value());
  EXPECT_EQ(*source.SizeHint(), stream.size());

  // Odd cap, so batch boundaries never align with the vector's size.
  Item buffer[7];
  Stream drained;
  size_t got;
  while ((got = source.NextBatch(buffer, 7)) > 0) {
    drained.insert(drained.end(), buffer, buffer + got);
    EXPECT_EQ(*source.SizeHint(), stream.size() - drained.size());
  }
  EXPECT_EQ(drained, stream);
  // End-of-stream is sticky.
  EXPECT_EQ(source.NextBatch(buffer, 7), 0u);
}

TEST(VectorSource, OwningVariantAndZeroCap) {
  VectorSource source(Stream{1, 2, 3});
  Item buffer[4];
  EXPECT_EQ(source.NextBatch(buffer, 0), 0u);  // cap 0 consumes nothing
  EXPECT_EQ(*source.SizeHint(), 3u);
  EXPECT_EQ(source.NextBatch(buffer, 4), 3u);
  EXPECT_EQ(buffer[0], 1u);
  EXPECT_EQ(buffer[2], 3u);

  VectorSource empty((Stream()));
  EXPECT_EQ(*empty.SizeHint(), 0u);
  EXPECT_EQ(empty.NextBatch(buffer, 4), 0u);
}

TEST(VectorSource, EngineEquivalence) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);
  VectorSource source(stream);
  ExpectEngineEquivalence(source, stream);
}

TEST(GeneratorSource, ZipfMatchesMaterializedStream) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);
  EXPECT_EQ(Materialize(ZipfSource(kUniverse, 1.2, kLength, kSeed)), stream);

  GeneratorSource source = ZipfSource(kUniverse, 1.2, kLength, kSeed);
  EXPECT_EQ(*source.SizeHint(), kLength);
  ExpectEngineEquivalence(source, stream);
}

// The blocking half of the NextBatch contract: a source that is merely
// *slow* (here a generator stalling mid-stream, standing in for a quiet
// socket) is drained completely by ForEachBatch — only a genuine
// zero-length batch ends the loop, so no delay can masquerade as
// end-of-stream.
TEST(GeneratorSource, ForEachBatchDrainsASlowSourceCompletely) {
  constexpr uint64_t kSlowLength = 500;
  const Stream expected =
      Materialize(ZipfSource(kUniverse, 1.2, kSlowLength, kSeed));
  GeneratorSource zipf = ZipfSource(kUniverse, 1.2, kSlowLength, kSeed);
  uint64_t draws = 0;
  GeneratorSource slow(kSlowLength, [&zipf, &draws] {
    if (++draws % 100 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Item item = 0;
    zipf.NextBatch(&item, 1);
    return item;
  });
  Stream drained;
  Item buffer[64];
  const uint64_t total =
      ForEachBatch(slow, buffer, 64, [&drained](const Item* batch, size_t n) {
        drained.insert(drained.end(), batch, batch + n);
      });
  EXPECT_EQ(total, kSlowLength);
  EXPECT_EQ(drained, expected);
}

TEST(GeneratorSource, UniformMatchesMaterializedStream) {
  const Stream stream = UniformStream(kUniverse, kLength, kSeed);
  GeneratorSource source = UniformSource(kUniverse, kLength, kSeed);
  ExpectEngineEquivalence(source, stream);
}

TEST(GeneratorSource, PermutationSourceIsAPermutation) {
  const uint64_t n = 10000;
  Stream drained = Materialize(PermutationSource(n, kSeed));
  ASSERT_EQ(drained.size(), n);
  std::sort(drained.begin(), drained.end());
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(drained[i], i) << "not a permutation of [0, n)";
  }
  // Keyed: a different seed gives a different order.
  EXPECT_NE(Materialize(PermutationSource(n, kSeed + 1)),
            Materialize(PermutationSource(n, kSeed)));
}

TEST(GeneratorSource, LowerBoundSourceShape) {
  const uint64_t n = 4096;
  const uint64_t block_len = 64;
  LowerBoundPlan plan;
  const Stream s1 = Materialize(LowerBoundSource(n, block_len, kSeed, &plan));
  ASSERT_EQ(s1.size(), n);
  EXPECT_EQ(plan.block_len, block_len);
  ASSERT_LE(plan.block_start + plan.block_len, n);

  // The planted item fills exactly the block; everything else occurs at
  // most once (the Theorem 1.2/1.4 S1 shape).
  const StreamStats stats(s1);
  EXPECT_EQ(stats.Frequency(plan.planted_item), block_len);
  EXPECT_EQ(stats.max_frequency(), block_len);
  EXPECT_EQ(stats.distinct(), n - block_len + 1);
  for (uint64_t t = 0; t < block_len; ++t) {
    EXPECT_EQ(s1[plan.block_start + t], plan.planted_item);
  }
}

TEST(FileSource, RoundTripsAWrittenTrace) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);
  const std::string path = ::testing::TempDir() + "/fewstate_trace.u64";
  ASSERT_TRUE(WriteTrace(path, stream).ok());

  {
    FileSource source(path);
    ASSERT_TRUE(source.ok());
    ASSERT_TRUE(source.SizeHint().has_value());
    EXPECT_EQ(*source.SizeHint(), stream.size());
    EXPECT_EQ(Materialize(source), stream);
  }
  {
    FileSource source(path);
    ExpectEngineEquivalence(source, stream);
  }
  std::remove(path.c_str());

  // An unopenable path is an *error*, not a known-empty stream: ok() is
  // false, status() names the path, and the size is unknown — never "0
  // items left", which a consumer could not tell from a real empty trace.
  FileSource missing(::testing::TempDir() + "/no_such_trace.u64");
  EXPECT_FALSE(missing.ok());
  EXPECT_FALSE(missing.status().ok());
  EXPECT_NE(missing.status().message().find("no_such_trace"),
            std::string::npos);
  Item buffer[4];
  EXPECT_EQ(missing.NextBatch(buffer, 4), 0u);
  EXPECT_FALSE(missing.SizeHint().has_value());
}

TEST(FileSource, TruncatedTraceIsAnError) {
  // A trace whose byte length is not a whole number of records was
  // truncated mid-record (or is not a trace at all). It must surface as
  // an error — recovery replaying it as a clean short tail would rebuild
  // state silently short of the crash point.
  const Stream stream = ZipfStream(kUniverse, 1.2, 2000, kSeed);
  const std::string path = ::testing::TempDir() + "/fewstate_truncated.u64";
  ASSERT_TRUE(WriteTrace(path, stream).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[3] = {0x1, 0x2, 0x3};
    ASSERT_EQ(std::fwrite(garbage, 1, sizeof(garbage), f), sizeof(garbage));
    ASSERT_EQ(std::fclose(f), 0);
  }

  FileSource truncated(path);
  EXPECT_FALSE(truncated.ok());
  EXPECT_FALSE(truncated.status().ok());
  EXPECT_NE(truncated.status().message().find("truncated"),
            std::string::npos);
  // The whole records still read (a forensic consumer may want them), but
  // the error state persists through the drain.
  EXPECT_EQ(Materialize(truncated), stream);
  EXPECT_FALSE(truncated.status().ok());
  std::remove(path.c_str());
}

TEST(UnsizedSource, ForwardsTheInnerStatus) {
  // Hiding the hint must not hide a failure: a failed inner source reads
  // as end-of-stream, so only status() tells it from a clean stream.
  FileSource bad(::testing::TempDir() + "/unsized_missing_trace.u64");
  ASSERT_FALSE(bad.ok());
  UnsizedSource unsized(&bad);
  EXPECT_FALSE(unsized.status().ok());

  const Stream good_items = UniformStream(kUniverse, 500, kSeed);
  VectorSource good(good_items);
  EXPECT_TRUE(UnsizedSource(&good).status().ok());
}

TEST(UnsizedSource, HidesTheHintButNotTheItems) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);
  VectorSource inner(stream);
  UnsizedSource source(&inner);
  EXPECT_EQ(source.SizeHint(), std::nullopt);
  ExpectEngineEquivalence(source, stream);
}

TEST(StreamingAlgorithm, DrainEqualsConsume) {
  // The dedup satellite: Consume(Stream) is a VectorSource shim over
  // Drain, so the two must leave identical sketch state and wear.
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  CountMin consumed(4, 256, 21);
  consumed.Consume(stream);

  CountMin drained(4, 256, 21);
  EXPECT_EQ(drained.Drain(ZipfSource(kUniverse, 1.2, kLength, kSeed)),
            kLength);

  EXPECT_EQ(drained.accountant().state_changes(),
            consumed.accountant().state_changes());
  EXPECT_EQ(drained.accountant().word_writes(),
            consumed.accountant().word_writes());
  for (Item j = 0; j < kUniverse; ++j) {
    EXPECT_EQ(drained.EstimateFrequency(j), consumed.EstimateFrequency(j));
  }
}

TEST(StreamStats, SourceOracleMatchesVectorOracle) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);
  const StreamStats from_vector(stream);
  GeneratorSource source = ZipfSource(kUniverse, 1.2, kLength, kSeed);
  const StreamStats from_source(source);

  EXPECT_EQ(from_source.length(), from_vector.length());
  EXPECT_EQ(from_source.distinct(), from_vector.distinct());
  EXPECT_EQ(from_source.max_frequency(), from_vector.max_frequency());
  EXPECT_DOUBLE_EQ(from_source.Fp(2.0), from_vector.Fp(2.0));
  for (Item j = 0; j < kUniverse; ++j) {
    EXPECT_EQ(from_source.Frequency(j), from_vector.Frequency(j));
  }
}

}  // namespace
}  // namespace fewstate
