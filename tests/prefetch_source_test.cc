// The PrefetchSource decorator: a background thread pulling the inner
// source into a bounded ring must change *when* items are fetched, never
// *which* items arrive or in what order — prefetched ≡ direct, bitwise —
// and must propagate the inner source's status so a lossy or broken feed
// stays visible through the decorator. Run under TSan in CI: the
// producer/consumer handoff is the point.

#include "net/prefetch_source.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "api/item_source.h"
#include "baselines/count_min.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kUniverse = 250;
constexpr uint64_t kLength = 50000;
constexpr uint64_t kSeed = 31;

// The bitwise pin, across mismatched batch geometries: tiny prefetch
// batches against the default drain size, and the reverse.
TEST(PrefetchSource, PrefetchedEqualsDirectBitwise) {
  const Stream direct = Materialize(ZipfSource(kUniverse, 1.2, kLength, kSeed));
  for (const size_t batch_items : {size_t{7}, size_t{1024}, size_t{4096}}) {
    GeneratorSource inner = ZipfSource(kUniverse, 1.2, kLength, kSeed);
    PrefetchSource prefetched(&inner, batch_items, /*max_batches=*/3);
    EXPECT_EQ(Materialize(prefetched), direct) << "batch " << batch_items;
    EXPECT_TRUE(prefetched.status().ok());
  }
}

// A slow inner source (sleeps between pulls) must still drain completely
// through the decorator — the consumer blocks on the ring, it never
// mistakes "producer behind" for end-of-stream.
TEST(PrefetchSource, SlowInnerSourceDrainsCompletely) {
  constexpr uint64_t kSlowLength = 600;
  const Stream direct =
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
  PrefetchSource prefetched(&slow, /*batch_items=*/64, /*max_batches=*/2);
  EXPECT_EQ(Materialize(prefetched), direct);
}

// Behind a sharded engine: per-shard routing and estimates must be
// unchanged by the decorator (the engine pulls whatever batch sizes the
// ring hands out; per-shard item sequences are what matter).
TEST(PrefetchSource, EngineRunMatchesDirectIngest) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);
  const SketchFactory factory = SketchFactory::Of<CountMin>(
      "count_min", size_t{4}, size_t{128}, uint64_t{21}, false);
  ShardedEngineOptions options;
  options.shards = 2;
  options.batch_items = 512;

  ShardedEngine direct(options);
  ASSERT_TRUE(direct.AddSketch(factory).ok());
  const ShardedRunReport direct_report = direct.Run(VectorSource(stream));

  ShardedEngine via_prefetch(options);
  ASSERT_TRUE(via_prefetch.AddSketch(factory).ok());
  VectorSource inner(stream);
  PrefetchSource prefetched(&inner, /*batch_items=*/333, /*max_batches=*/4);
  const ShardedRunReport prefetch_report = via_prefetch.Run(prefetched);

  ASSERT_EQ(prefetch_report.items_ingested, direct_report.items_ingested);
  EXPECT_EQ(prefetch_report.shard_items, direct_report.shard_items);
  const Sketch* a = direct.Merged("count_min");
  const Sketch* b = via_prefetch.Merged("count_min");
  for (Item item = 0; item < kUniverse; ++item) {
    ASSERT_EQ(a->EstimateFrequency(item), b->EstimateFrequency(item))
        << "diverged at item " << item;
  }
  EXPECT_EQ(a->accountant().word_writes(), b->accountant().word_writes());
}

// The decorator must not launder errors: a failing inner source (an
// unopenable FileSource) surfaces through the decorator's status() after
// the drain, exactly like draining the inner source directly.
TEST(PrefetchSource, PropagatesInnerStatus) {
  FileSource missing("/nonexistent/fewstate-prefetch-test.trace");
  PrefetchSource prefetched(&missing);
  Item buffer[8];
  EXPECT_EQ(prefetched.NextBatch(buffer, 8), 0u);
  EXPECT_FALSE(prefetched.status().ok());
  EXPECT_EQ(prefetched.status().ToString(), missing.status().ToString());
}

// SizeHint is deliberately withheld: the background thread may have
// pulled items the consumer has not seen, so any forwarded count would
// double-promise them.
TEST(PrefetchSource, DoesNotForwardSizeHint) {
  GeneratorSource inner = ZipfSource(kUniverse, 1.2, 1000, kSeed);
  ASSERT_TRUE(inner.SizeHint().has_value());
  PrefetchSource prefetched(&inner);
  EXPECT_FALSE(prefetched.SizeHint().has_value());
  Materialize(prefetched);  // drain so the destructor joins an idle thread
}

// Destruction with a part-drained ring must not hang or leak the
// producer thread (the stop flag wakes it out of its space wait).
TEST(PrefetchSource, AbandonedDrainShutsDownCleanly) {
  GeneratorSource inner = ZipfSource(kUniverse, 1.2, kLength, kSeed);
  PrefetchSource prefetched(&inner, /*batch_items=*/128, /*max_batches=*/2);
  Item buffer[64];
  ASSERT_GT(prefetched.NextBatch(buffer, 64), 0u);
  // Destructor runs with the ring full and the producer mid-stream.
}

}  // namespace
}  // namespace fewstate
