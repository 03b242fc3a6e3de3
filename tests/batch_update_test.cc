// Batch ≡ scalar bitwise equivalence for the `UpdateBatch` kernels.
//
// The contract (common/stream_types.h): `UpdateBatch(items, n)` is an
// ingest-speed optimization only — estimates, accountant totals, sink
// replay (dirty sets, metered epochs, live NVM wear) and checkpoint
// traffic must come out bit-for-bit identical to n scalar `Update` calls
// in the same order. Every sketch overriding `UpdateBatch` is checked
// here, across batch sizes {1, 7, 4096}, with and without an attached
// sink chain (which adds sizes straddling the grid kernels' 512-item
// chunk), and through the sharded engine with a checkpoint trigger
// landing mid-batch.

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/sketch.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "nvm/live_sink.h"
#include "recover/checkpoint_policy.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "state/dirty_tracker.h"
#include "state/write_log.h"
#include "state/write_sink.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

struct Maker {
  const char* name;
  std::function<std::unique_ptr<Sketch>()> make;
};

// Every sketch with a real `UpdateBatch` kernel, in the configurations
// the kernels specialize on — CountMin both plain (closed-form
// accounting + row-major sweep) and conservative (per-item min path, also
// past 64 rows), and StableSketch both exact and Morris (one batched
// projection stage plus memo; Morris mode then runs its Adds in scalar
// (item, row) order so the shared RNG flips the same coins).
// MisraGries and SpaceSaving have no kernel of their own; their rows pin
// the inherited per-item loop, with evictions and slot recycling, under
// the full sink-chain replay below.
std::vector<Maker> BatchSketches() {
  return {
      {"misra_gries", [] { return std::make_unique<MisraGries>(64); }},
      {"count_min",
       [] { return std::make_unique<CountMin>(4, 256, 7, false); }},
      {"count_min_conservative",
       [] { return std::make_unique<CountMin>(4, 256, 7, true); }},
      {"count_min_conservative_d65",
       [] { return std::make_unique<CountMin>(65, 256, 7, true); }},
      {"count_sketch",
       [] { return std::make_unique<CountSketch>(4, 256, 9); }},
      {"space_saving", [] { return std::make_unique<SpaceSaving>(64); }},
      {"stable_exact",
       [] {
         return std::make_unique<StableSketch>(
             0.5, 16, 11, StableSketch::CounterMode::kExact);
       }},
      {"stable_morris",
       [] {
         return std::make_unique<StableSketch>(
             0.5, 16, 11, StableSketch::CounterMode::kMorris, 0.2);
       }},
  };
}

// Universe larger than the counter budgets (64) so MisraGries and
// SpaceSaving evict, exercising their slot recycling under batching.
Stream TestStream() { return ZipfStream(5000, 1.2, 30000, /*seed=*/321); }

void FeedScalar(Sketch& sketch, const Stream& stream) {
  for (const Item item : stream) sketch.Update(item);
}

void FeedBatched(Sketch& sketch, const Stream& stream, size_t batch) {
  for (size_t off = 0; off < stream.size(); off += batch) {
    const size_t n = std::min(batch, stream.size() - off);
    sketch.UpdateBatch(stream.data() + off, n);
  }
}

void ExpectAccountantsEqual(const StateAccountant& scalar,
                            const StateAccountant& batched,
                            const std::string& context) {
  EXPECT_EQ(scalar.updates(), batched.updates()) << context;
  EXPECT_EQ(scalar.state_changes(), batched.state_changes()) << context;
  EXPECT_EQ(scalar.word_writes(), batched.word_writes()) << context;
  EXPECT_EQ(scalar.suppressed_writes(), batched.suppressed_writes())
      << context;
  EXPECT_EQ(scalar.word_reads(), batched.word_reads()) << context;
  EXPECT_EQ(scalar.allocated_words(), batched.allocated_words()) << context;
  EXPECT_EQ(scalar.peak_allocated_words(), batched.peak_allocated_words())
      << context;
}

// Exact (==, not near) comparison of the final structure state. Every
// point query is a deterministic function of that state, which covers the
// counter sketches. StableSketch answers no point query (its
// EstimateFrequency is identically 0), so its rows compare the norm
// estimate and every tracked word — row accumulators or Morris levels —
// directly.
void ExpectStatesEqual(const Sketch& scalar, const Sketch& batched,
                       const std::string& context) {
  for (Item item = 0; item < 5000; ++item) {
    ASSERT_EQ(scalar.EstimateFrequency(item), batched.EstimateFrequency(item))
        << context << " item=" << item;
  }
  const auto* stable = dynamic_cast<const StableSketch*>(&scalar);
  if (stable == nullptr) return;
  const auto& stable_batched = dynamic_cast<const StableSketch&>(batched);
  EXPECT_EQ(stable->EstimateLp(), stable_batched.EstimateLp()) << context;
  EXPECT_EQ(stable->TrackedWords(), stable_batched.TrackedWords()) << context;
}

TEST(BatchUpdateTest, MatchesScalarAcrossBatchSizes) {
  const Stream stream = TestStream();
  // Fed to both sides through the same scalar path after the comparison:
  // any difference left in state the accessors cannot see — the Morris
  // counters' RNG cursor — surfaces as diverging coin flips.
  const Stream continuation = ZipfStream(5000, 1.2, 4000, /*seed=*/654);
  for (const Maker& maker : BatchSketches()) {
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{4096}}) {
      const std::string context =
          std::string(maker.name) + " batch=" + std::to_string(batch);
      const std::unique_ptr<Sketch> scalar = maker.make();
      FeedScalar(*scalar, stream);
      const std::unique_ptr<Sketch> batched = maker.make();
      FeedBatched(*batched, stream, batch);
      ExpectAccountantsEqual(scalar->accountant(), batched->accountant(),
                             context);
      ExpectStatesEqual(*scalar, *batched, context);

      FeedScalar(*scalar, continuation);
      FeedScalar(*batched, continuation);
      ExpectAccountantsEqual(scalar->accountant(), batched->accountant(),
                             context + " continued");
      ExpectStatesEqual(*scalar, *batched, context + " continued");
    }
  }
}

// StableSketch's pre-stage plans one column per distinct memo miss of a
// whole batch and memoizes them after the last Add. A stream over a
// universe far wider than the memo repeats misses inside every batch, and
// the ~Item{0} sentinel (the memo's empty-slot marker, never memoized)
// misses every time; batch sizes straddle the kernel's 256-item chunks
// and the 4096-item drain batch.
TEST(BatchUpdateTest, StableSketchPreStageMatchesScalar) {
  Stream stream = ZipfStream(uint64_t{1} << 20, 1.1, 20000, /*seed=*/987);
  for (size_t i = 0; i < stream.size(); i += 97) stream[i] = ~Item{0};
  const Stream continuation = ZipfStream(5000, 1.2, 2000, /*seed=*/988);
  for (const auto mode : {StableSketch::CounterMode::kExact,
                          StableSketch::CounterMode::kMorris}) {
    for (const size_t batch : {size_t{1}, size_t{255}, size_t{256},
                               size_t{257}, size_t{4096}, size_t{4097}}) {
      const std::string context =
          std::string(mode == StableSketch::CounterMode::kExact ? "exact"
                                                                 : "morris") +
          " batch=" + std::to_string(batch);
      StableSketch scalar(0.5, 16, 11, mode, 0.2);
      FeedScalar(scalar, stream);
      StableSketch batched(0.5, 16, 11, mode, 0.2);
      FeedBatched(batched, stream, batch);
      ExpectAccountantsEqual(scalar.accountant(), batched.accountant(),
                             context);
      ExpectStatesEqual(scalar, batched, context);

      FeedScalar(scalar, continuation);
      FeedScalar(batched, continuation);
      ExpectStatesEqual(scalar, batched, context + " continued");
    }
  }
}

void ExpectLogMatchesAccountant(const WriteLog& log, const StateAccountant& a,
                                const std::string& context) {
  ASSERT_EQ(log.dropped(), 0u) << context;
  EXPECT_EQ(log.records().size(), a.word_writes()) << context;
  std::set<uint64_t> epochs;
  for (const WriteRecord& r : log.records()) {
    if (r.epoch != 0) epochs.insert(r.epoch);
  }
  EXPECT_EQ(epochs.size(), a.state_changes()) << context;
}

// With a sink chain attached the kernels must replay every touched word
// in scalar program order with scalar epoch numbering: the WriteLog's
// full (epoch, cell) sequence, the DirtyTracker set, and the per-cell
// wear of a live NVM device under every leveling scheme all pin that.
// Batch sizes straddle the grid kernels' 512-item chunk and the
// 4096-item drain batch.
void ExpectLogsEqual(const WriteLog& scalar, const WriteLog& batched,
                     const std::string& context) {
  const std::vector<WriteRecord>& a = scalar.records();
  const std::vector<WriteRecord>& b = batched.records();
  ASSERT_EQ(a.size(), b.size()) << context;
  size_t i = 0;
  while (i < a.size() && a[i].epoch == b[i].epoch && a[i].cell == b[i].cell) {
    ++i;
  }
  if (i < a.size()) {
    ADD_FAILURE() << context << " record " << i << ": scalar (" << a[i].epoch
                  << ", " << a[i].cell << ") batched (" << b[i].epoch << ", "
                  << b[i].cell << ")";
  }
}

// One sink chain: a dirty tracker, a log, and a live device per wear
// leveling scheme, all behind one tee.
struct SinkChain {
  DirtyTracker dirty;
  WriteLog log;
  std::vector<std::unique_ptr<LiveNvmSink>> nvm;
  std::vector<std::string> labels;  // leveling name of each nvm entry
  std::unique_ptr<TeeSink> tee;

  void Attach(Sketch& sketch) {
    std::vector<WriteSink*> sinks = {&dirty, &log};
    for (const NvmSpec::Leveling leveling :
         {NvmSpec::Leveling::kDirect, NvmSpec::Leveling::kRotating,
          NvmSpec::Leveling::kHashed}) {
      NvmSpec spec;
      spec.config.num_cells = 1 << 12;
      spec.config.endurance = 1 << 20;
      spec.leveling = leveling;
      spec.rotate_period = 16;
      spec.hash_seed = 11;
      nvm.push_back(std::make_unique<LiveNvmSink>(spec));
      labels.push_back(spec.leveling_name());
      sinks.push_back(nvm.back().get());
    }
    tee = std::make_unique<TeeSink>(std::move(sinks));
    sketch.mutable_accountant()->set_write_sink(tee.get());
  }
};

TEST(BatchUpdateTest, SinkReplayMatchesScalar) {
  // Shorter than TestStream(): every word crosses five sinks here, and the
  // stream still evicts, crosses dozens of chunks and ends mid-batch.
  const Stream stream = ZipfStream(5000, 1.2, 12000, /*seed=*/321);
  for (const Maker& maker : BatchSketches()) {
    const std::unique_ptr<Sketch> scalar = maker.make();
    SinkChain scalar_chain;
    scalar_chain.Attach(*scalar);
    FeedScalar(*scalar, stream);

    for (const size_t batch :
         {size_t{1}, size_t{7}, size_t{511}, size_t{512}, size_t{513},
          size_t{4096}, size_t{4097}}) {
      const std::string context =
          std::string(maker.name) + " batch=" + std::to_string(batch);
      const std::unique_ptr<Sketch> batched = maker.make();
      SinkChain batched_chain;
      batched_chain.Attach(*batched);
      FeedBatched(*batched, stream, batch);

      ExpectAccountantsEqual(scalar->accountant(), batched->accountant(),
                             context);
      ExpectStatesEqual(*scalar, *batched, context);
      EXPECT_EQ(scalar_chain.dirty.SortedCells(),
                batched_chain.dirty.SortedCells())
          << context;
      // Every counted write reaches the sink, and the log's distinct
      // epochs agree with the accountant's own metric — the epoch numbers
      // the batch reconciliation replays are real, not merely distinct —
      // and the batched log is the scalar one, record for record.
      ExpectLogMatchesAccountant(scalar_chain.log, scalar->accountant(),
                                 "scalar " + context);
      ExpectLogMatchesAccountant(batched_chain.log, batched->accountant(),
                                 context);
      ExpectLogsEqual(scalar_chain.log, batched_chain.log, context);
      for (size_t i = 0; i < scalar_chain.nvm.size(); ++i) {
        LiveNvmSink& want = *scalar_chain.nvm[i];
        LiveNvmSink& got = *batched_chain.nvm[i];
        const std::string where = context + " " + scalar_chain.labels[i];
        EXPECT_EQ(want.device().cell_wear(), got.device().cell_wear())
            << where;
        EXPECT_EQ(want.Report().writes_replayed, got.Report().writes_replayed)
            << where;
        EXPECT_EQ(want.Report().max_cell_wear, got.Report().max_cell_wear)
            << where;
        EXPECT_EQ(want.Report().energy_nj, got.Report().energy_nj) << where;
      }
    }
  }
}

// `T` with its batch kernel switched off: the engine's `UpdateBatch`
// drain feeds it item by item through the virtual `Update`, which makes
// it the scalar reference for engine runs.
template <class T>
class ScalarOnly : public T {
 public:
  using T::T;
  void UpdateBatch(const Item* items, size_t n) override {
    for (size_t i = 0; i < n; ++i) this->Update(items[i]);
  }
};

template <class CountMinT, class MisraGriesT>
ShardedRunReport RunStraddlingCheckpoints() {
  ShardedEngineOptions options;
  options.shards = 1;
  options.batch_items = 4096;
  options.checkpoint_policy =
      CheckpointPolicy::EveryItems(1000, CheckpointPolicy::Snapshot::kDelta);
  options.checkpoint_nvm.config.num_cells = 1 << 14;
  ShardedEngine engine(options);
  EXPECT_TRUE(engine
                  .AddSketch(SketchFactory::Of<CountMinT>(
                      "count_min", size_t{4}, size_t{256}, uint64_t{7},
                      false))
                  .ok());
  EXPECT_TRUE(engine
                  .AddSketch(SketchFactory::Of<MisraGriesT>("misra_gries",
                                                            size_t{64}))
                  .ok());
  return engine.Run(ZipfSource(5000, 1.2, 30000, /*seed=*/321));
}

// A checkpoint trigger landing mid-batch (checkpoint_every = 1000 items,
// drain batches of 4096) must produce identical durability traffic for
// the batch kernels and their scalar references: the trigger fires at
// the same batch boundaries either way, and the delta checkpoints
// serialize identical dirty sets.
TEST(BatchUpdateTest, CheckpointStraddlingBatchMatchesScalar) {
  const ShardedRunReport scalar =
      RunStraddlingCheckpoints<ScalarOnly<CountMin>, ScalarOnly<MisraGries>>();
  const ShardedRunReport batched =
      RunStraddlingCheckpoints<CountMin, MisraGries>();
  ASSERT_EQ(scalar.sketches.size(), batched.sketches.size());
  EXPECT_EQ(scalar.items_ingested, batched.items_ingested);
  for (size_t i = 0; i < scalar.sketches.size(); ++i) {
    const ShardedSketchReport& s = scalar.sketches[i];
    const ShardedSketchReport& b = batched.sketches[i];
    ASSERT_EQ(s.name, b.name);
    EXPECT_EQ(s.total.updates, b.total.updates) << s.name;
    EXPECT_EQ(s.total.state_changes, b.total.state_changes) << s.name;
    EXPECT_EQ(s.total.word_writes, b.total.word_writes) << s.name;
    EXPECT_EQ(s.total.suppressed_writes, b.total.suppressed_writes)
        << s.name;
    EXPECT_EQ(s.checkpoints_taken, b.checkpoints_taken) << s.name;
    EXPECT_EQ(s.checkpoint.full_checkpoints, b.checkpoint.full_checkpoints)
        << s.name;
    EXPECT_EQ(s.checkpoint.delta_checkpoints, b.checkpoint.delta_checkpoints)
        << s.name;
    // Delta checkpoints serialize exactly the words whose values changed
    // since the previous snapshot — identical dirty sets, identical
    // checkpoint word traffic, bit for bit.
    EXPECT_EQ(s.checkpoint.word_writes, b.checkpoint.word_writes) << s.name;
  }
}

}  // namespace
}  // namespace fewstate
