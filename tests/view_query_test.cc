// The view query layer: TopK/HeavyHitters over SnapshotViews must be
// exactly self-consistent with the view's own point estimates (same
// candidates, same scores, deterministic order), candidate enumeration
// must cover the true elephants, and AcquireAll must return views cut at
// one per-shard ordinal set — in its first round, during the run and at
// quiescence, because every view of a round comes from one roster load.

#include "shard/view_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "baselines/count_min.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "recover/checkpoint_policy.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kUniverse = 300;
constexpr uint64_t kLength = 60000;
constexpr uint64_t kSeed = 17;
constexpr size_t kShards = 2;
constexpr uint64_t kEvery = 2000;

NvmSpec CkptSpec() {
  NvmSpec spec;
  spec.config.num_cells = 1 << 12;
  spec.config.endurance = 1 << 20;
  return spec;
}

ShardedEngineOptions ServingOptions(
    size_t shards = kShards,
    CheckpointPolicy policy = CheckpointPolicy::EveryItems(
        kEvery, CheckpointPolicy::Snapshot::kFull)) {
  ShardedEngineOptions options;
  options.shards = shards;
  options.batch_items = 512;
  options.checkpoint_policy = policy;
  options.checkpoint_nvm = CkptSpec();
  options.serve_snapshots = true;
  return options;
}

SketchFactory SpaceSavingFactory() {
  return SketchFactory::Of<SpaceSaving>("space_saving", size_t{48});
}

SketchFactory CountMinFactory() {
  return SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{128},
                                     uint64_t{21}, false);
}

// Brute force with the query layer's own comparator: score every item in
// the universe against the view, keep positives above threshold, sort by
// (estimate desc, item asc).
std::vector<HeavyHitter> BruteForce(const SnapshotView& view,
                                    double threshold) {
  std::vector<HeavyHitter> all;
  for (Item item = 0; item < kUniverse; ++item) {
    const double est = view.EstimateFrequency(item);
    if (est > 0.0 && est >= threshold) all.push_back(HeavyHitter{item, est});
  }
  std::sort(all.begin(), all.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.item < b.item;
            });
  return all;
}

TEST(ViewQuery, AppendCandidatesEnumeratesTrackedItems) {
  SpaceSaving sketch(16);
  for (Item item = 0; item < 10; ++item) {
    for (int rep = 0; rep <= static_cast<int>(item); ++rep) {
      sketch.Update(item);
    }
  }
  std::vector<Item> candidates;
  sketch.AppendCandidates(&candidates);
  ASSERT_EQ(candidates.size(), 10u);
  std::sort(candidates.begin(), candidates.end());
  for (Item item = 0; item < 10; ++item) {
    EXPECT_EQ(candidates[static_cast<size_t>(item)], item);
  }
}

// With a scan universe, TopK is definitionally brute force over the
// universe — the result must match it exactly, order and scores.
TEST(ViewQuery, ScanUniverseTopKMatchesBruteForce) {
  ShardedEngine engine(ServingOptions());
  ASSERT_TRUE(engine.AddSketch(CountMinFactory()).ok());
  const ServingHandle handle = engine.Serving("count_min");
  engine.Run(VectorSource(ZipfStream(kUniverse, 1.3, kLength, kSeed)));

  const SnapshotView view = handle.Acquire();
  ASSERT_TRUE(view.complete());
  const std::vector<HeavyHitter> brute = BruteForce(view, 0.0);
  for (const size_t k : {size_t{1}, size_t{10}, size_t{1000}}) {
    std::vector<HeavyHitter> expected = brute;
    if (expected.size() > k) expected.resize(k);
    EXPECT_EQ(TopK(view, k, kUniverse), expected) << "k=" << k;
  }
  // No candidates at all — hash buckets track no identities and the
  // caller gave no universe: empty, not a guess.
  EXPECT_TRUE(TopK(view, 10).empty());
}

// Candidate-enumerating shards: every returned hitter scores exactly as
// the view scores it, the order is deterministic, and the true heavy
// hitters of the stream are present — identity partitioning means an item
// globally heavy is heavy on its one home shard, so the union of per-shard
// candidate sets cannot miss it.
TEST(ViewQuery, SpaceSavingTopKIsSelfConsistentAndFindsElephants) {
  const Stream stream = ZipfStream(kUniverse, 1.3, kLength, kSeed);
  ShardedEngine engine(ServingOptions());
  ASSERT_TRUE(engine.AddSketch(SpaceSavingFactory()).ok());
  const ServingHandle handle = engine.Serving("space_saving");
  engine.Run(VectorSource(stream));

  const SnapshotView view = handle.Acquire();
  ASSERT_TRUE(view.complete());
  const std::vector<HeavyHitter> top = TopK(view, 10);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].estimate, view.EstimateFrequency(top[i].item));
    if (i > 0) {
      EXPECT_TRUE(top[i - 1].estimate > top[i].estimate ||
                  (top[i - 1].estimate == top[i].estimate &&
                   top[i - 1].item < top[i].item));
    }
  }

  // True top-3 of the materialized stream must be among the reported 10:
  // the view covers all but at most one checkpoint interval + batch per
  // shard, and SpaceSaving overestimates, so a dominant item cannot fall
  // out of the top 10.
  std::map<Item, uint64_t> truth;
  for (const Item item : stream) ++truth[item];
  std::vector<std::pair<uint64_t, Item>> ranked;
  for (const auto& entry : truth) ranked.push_back({entry.second, entry.first});
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < 3; ++i) {
    const Item elephant = ranked[i].second;
    EXPECT_TRUE(std::any_of(top.begin(), top.end(),
                            [elephant](const HeavyHitter& h) {
                              return h.item == elephant;
                            }))
        << "true elephant " << elephant << " missing from TopK";
  }
}

// The unbounded form TopK replaces: every tracked item of every published
// shard, scored with the view, positives kept, fully sorted, cut to k.
std::vector<HeavyHitter> GatherScoreSort(const SnapshotView& view, size_t k) {
  std::vector<Item> candidates;
  for (size_t s = 0; s < view.shards(); ++s) {
    const auto* shard =
        dynamic_cast<const CandidateEnumerable*>(view.shard_sketch(s));
    if (shard != nullptr) shard->AppendCandidates(&candidates);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<HeavyHitter> all;
  for (const Item item : candidates) {
    const double est = view.EstimateFrequency(item);
    if (est > 0.0) all.push_back(HeavyHitter{item, est});
  }
  std::sort(all.begin(), all.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.item < b.item;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

// TopK takes only each shard's top-k candidates (SpaceSaving walks its
// highest count buckets), yet must answer exactly as the unbounded
// gather-score-sort does: same items, estimates and order. Checked on
// every view a reader cuts during ingest and at quiescence, across shard
// counts, both identity-tracking summaries, full and delta snapshots, and
// k below, at and above the summary capacity. The near-uniform stream
// keeps many counts tied at rank k.
TEST(ViewQuery, BoundedTopKMatchesGatherScoreSort) {
  const SketchFactory factories[] = {
      SpaceSavingFactory(),
      SketchFactory::Of<MisraGries>("misra_gries", size_t{48})};
  const size_t ks[] = {1, 10, 64, 1000};
  bool tie_at_k = false;
  for (const SketchFactory& factory : factories) {
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      for (const auto snapshot : {CheckpointPolicy::Snapshot::kFull,
                                  CheckpointPolicy::Snapshot::kDelta}) {
        for (const bool uniform : {false, true}) {
          SCOPED_TRACE(factory.name() + " shards=" + std::to_string(shards) +
                       (snapshot == CheckpointPolicy::Snapshot::kFull
                            ? " full"
                            : " delta") +
                       (uniform ? " uniform" : " zipf"));
          ShardedEngine engine(ServingOptions(
              shards, CheckpointPolicy::EveryItems(kEvery, snapshot)));
          ASSERT_TRUE(engine.AddSketch(factory).ok());
          const ServingHandle handle = engine.Serving(factory.name());
          const auto check = [&](const SnapshotView& view) {
            for (const size_t k : ks) {
              const std::vector<HeavyHitter> next =
                  GatherScoreSort(view, k + 1);
              if (next.size() > k && next[k - 1].estimate == next[k].estimate) {
                tie_at_k = true;
              }
              ASSERT_EQ(TopK(view, k), GatherScoreSort(view, k)) << "k=" << k;
            }
          };
          std::atomic<bool> done{false};
          std::thread reader([&] {
            while (!done.load(std::memory_order_acquire)) {
              check(handle.Acquire());
              if (::testing::Test::HasFatalFailure()) return;
            }
          });
          engine.Run(VectorSource(
              uniform ? UniformStream(kUniverse, kLength, kSeed)
                      : ZipfStream(kUniverse, 1.3, kLength, kSeed)));
          done.store(true, std::memory_order_release);
          reader.join();
          const SnapshotView view = handle.Acquire();
          ASSERT_TRUE(view.complete());
          check(view);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_TRUE(tie_at_k) << "no view had a tie at rank k";
}

// HeavyHitters applies the phi cut against items_visible() exactly.
TEST(ViewQuery, HeavyHittersAppliesPhiThresholdExactly) {
  ShardedEngine engine(ServingOptions());
  ASSERT_TRUE(engine.AddSketch(CountMinFactory()).ok());
  const ServingHandle handle = engine.Serving("count_min");
  engine.Run(VectorSource(ZipfStream(kUniverse, 1.3, kLength, kSeed)));

  const SnapshotView view = handle.Acquire();
  for (const double phi : {0.001, 0.01, 0.05}) {
    const double threshold = phi * static_cast<double>(view.items_visible());
    EXPECT_EQ(HeavyHitters(view, phi, kUniverse), BruteForce(view, threshold))
        << "phi=" << phi;
  }
  // phi <= 0 degenerates to every positive-estimate candidate.
  EXPECT_EQ(HeavyHitters(view, 0.0, kUniverse), BruteForce(view, 0.0));
}

// Queries on a view with nothing published are empty, never UB.
TEST(ViewQuery, UnpublishedViewsAnswerEmpty) {
  ShardedEngine engine(ServingOptions());
  ASSERT_TRUE(engine.AddSketch(SpaceSavingFactory()).ok());
  const SnapshotView view = engine.Serving("space_saving").Acquire();
  EXPECT_EQ(view.shards_published(), 0u);
  EXPECT_TRUE(TopK(view, 10).empty());
  EXPECT_TRUE(HeavyHitters(view, 0.01).empty());
  const ConsistentViews empty = AcquireAll({});
  EXPECT_TRUE(empty.consistent);
  EXPECT_TRUE(empty.views.empty());
}

// At quiescence AcquireAll must succeed on the first round and agree with
// the run's recorded last-checkpoint markers — under EveryItems all
// sketches on a shard checkpoint at the same item counts, so the cuts
// align across sketches too.
TEST(ViewQuery, AcquireAllAlignsSketchesAtQuiescence) {
  ShardedEngine engine(ServingOptions());
  ASSERT_TRUE(engine.AddSketch(SpaceSavingFactory()).ok());
  ASSERT_TRUE(engine.AddSketch(CountMinFactory()).ok());
  const std::vector<ServingHandle> handles = {engine.Serving("space_saving"),
                                              engine.Serving("count_min")};
  const ShardedRunReport report =
      engine.Run(VectorSource(ZipfStream(kUniverse, 1.3, kLength, kSeed)));

  const ConsistentViews acquired = AcquireAll(handles);
  ASSERT_TRUE(acquired.consistent);
  EXPECT_EQ(acquired.attempts, 1);
  ASSERT_EQ(acquired.views.size(), 2u);
  const ShardedSketchReport* sk = report.Find("space_saving");
  ASSERT_NE(sk, nullptr);
  for (size_t s = 0; s < kShards; ++s) {
    const ShardSnapshot* a = acquired.views[0].shard_snapshot(s);
    const ShardSnapshot* b = acquired.views[1].shard_snapshot(s);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->items_at_checkpoint, b->items_at_checkpoint);
    EXPECT_EQ(a->items_at_checkpoint, sk->last_checkpoint_items[s]);
  }
}

// Mid-run, AcquireAll races checkpoint publication. Every view of a round
// is cut from the same per-shard rosters, so under EveryItems every round
// is consistent at its first attempt, all views agree on each shard's
// progress and cut, and the aligned pair makes a cross-sketch answer
// coherent (SpaceSaving candidates scored against the CountMin view
// describe the same stream prefix).
TEST(ViewQuery, AcquireAllIsConsistentInOneRoundDuringIngest) {
  for (const size_t shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedEngine engine(ServingOptions(shards));
    ASSERT_TRUE(engine.AddSketch(SpaceSavingFactory()).ok());
    ASSERT_TRUE(engine.AddSketch(CountMinFactory()).ok());
    const std::vector<ServingHandle> handles = {
        engine.Serving("space_saving"), engine.Serving("count_min")};

    const auto check_round = [&](const ConsistentViews& acquired) {
      ASSERT_TRUE(acquired.consistent);
      ASSERT_EQ(acquired.attempts, 1);
      ASSERT_EQ(acquired.views.size(), 2u);
      for (size_t s = 0; s < shards; ++s) {
        const ShardSnapshot* a = acquired.views[0].shard_snapshot(s);
        const ShardSnapshot* b = acquired.views[1].shard_snapshot(s);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr) {
          ASSERT_EQ(a->items_at_checkpoint, b->items_at_checkpoint);
        }
        ASSERT_EQ(acquired.views[0].shard_progress(s),
                  acquired.views[1].shard_progress(s));
      }
      if (acquired.views[0].shards_published() == 0) return;
      // Cross-sketch query on the aligned pair: candidates from the
      // identity-tracking view, scored against the hash-bucket view.
      for (const HeavyHitter& h : TopK(acquired.views[0], 5)) {
        ASSERT_GE(acquired.views[1].EstimateFrequency(h.item), 0.0);
      }
    };

    std::atomic<bool> done{false};
    std::thread reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        check_round(AcquireAll(handles));
        if (::testing::Test::HasFatalFailure()) return;
      }
    });
    engine.Run(VectorSource(ZipfStream(kUniverse, 1.3, kLength, kSeed)));
    done.store(true, std::memory_order_release);
    reader.join();
    check_round(AcquireAll(handles));
  }
}

// Under WriteBudget each sketch checkpoints when its own write budget runs
// out, so a shard's sketches can hold snapshots from different boundaries.
// AcquireAll still returns usable views, cut from one roster load per
// shard, and says honestly that they are not aligned.
TEST(ViewQuery, WriteBudgetCutsAreUsableButFlaggedInconsistent) {
  ShardedEngine engine(ServingOptions(
      kShards, CheckpointPolicy::WriteBudget(
                   3000, CheckpointPolicy::Snapshot::kFull)));
  ASSERT_TRUE(engine.AddSketch(SpaceSavingFactory()).ok());
  ASSERT_TRUE(engine.AddSketch(CountMinFactory()).ok());
  const std::vector<ServingHandle> handles = {engine.Serving("space_saving"),
                                              engine.Serving("count_min")};
  const ShardedRunReport report =
      engine.Run(VectorSource(ZipfStream(kUniverse, 1.3, kLength, kSeed)));
  const ShardedSketchReport* space_saving = report.Find("space_saving");
  const ShardedSketchReport* count_min = report.Find("count_min");
  ASSERT_NE(space_saving, nullptr);
  ASSERT_NE(count_min, nullptr);
  // The premise: the final cuts differ on some shard.
  ASSERT_NE(space_saving->last_checkpoint_items,
            count_min->last_checkpoint_items);

  // At quiescence nothing republishes, so the second round sees the
  // first round's rosters and stops instead of spinning through the cap.
  const ConsistentViews acquired = AcquireAll(handles, 1 << 14);
  EXPECT_FALSE(acquired.consistent);
  EXPECT_EQ(acquired.attempts, 2);
  ASSERT_EQ(acquired.views.size(), 2u);
  const ShardedSketchReport* reports[] = {space_saving, count_min};
  for (size_t v = 0; v < 2; ++v) {
    const SnapshotView& view = acquired.views[v];
    ASSERT_TRUE(view.complete());
    for (size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(view.shard_snapshot(s)->items_at_checkpoint,
                reports[v]->last_checkpoint_items[s]);
      EXPECT_EQ(view.shard_progress(s), report.shard_items[s]);
    }
    EXPECT_EQ(view.items_behind(),
              report.items_ingested - view.items_visible());
    EXPECT_FALSE(TopK(view, 5, kUniverse).empty());
  }
}

}  // namespace
}  // namespace fewstate
