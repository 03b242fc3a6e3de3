// The crash-recovery subsystem: exact state restores (RestorableSketch),
// delta checkpoints that price only what changed, wear-aware checkpoint
// policies, and kill-and-recover replay — a replica rebuilt from its last
// delta checkpoint plus the trace tail must be bitwise-identical to the
// uninterrupted run, estimates and tail accounting included, for CountMin,
// MisraGries and the write-frugal Morris-mode stable sketch.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/item_source.h"
#include "baselines/count_min.h"
#include "baselines/misra_gries.h"
#include "baselines/stable_sketch.h"
#include "core/sample_and_hold.h"
#include "nvm/live_sink.h"
#include "recover/checkpoint_policy.h"
#include "recover/recovery.h"
#include "recover/restorable.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "state/dirty_tracker.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kFlows = 3000;

NvmSpec SmallSpec() {
  NvmSpec spec;
  spec.config.num_cells = 1 << 12;
  spec.config.endurance = 1 << 20;
  return spec;
}

Stream TestStream(uint64_t items, uint64_t seed = 913) {
  return ZipfStream(kFlows, 1.2, items, seed);
}

SketchFactory CountMinFactory() {
  return SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{512},
                                     uint64_t{7}, false);
}

SketchFactory MisraGriesFactory() {
  return SketchFactory::Of<MisraGries>("misra_gries", size_t{256});
}

SketchFactory StableMorrisFactory() {
  // Aggressive Morris growth (a = 0.2): counters settle after the early
  // phase, so checkpoint intervals see genuinely few distinct word
  // changes — the write-frugal regime the delta machinery exists for.
  return SketchFactory::Of<StableSketch>("stable_morris", 0.5, size_t{16},
                                         uint64_t{31},
                                         StableSketch::CounterMode::kMorris,
                                         0.2);
}

std::vector<SketchFactory> Roster() {
  return {CountMinFactory(), MisraGriesFactory(), StableMorrisFactory()};
}

// Bitwise estimate comparison over the whole universe (every table cell a
// query can reach), plus the norm statistics for the norm-only sketch.
void ExpectEstimatesIdentical(const Sketch& a, const Sketch& b) {
  for (Item item = 0; item < kFlows; ++item) {
    ASSERT_EQ(a.EstimateFrequency(item), b.EstimateFrequency(item))
        << "item " << item;
  }
  const auto* sa = dynamic_cast<const StableSketch*>(&a);
  const auto* sb = dynamic_cast<const StableSketch*>(&b);
  ASSERT_EQ(sa == nullptr, sb == nullptr);
  if (sa != nullptr) {
    EXPECT_EQ(sa->MedianAbsRowValue(), sb->MedianAbsRowValue());
    EXPECT_EQ(sa->EstimateLp(), sb->EstimateLp());
  }
}

void ExpectDeltasIdentical(const SketchRunReport& a, const SketchRunReport& b) {
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.state_changes, b.state_changes);
  EXPECT_EQ(a.word_writes, b.word_writes);
  EXPECT_EQ(a.suppressed_writes, b.suppressed_writes);
  EXPECT_EQ(a.word_reads, b.word_reads);
}

SketchRunReport DeltaOver(Sketch* sketch, const Stream& items) {
  const AccountantSnapshot before = AccountantSnapshot::Of(sketch->accountant());
  sketch->Consume(items);
  return before.DeltaTo(AccountantSnapshot::Of(sketch->accountant()));
}

// --- RestorableSketch contract ---------------------------------------------

TEST(Restorable, RestoreCopiesStateAndSecondRestorePricesZero) {
  const Stream stream = TestStream(20000);
  for (const SketchFactory& factory : Roster()) {
    std::unique_ptr<Sketch> live = factory.Make();
    live->Consume(stream);

    std::unique_ptr<Sketch> snapshot = factory.Make();
    ASSERT_TRUE(IsRestorable(*snapshot));
    ASSERT_TRUE(AsRestorable(snapshot.get())->RestoreFrom(*live).ok());
    ExpectEstimatesIdentical(*snapshot, *live);
    EXPECT_GT(snapshot->accountant().word_writes(), 0u);

    // Nothing changed since: a second restore is pure suppression — the
    // delta-checkpoint pricing property, at the contract level.
    const AccountantSnapshot before =
        AccountantSnapshot::Of(snapshot->accountant());
    ASSERT_TRUE(AsRestorable(snapshot.get())->RestoreFrom(*live).ok());
    const SketchRunReport delta =
        before.DeltaTo(AccountantSnapshot::Of(snapshot->accountant()));
    EXPECT_EQ(delta.word_writes, 0u) << factory.name();
    EXPECT_EQ(delta.state_changes, 0u) << factory.name();
  }
}

TEST(Restorable, RestoreRejectsIncompatibleConfigurations) {
  CountMin a(4, 512, /*seed=*/7, false);
  CountMin b(4, 512, /*seed=*/8, false);  // different seed
  EXPECT_FALSE(b.RestoreFrom(a).ok());
  MisraGries c(64), d(128);
  EXPECT_FALSE(d.RestoreFrom(c).ok());
  EXPECT_FALSE(AsRestorable(&a)->RestoreFrom(a).ok());  // self
}

TEST(Restorable, DirtyRestoreOfUnchangedReplicaPricesZeroCheckpointWrites) {
  for (const SketchFactory& factory : Roster()) {
    std::unique_ptr<Sketch> live = factory.Make();
    DirtyTracker dirty;
    live->mutable_accountant()->set_write_sink(&dirty);
    live->Consume(TestStream(20000));

    // Base checkpoint, priced on a live checkpoint device.
    LiveNvmSink ckpt_device(SmallSpec());
    std::unique_ptr<Sketch> snapshot = factory.Make();
    snapshot->mutable_accountant()->set_write_sink(&ckpt_device);
    ASSERT_TRUE(AsRestorable(snapshot.get())->RestoreFrom(*live).ok());
    const uint64_t writes_after_base = ckpt_device.Report().writes_replayed;
    EXPECT_GT(writes_after_base, 0u);
    dirty.ClearDirty();

    // No updates since the checkpoint: the delta prices *zero* device
    // writes — durability is free when nothing changed.
    ASSERT_TRUE(
        AsRestorable(snapshot.get())->RestoreDirty(*live, dirty).ok());
    EXPECT_EQ(ckpt_device.Report().writes_replayed, writes_after_base)
        << factory.name();
  }
}

TEST(Restorable, DirtyRestoreEqualsFullRestoreAfterMoreUpdates) {
  const Stream prefix = TestStream(20000, /*seed=*/913);
  const Stream more = TestStream(5000, /*seed=*/914);
  for (const SketchFactory& factory : Roster()) {
    std::unique_ptr<Sketch> live = factory.Make();
    DirtyTracker dirty;
    live->mutable_accountant()->set_write_sink(&dirty);
    live->Consume(prefix);

    std::unique_ptr<Sketch> snapshot = factory.Make();
    ASSERT_TRUE(AsRestorable(snapshot.get())->RestoreFrom(*live).ok());
    dirty.ClearDirty();

    live->Consume(more);
    ASSERT_TRUE(
        AsRestorable(snapshot.get())->RestoreDirty(*live, dirty).ok());
    ExpectEstimatesIdentical(*snapshot, *live);
  }
}

// --- CheckpointPolicy scheduling ------------------------------------------

ShardedRunReport RunWithPolicy(const CheckpointPolicy& policy, size_t shards,
                               uint64_t items) {
  ShardedEngineOptions options;
  options.shards = shards;
  options.batch_items = 1024;
  options.checkpoint_policy = policy;
  options.checkpoint_nvm = SmallSpec();
  ShardedEngine engine(options);
  for (const SketchFactory& factory : Roster()) {
    EXPECT_TRUE(engine.AddSketch(factory).ok());
  }
  return engine.Run(ZipfSource(kFlows, 1.2, items, /*seed=*/4242));
}

TEST(CheckpointPolicy, EveryPolicyIsDeterministicForFixedSeedAndShards) {
  const std::vector<CheckpointPolicy> policies = {
      CheckpointPolicy::EveryItems(10000, CheckpointPolicy::Snapshot::kFull),
      CheckpointPolicy::EveryItems(10000, CheckpointPolicy::Snapshot::kDelta),
      CheckpointPolicy::WriteBudget(500),
  };
  for (const CheckpointPolicy& policy : policies) {
    const ShardedRunReport first = RunWithPolicy(policy, 2, 60000);
    const ShardedRunReport second = RunWithPolicy(policy, 2, 60000);
    ASSERT_EQ(first.sketches.size(), second.sketches.size());
    for (size_t i = 0; i < first.sketches.size(); ++i) {
      const ShardedSketchReport& a = first.sketches[i];
      const ShardedSketchReport& b = second.sketches[i];
      EXPECT_GT(a.checkpoints_taken, 0u)
          << policy.trigger_name() << " " << a.name;
      EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
      EXPECT_EQ(a.checkpoint.full_checkpoints, b.checkpoint.full_checkpoints);
      EXPECT_EQ(a.checkpoint.delta_checkpoints,
                b.checkpoint.delta_checkpoints);
      EXPECT_EQ(a.last_checkpoint_items, b.last_checkpoint_items);
      ExpectDeltasIdentical(a.checkpoint, b.checkpoint);
      ASSERT_TRUE(a.checkpoint.has_nvm);
      EXPECT_EQ(a.checkpoint.nvm.writes_replayed,
                b.checkpoint.nvm.writes_replayed);
      EXPECT_EQ(a.checkpoint.nvm.max_cell_wear, b.checkpoint.nvm.max_cell_wear);
      EXPECT_EQ(a.checkpoint.nvm.energy_nj, b.checkpoint.nvm.energy_nj);
    }
  }
}

TEST(CheckpointPolicy, DeltaCheckpointsPriceFewerWritesThanFull) {
  // Long enough that the Morris counters leave the early growth phase;
  // delta size then tracks actual state change, not state size.
  CheckpointPolicy full_policy =
      CheckpointPolicy::EveryItems(20000, CheckpointPolicy::Snapshot::kFull);
  CheckpointPolicy delta_policy =
      CheckpointPolicy::EveryItems(20000, CheckpointPolicy::Snapshot::kDelta);
  delta_policy.full_snapshot_dirty_fraction = 1.01;  // never force full
  const ShardedRunReport full = RunWithPolicy(full_policy, 1, 400000);
  const ShardedRunReport delta = RunWithPolicy(delta_policy, 1, 400000);
  for (const SketchFactory& factory : Roster()) {
    const ShardedSketchReport* f = full.Find(factory.name());
    const ShardedSketchReport* d = delta.Find(factory.name());
    ASSERT_NE(f, nullptr);
    ASSERT_NE(d, nullptr);
    // Same schedule, same stream: equal checkpoint counts...
    EXPECT_EQ(f->checkpoints_taken, d->checkpoints_taken) << factory.name();
    EXPECT_EQ(f->checkpoint.delta_checkpoints, 0u);
    EXPECT_GT(d->checkpoint.delta_checkpoints, 0u) << factory.name();
    EXPECT_EQ(d->checkpoint.full_checkpoints, 1u);  // only the base snapshot
    // ...but the deltas only pay for words that changed since the last
    // checkpoint.
    EXPECT_LT(d->checkpoint.word_writes, f->checkpoint.word_writes)
        << factory.name();
    EXPECT_LT(d->checkpoint.nvm.writes_replayed,
              f->checkpoint.nvm.writes_replayed)
        << factory.name();
  }
  // Write-frugality transfers to durability: the Morris sketch keeps a
  // solid fraction (>= 20%) of its full-snapshot cost, and its relative
  // saving dwarfs the always-write baseline's (which re-dirties nearly
  // its whole table every interval, so delta ≈ full — the paper's point,
  // seen from the durability side).
  const ShardedSketchReport* morris_full = full.Find("stable_morris");
  const ShardedSketchReport* morris_delta = delta.Find("stable_morris");
  EXPECT_LE(morris_delta->checkpoint.word_writes * 100,
            morris_full->checkpoint.word_writes * 80);
  const double morris_ratio =
      static_cast<double>(morris_delta->checkpoint.word_writes) /
      static_cast<double>(morris_full->checkpoint.word_writes);
  const double count_min_ratio =
      static_cast<double>(delta.Find("count_min")->checkpoint.word_writes) /
      static_cast<double>(full.Find("count_min")->checkpoint.word_writes);
  EXPECT_LT(morris_ratio, count_min_ratio);
}

TEST(CheckpointPolicy, WriteBudgetAdaptsFrequencyToWriteFrugality) {
  // One wear budget for everyone: the always-write baseline burns through
  // it constantly; the write-frugal sketch barely dents it — the paper's
  // few-state-changes guarantee, transferred to durability frequency.
  const ShardedRunReport report =
      RunWithPolicy(CheckpointPolicy::WriteBudget(20000), 1, 60000);
  const ShardedSketchReport* count_min = report.Find("count_min");
  const ShardedSketchReport* misra_gries = report.Find("misra_gries");
  const ShardedSketchReport* morris = report.Find("stable_morris");
  ASSERT_NE(count_min, nullptr);
  ASSERT_NE(misra_gries, nullptr);
  ASSERT_NE(morris, nullptr);
  EXPECT_GT(count_min->checkpoints_taken,
            2 * misra_gries->checkpoints_taken);
  EXPECT_GT(misra_gries->checkpoints_taken, morris->checkpoints_taken);
}

// --- Kill-and-recover ------------------------------------------------------

// The acceptance scenario: run a 2-shard engine with delta checkpointing
// over a captured trace; pretend shard 1 crashed after the run's last
// batch; rebuild it from its last delta checkpoint plus the trace tail and
// require the rebuilt replica to be *bitwise* the uninterrupted one —
// same estimates everywhere, same tail accounting word for word, and
// identical behaviour on a continuation stream (which pins down hidden
// state like RNG cursors).
TEST(KillAndRecover, RebuiltReplicaIsBitwiseIdenticalToUninterruptedRun) {
  const Stream stream = TestStream(60000);
  const std::string path = ::testing::TempDir() + "/fewstate_recovery.u64";
  ASSERT_TRUE(WriteTrace(path, stream).ok());

  ShardedEngineOptions options;
  options.shards = 2;
  options.batch_items = 1024;
  // 7000 deliberately does not divide the crashed shard's item count, so
  // a non-trivial tail survives the last checkpoint.
  options.checkpoint_policy =
      CheckpointPolicy::EveryItems(7000, CheckpointPolicy::Snapshot::kDelta);
  // Never force a full rewrite: even the always-write baseline stays on
  // the delta path, so recovery provably works from delta checkpoints for
  // every sketch under test.
  options.checkpoint_policy.full_snapshot_dirty_fraction = 1.01;
  options.checkpoint_nvm = SmallSpec();
  ShardedEngine engine(options);
  for (const SketchFactory& factory : Roster()) {
    ASSERT_TRUE(engine.AddSketch(factory).ok());
  }
  FileSource trace(path);
  ASSERT_TRUE(trace.ok());
  const ShardedRunReport report = engine.Run(trace);

  // Shard 1's substream, in arrival order (shard 0's replica absorbed the
  // others during the merge; shard 1's is still exactly its ingest state).
  const size_t crashed_shard = 1;
  Stream shard_items;
  for (Item item : stream) {
    if (engine.ShardOf(item) == crashed_shard) shard_items.push_back(item);
  }

  const Stream continuation = TestStream(5000, /*seed=*/555);
  for (const SketchFactory& factory : Roster()) {
    SCOPED_TRACE(factory.name());
    const ShardedSketchReport* row = report.Find(factory.name());
    ASSERT_NE(row, nullptr);
    ASSERT_GT(row->checkpoints_taken, 0u);
    ASSERT_GT(row->checkpoint.delta_checkpoints, 0u);  // deltas really ran

    const uint64_t cut = row->last_checkpoint_items[crashed_shard];
    ASSERT_GT(cut, 0u);
    ASSERT_LT(cut, shard_items.size());
    const Stream tail(shard_items.begin() + static_cast<long>(cut),
                      shard_items.end());

    const Sketch* snapshot = engine.Snapshot(crashed_shard, factory.name());
    ASSERT_NE(snapshot, nullptr);

    RecoveryOptions recovery_options;
    recovery_options.price_replica_nvm = true;
    recovery_options.replica_nvm = SmallSpec();
    recovery_options.checkpoint_sink =
        engine.CheckpointSink(crashed_shard, factory.name());
    ASSERT_NE(recovery_options.checkpoint_sink, nullptr);
    RecoveredReplica recovered;
    ASSERT_TRUE(RecoverReplica(factory, *snapshot, VectorSource(tail),
                               recovery_options, &recovered)
                    .ok());
    EXPECT_EQ(recovered.report.tail_items, tail.size());
    EXPECT_EQ(recovered.report.snapshot_words,
              snapshot->accountant().allocated_words());
    ASSERT_TRUE(recovered.report.total.has_nvm);
    EXPECT_EQ(recovered.report.total.nvm.writes_replayed,
              recovered.report.total.word_writes);

    // Bitwise: the rebuilt replica answers exactly like the replica that
    // never crashed.
    Sketch* uninterrupted = engine.Replica(crashed_shard, factory.name());
    ASSERT_NE(uninterrupted, nullptr);
    ExpectEstimatesIdentical(*recovered.sketch, *uninterrupted);

    // The tail replay performed the *same state changes* the
    // uninterrupted replica did over the same suffix: replay a reference
    // replica through prefix then tail and compare phase deltas.
    std::unique_ptr<Sketch> reference = factory.Make();
    reference->Consume(Stream(shard_items.begin(),
                              shard_items.begin() + static_cast<long>(cut)));
    const SketchRunReport reference_tail = DeltaOver(reference.get(), tail);
    ExpectDeltasIdentical(recovered.report.replay, reference_tail);

    // And the future is identical too — hidden state (e.g. the Morris
    // RNG cursor) was recovered, not just the visible counters.
    const SketchRunReport continue_recovered =
        DeltaOver(recovered.sketch.get(), continuation);
    const SketchRunReport continue_uninterrupted =
        DeltaOver(uninterrupted, continuation);
    ExpectDeltasIdentical(continue_recovered, continue_uninterrupted);
    ExpectEstimatesIdentical(*recovered.sketch, *uninterrupted);
  }
  std::remove(path.c_str());
}

TEST(KillAndRecover, RecoveryChargesSnapshotReadsToTheCheckpointDevice) {
  const Stream stream = TestStream(30000);
  std::unique_ptr<Sketch> live = CountMinFactory().Make();
  live->Consume(stream);

  LiveNvmSink ckpt_device(SmallSpec());
  std::unique_ptr<Sketch> snapshot = CountMinFactory().Make();
  snapshot->mutable_accountant()->set_write_sink(&ckpt_device);
  ASSERT_TRUE(AsRestorable(snapshot.get())->RestoreFrom(*live).ok());
  const uint64_t reads_before = ckpt_device.Report().reads_replayed;

  RecoveryOptions options;
  options.checkpoint_sink = &ckpt_device;
  RecoveredReplica recovered;
  ASSERT_TRUE(RecoverReplica(CountMinFactory(), *snapshot,
                             VectorSource(Stream{}), options, &recovered)
                  .ok());
  EXPECT_EQ(ckpt_device.Report().reads_replayed,
            reads_before + snapshot->accountant().allocated_words());
  EXPECT_EQ(recovered.report.tail_items, 0u);
  ExpectEstimatesIdentical(*recovered.sketch, *live);
}

TEST(KillAndRecover, RecoveryFailsCleanlyWhereItCannotBeExact) {
  // Mismatched snapshot configuration.
  CountMin other(4, 1024, /*seed=*/9, false);
  RecoveredReplica recovered;
  EXPECT_FALSE(RecoverReplica(CountMinFactory(), other,
                              VectorSource(Stream{}), RecoveryOptions(),
                              &recovered)
                   .ok());
  // Neither restorable nor mergeable: nothing can load a snapshot.
  SampleAndHoldOptions sah;
  sah.universe = kFlows;
  sah.stream_length_hint = 1000;
  sah.seed = 3;
  SampleAndHold reservoir(sah);
  EXPECT_FALSE(RecoverReplica(SketchFactory::Of<SampleAndHold>("sah", sah),
                              reservoir, VectorSource(Stream{}),
                              RecoveryOptions(), &recovered)
                   .ok());
}

}  // namespace
}  // namespace fewstate
