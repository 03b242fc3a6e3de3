#ifndef FEWSTATE_RECOVER_CHECKPOINT_POLICY_H_
#define FEWSTATE_RECOVER_CHECKPOINT_POLICY_H_

#include <cstdint>

namespace fewstate {

/// \brief When to take a durability checkpoint, and what to write when one
/// is taken — the scheduling half of the recovery subsystem.
///
/// The paper's premise is that state writes are the scarce resource; a
/// blind every-N-items checkpoint schedule ignores that entirely (a
/// write-frugal sketch and an always-write baseline checkpoint equally
/// often). The policy makes durability traffic adapt to the sketch's
/// actual write behaviour:
///
///  * `kEveryItems` — the classic schedule, retained as one policy: a
///    checkpoint every N items per shard, however much or little changed.
///  * `kWriteBudget` — wear-aware: a checkpoint each time the replica has
///    accumulated another `write_budget` word writes on its update
///    device. A sketch with Õ(n^{1-1/p}) state changes crosses the budget
///    Õ(n^{1-1/p}/budget) times instead of m/N — the few-state-changes
///    guarantee transfers directly to durability frequency.
///
/// Both triggers are evaluated at shard batch boundaries on the
/// shard's own worker thread, so checkpoint counts and wear are
/// deterministic for a fixed source/seed/shard count.
///
/// Orthogonally, `snapshot` selects what a checkpoint writes:
///
///  * `kFull` — every checkpoint serializes the whole live state into a
///    freshly-minted snapshot replica (wear proportional to state size —
///    the cost model the paper argues against, kept as the baseline).
///  * `kDelta` — checkpoints overwrite one persistent snapshot replica,
///    serializing only the words the `DirtyTracker` saw change, so wear is
///    proportional to *what changed*. The first checkpoint is always full,
///    and a full snapshot is forced whenever the dirty fraction
///    (dirty words / allocated words) reaches
///    `full_snapshot_dirty_fraction` — at that point a delta would cost as
///    much as a rewrite anyway. Requires `RestorableSketch`; sketches that
///    only merge fall back to full snapshots.
struct CheckpointPolicy {
  enum class Trigger {
    kNone,        ///< checkpointing disabled
    kEveryItems,  ///< every `every_items` items per shard
    kWriteBudget, ///< every `write_budget` replica word writes
  };

  enum class Snapshot {
    kFull,   ///< rewrite the whole state every checkpoint
    kDelta,  ///< overwrite only words changed since the last checkpoint
  };

  Trigger trigger = Trigger::kNone;
  Snapshot snapshot = Snapshot::kFull;
  /// kEveryItems: items per shard between checkpoints.
  uint64_t every_items = 0;
  /// kWriteBudget: replica word writes between checkpoints.
  uint64_t write_budget = 0;
  /// kDelta only: force a full snapshot when dirty/allocated reaches this
  /// fraction (1.0 = only the first checkpoint is full).
  double full_snapshot_dirty_fraction = 0.5;

  /// \brief True iff a trigger is configured with a nonzero parameter. A
  /// zero one is a degenerate schedule (kEveryItems would spin forever,
  /// kWriteBudget would fire every batch) and counts as disabled.
  bool enabled() const {
    switch (trigger) {
      case Trigger::kEveryItems: return every_items > 0;
      case Trigger::kWriteBudget: return write_budget > 0;
      case Trigger::kNone: break;
    }
    return false;
  }

  /// \brief True iff the policy needs a `DirtyTracker` on each replica
  /// (delta serialization).
  bool needs_dirty_tracking() const {
    return enabled() && snapshot == Snapshot::kDelta;
  }

  /// \brief No checkpointing (the default).
  static CheckpointPolicy None() { return CheckpointPolicy(); }

  /// \brief Checkpoint every `n` items per shard (`n` == 0 disables).
  static CheckpointPolicy EveryItems(uint64_t n,
                                     Snapshot mode = Snapshot::kFull) {
    CheckpointPolicy p;
    p.trigger = n == 0 ? Trigger::kNone : Trigger::kEveryItems;
    p.snapshot = mode;
    p.every_items = n;
    return p;
  }

  /// \brief Checkpoint every `writes` replica word writes (wear budget;
  /// 0 disables). Deltas by default — a wear-aware schedule exists to
  /// exploit write frugality, and full snapshots would squander it.
  static CheckpointPolicy WriteBudget(uint64_t writes,
                                      Snapshot mode = Snapshot::kDelta) {
    CheckpointPolicy p;
    p.trigger = writes == 0 ? Trigger::kNone : Trigger::kWriteBudget;
    p.snapshot = mode;
    p.write_budget = writes;
    return p;
  }

  /// \brief Trigger label for reports/benches ("none" / "every_items" /
  /// "write_budget").
  const char* trigger_name() const {
    switch (trigger) {
      case Trigger::kEveryItems: return "every_items";
      case Trigger::kWriteBudget: return "write_budget";
      case Trigger::kNone: break;
    }
    return "none";
  }

  /// \brief Snapshot-mode label for reports/benches ("full" / "delta").
  const char* snapshot_name() const {
    return snapshot == Snapshot::kDelta ? "delta" : "full";
  }
};

}  // namespace fewstate

#endif  // FEWSTATE_RECOVER_CHECKPOINT_POLICY_H_
