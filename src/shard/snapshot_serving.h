#ifndef FEWSTATE_SHARD_SNAPSHOT_SERVING_H_
#define FEWSTATE_SHARD_SNAPSHOT_SERVING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/sketch.h"
#include "common/stream_types.h"
#include "obs/metrics.h"

namespace fewstate {

// shard/view_query.h
struct ConsistentViews;

/// \brief One published (shard, sketch) checkpoint: an immutable sketch
/// replica plus the point-in-time metadata a reader needs to reason about
/// it.
///
/// The sketch pointer, the shard's item count at the checkpoint and the
/// checkpoint ordinal are one immutable object, published inside a
/// `ShardRoster`, so a reader can never observe a sketch paired with
/// another checkpoint's metadata.
/// The referenced sketch is immutable from publication onward (the
/// engine's delta machinery never overwrites a published replica; see
/// `ShardedEngineOptions::serve_snapshots`), which is what makes
/// concurrent `EstimateFrequency` calls race-free without any reader-side
/// locking.
struct ShardSnapshot {
  /// Crash-consistent replica of one shard's sketch at the checkpoint.
  std::shared_ptr<const Sketch> sketch;
  /// Items this shard had ingested when the checkpoint was taken — the
  /// view's per-shard freshness marker (compare with the roster's `items`
  /// for staleness).
  uint64_t items_at_checkpoint = 0;
  /// 1-based checkpoint ordinal on this (shard, sketch) pair.
  uint64_t sequence = 0;
};

/// \brief Everything one shard serves, as of one batch boundary: the
/// items the shard had ingested there and every registered sketch's
/// latest checkpoint.
///
/// The shard worker builds a fresh roster at the end of each boundary,
/// after its checkpoints, and publishes it with one `std::atomic_store`
/// into the engine's slot for the shard; readers take it with one
/// `std::atomic_load`. A roster is immutable once published, so progress
/// and every sketch's snapshot in it describe the same boundary. A view
/// keeps only its own sketch's snapshots, whose `shared_ptr` counts keep
/// them alive for exactly as long as some view holds them.
struct ShardRoster {
  /// Items the shard had ingested at the boundary; never below any
  /// snapshot's `items_at_checkpoint`.
  uint64_t items = 0;
  /// Per registered sketch, in registration order: its latest checkpoint,
  /// or null until its first.
  std::vector<std::shared_ptr<const ShardSnapshot>> snapshots;
};

/// \brief A consistent point-in-time view over the S published shard
/// snapshots of one sketch — the object a query thread actually holds.
///
/// Acquired from `ServingHandle::Acquire()`. Each shard's entry is
/// crash-consistent (it *is* that shard's last durability checkpoint) and
/// immutable, so the view answers queries at a fixed point in the past
/// while ingest races ahead. Cross-shard, the entries need not be from
/// the same instant — partitioning is by item identity, so every
/// occurrence of an item lives on exactly one shard, and summing per-shard
/// estimates remains a valid estimate of the whole stream seen so far
/// (each shard contributes its own prefix).
///
/// The view owns `shared_ptr` references: it stays valid (and its answers
/// stay bit-stable) for as long as the caller holds it, however many
/// checkpoints the engine publishes meanwhile.
class SnapshotView {
 public:
  SnapshotView() = default;

  /// \brief Sum of the published shards' point estimates for `item`. A
  /// shard that has not yet published contributes nothing (its items are
  /// not yet visible at all) — check `complete()` when that matters.
  double EstimateFrequency(Item item) const;

  /// \brief Shard count of the serving engine (0 for a default-constructed
  /// or invalid-handle view).
  size_t shards() const { return shards_.size(); }

  /// \brief Shards that have published at least one checkpoint.
  size_t shards_published() const;

  /// \brief True iff every shard has published (the view covers a prefix
  /// of every shard's substream).
  bool complete() const { return shards_published() == shards(); }

  /// \brief Staleness in items: sum over shards of (items the shard had
  /// ingested at the boundary the view was cut from − items at the
  /// shard's published checkpoint). This is exactly the data that exists
  /// in the engine but is not yet visible to this view — bounded by the
  /// `CheckpointPolicy` cadence (plus one partition batch per shard).
  uint64_t items_behind() const;

  /// \brief Sum over shards of the published checkpoints' item counts —
  /// the number of stream items the view actually answers for.
  uint64_t items_visible() const;

  /// \brief Shard `s`'s published snapshot sketch (for queries beyond
  /// point estimates, e.g. per-shard heavy-hitter scans), or nullptr if
  /// that shard has not published.
  const Sketch* shard_sketch(size_t s) const;

  /// \brief Shard `s`'s snapshot metadata, or nullptr.
  const ShardSnapshot* shard_snapshot(size_t s) const;

  /// \brief Items shard `s` had ingested at the boundary the view was cut
  /// from; at least `shard_snapshot(s)->items_at_checkpoint`.
  uint64_t shard_progress(size_t s) const { return progress_[s]; }

 private:
  friend class ServingHandle;

  std::vector<std::shared_ptr<const ShardSnapshot>> shards_;
  // Per shard: the cut roster's item count (0 without a roster).
  std::vector<uint64_t> progress_;
};

/// \brief Lock-free reader entry point for one sketch served by a
/// `ShardedEngine` — cheap to copy, safe to use from any thread, valid
/// for the engine's lifetime.
///
/// Obtain one with `ShardedEngine::Serving(name)` *before* starting the
/// run whose checkpoints it should observe, hand it to query threads, and
/// call `Acquire()` whenever a fresh consistent view is wanted. Acquiring
/// never blocks ingest: it is S `shared_ptr` atomic loads, one roster per
/// shard, with no engine-level lock anywhere on the path.
///
/// When the engine runs with `ShardedEngineOptions::metrics`, the handle
/// also feeds serving telemetry: every view it cuts (by `Acquire` or
/// `AcquireAll`) bumps `fewstate_view_acquires_total{sketch}`, and every
/// *complete* view's `items_behind()` lands in the
/// `fewstate_view_staleness_items{sketch}` histogram (incomplete views
/// have no meaningful staleness — some shard's items are not visible at
/// all). Both are relaxed-atomic, so reader threads stay lock-free.
class ServingHandle {
 public:
  /// \brief An invalid handle; `ok()` is false and `Acquire()` returns an
  /// empty view.
  ServingHandle() = default;

  /// \brief True iff the handle is bound to a registered sketch.
  bool ok() const { return rosters_ != nullptr; }

  /// \brief Loads every shard's current roster and cuts this sketch's
  /// `SnapshotView` from them. Thread-safe; never blocks workers.
  SnapshotView Acquire() const;

 private:
  friend class ShardedEngine;
  friend ConsistentViews AcquireAll(const std::vector<ServingHandle>& handles,
                                    int max_attempts);

  ServingHandle(const std::vector<std::shared_ptr<const ShardRoster>>* rosters,
                size_t sketch, Histogram* staleness = nullptr,
                Counter* acquires = nullptr)
      : rosters_(rosters),
        sketch_(sketch),
        staleness_(staleness),
        acquires_(acquires) {}

  // One atomic load per shard.
  std::vector<std::shared_ptr<const ShardRoster>> Load() const;
  // This sketch's view of `rosters` (a `Load()` result), with telemetry.
  SnapshotView Cut(
      const std::vector<std::shared_ptr<const ShardRoster>>& rosters) const;

  // The engine's roster slots, one per shard; null for an invalid handle.
  const std::vector<std::shared_ptr<const ShardRoster>>* rosters_ = nullptr;
  size_t sketch_ = 0;  // registration index
  // Optional telemetry (engine-owned registry); null when metrics are off.
  Histogram* staleness_ = nullptr;
  Counter* acquires_ = nullptr;
};

}  // namespace fewstate

#endif  // FEWSTATE_SHARD_SNAPSHOT_SERVING_H_
