#ifndef FEWSTATE_SHARD_VIEW_QUERY_H_
#define FEWSTATE_SHARD_VIEW_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stream_types.h"
#include "shard/snapshot_serving.h"

namespace fewstate {

/// \brief The k items with the largest view estimates, sorted by estimate
/// descending (ties broken by item id ascending, so results are
/// deterministic for a fixed view).
///
/// The operator query the live service actually asks — "who are the
/// elephants right now?" — answered across all published shards of one
/// consistent `SnapshotView`. Candidates come from the shards themselves
/// when the snapshots are identity-tracking (`CandidateEnumerable`:
/// SpaceSaving, Misra–Gries): each shard contributes its own top-k list
/// (`AppendTopCandidates`, ties at rank k included), so SpaceSaving's
/// Stream-Summary answers by walking its highest count buckets and the
/// query costs O(S·k), not the summary size. For hash-bucket sketches
/// (CountMin, CountSketch) pass `scan_universe` > 0 to score items
/// `[0, scan_universe)` instead; with no enumerable shard and no universe
/// the query returns empty rather than guess.
///
/// Precondition for the enumerable path: no item is tracked by two
/// shards of the view. It holds for every view a `ServingHandle` cuts,
/// because the engine partitions by item identity. Then an item tracked
/// on shard h scores its own count plus every other shard's untracked
/// estimate (SpaceSaving: that shard's `min_count()`; Misra–Gries: 0),
/// which is monotone in its own count, so the union of the per-shard
/// top-k lists holds the global top-k, ties included, and the answer
/// equals scoring every tracked item and sorting them all.
///
/// Each candidate is scored with `view.EstimateFrequency` — the sum of
/// per-shard estimates — so results are exactly self-consistent with
/// point queries on the same view.
std::vector<HeavyHitter> TopK(const SnapshotView& view, size_t k,
                              uint64_t scan_universe = 0);

/// \brief All items whose view estimate is at least `phi ·
/// items_visible()` (the classic phi-heavy-hitters cut of [MAA05]/[CM05],
/// taken against the items the view can actually answer for), sorted like
/// `TopK`. Every tracked item of every shard is a candidate; the
/// `scan_universe` fallback follows `TopK`. `phi <= 0` degenerates to
/// "every candidate with a positive estimate".
std::vector<HeavyHitter> HeavyHitters(const SnapshotView& view, double phi,
                                      uint64_t scan_universe = 0);

/// \brief Result of `AcquireAll`: one view per requested handle, plus
/// whether they were cut at the same per-shard checkpoints.
struct ConsistentViews {
  /// One view per input handle, in input order. Always usable — when
  /// `consistent` is false they are still each individually valid views,
  /// just not mutually aligned.
  std::vector<SnapshotView> views;
  /// True iff for every shard, all views agree on the shard's
  /// `items_at_checkpoint` (and on whether the shard has published at
  /// all) — the views describe the same per-shard stream prefixes.
  bool consistent = false;
  /// Roster-load rounds spent (>= 1).
  int attempts = 0;
};

/// \brief Acquires one view per handle such that all views are cut at the
/// same per-shard ingest points, so cross-sketch answers (e.g. a
/// SpaceSaving candidate list scored against a CountMin view) describe
/// the same stream prefix.
///
/// A round loads each shard's `ShardRoster` once and cuts every handle's
/// view from that load (handles on different engines get one load per
/// engine). Under `CheckpointPolicy::EveryItems` all of a shard's sketches
/// checkpoint at the same boundaries, so the first round is consistent by
/// construction. Under the per-sketch `WriteBudget` trigger sketches
/// checkpoint at genuinely different points; the call re-loads for up to
/// `max_attempts` rounds and otherwise returns the last round's views with
/// `consistent == false`. It stops early, also with `consistent == false`,
/// when a round loads the very rosters the round before it loaded: no
/// shard published in between, so the views could not have changed.
ConsistentViews AcquireAll(const std::vector<ServingHandle>& handles,
                           int max_attempts = 64);

}  // namespace fewstate

#endif  // FEWSTATE_SHARD_VIEW_QUERY_H_
