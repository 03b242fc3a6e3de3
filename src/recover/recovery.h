#ifndef FEWSTATE_RECOVER_RECOVERY_H_
#define FEWSTATE_RECOVER_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/item_source.h"
#include "api/sketch.h"
#include "api/replica_pipeline.h"
#include "common/status.h"
#include "nvm/live_sink.h"
#include "shard/sketch_factory.h"
#include "state/write_sink.h"

namespace fewstate {

// obs/trace.h — opt-in structured tracing.
class TraceRecorder;

/// \brief How `RecoverReplica` prices the rebuild.
struct RecoveryOptions {
  /// When true, the rebuilt replica gets a fresh live NVM device minted
  /// from `replica_nvm` (a replacement shard coming up on new hardware):
  /// both the snapshot-restore writes and the tail-replay writes land on
  /// it as they happen. The spec is validated up front.
  bool price_replica_nvm = false;
  NvmSpec replica_nvm;
  /// Sink of the checkpoint device the snapshot is read from (e.g.
  /// `ShardedEngine::CheckpointSink`). Recovery charges one bulk read per
  /// snapshot word there — on asymmetric-cost memory, reads cost energy
  /// and latency but never wear, which is exactly how `OnBulkReads` is
  /// priced. Null skips the charge (unpriced recovery).
  WriteSink* checkpoint_sink = nullptr;
  /// Opt-in tracing (borrowed; null = off): the rebuild emits a
  /// `recovery` span wrapping `recovery_restore` (snapshot load) and
  /// `recovery_replay` (tail replay) child spans, so recovery cost shows
  /// up on the same timeline as the run that preceded the crash.
  TraceRecorder* trace = nullptr;
};

/// \brief Cost breakdown of one recovery: what it took to rebuild a
/// replica from its last checkpoint plus the trace tail.
struct RecoveryReport {
  /// Words read off the checkpoint device to load the snapshot (the
  /// replica's full allocated state — a recoverer reads the whole
  /// region).
  uint64_t snapshot_words = 0;
  /// Trace-suffix items replayed after the restore (the work a crash
  /// loses; bounded by the checkpoint policy's trigger).
  uint64_t tail_items = 0;
  /// Accountant deltas of the snapshot-restore phase (writes =
  /// snapshot's nonzero words, by the restore contract).
  SketchRunReport restore;
  /// Accountant deltas of the tail-replay phase — identical, word for
  /// word, to what the uninterrupted replica did over the same suffix
  /// when the sketch is `RestorableSketch` (the kill-and-recover tests
  /// pin this down).
  SketchRunReport replay;
  /// restore + replay, with the rebuilt replica's device state when
  /// priced.
  SketchRunReport total;
  double wall_seconds = 0.0;

  /// \brief Human-readable two-phase summary.
  std::string ToString() const;

  /// \brief Three `ShardedRunReport::CsvHeader()` rows — the sketch column is
  /// suffixed `[recover:restore]`, `[recover:replay]`, `[recover:total]`
  /// — so recovery costs scrape alongside run rows.
  std::string ToCsv(const std::string& label, const std::string& sketch) const;
};

/// \brief Outcome of `RecoverReplica`: the rebuilt sketch, its live
/// device (when priced), and the cost breakdown.
struct RecoveredReplica {
  std::unique_ptr<Sketch> sketch;
  std::unique_ptr<LiveNvmSink> nvm;  // non-null iff price_replica_nvm
  RecoveryReport report;
};

/// \brief Rebuilds a shard replica from its last checkpoint plus the
/// suffix of its trace — the crash-recovery path closing the durability
/// loop.
///
/// `factory` must mint replicas configured identically to the crashed one
/// (the same spec registered with the engine); `snapshot` is its last
/// checkpoint (`ShardedEngine::Snapshot`); `trace_tail` is the shard's
/// item sequence *after* that checkpoint
/// (`ShardedSketchReport::last_checkpoint_items` marks the cut, and
/// `ShardedEngine::ShardOf` re-partitions a captured whole-stream trace —
/// e.g. a `FileSource` over the original capture, filtered to the shard
/// and offset).
///
/// The rebuild is priced like any other stream work: snapshot reads as
/// bulk reads on the checkpoint device, restore and replay writes through
/// the rebuilt replica's accountant onto its live device when
/// `price_replica_nvm` is set.
///
/// For `RestorableSketch` replicas the result is *bitwise* the replica an
/// uninterrupted run would have produced — state words and pseudo-random
/// cursors are copied exactly, so the tail replays write for write.
/// Mergeable-only replicas fall back to `MergeFrom` into the fresh
/// replica, which is exact for the linear sketches but only
/// distribution-preserving where merges consume randomness; sketches that
/// are neither restorable nor mergeable cannot be recovered
/// (`FailedPrecondition`).
Status RecoverReplica(const SketchFactory& factory, const Sketch& snapshot,
                      ItemSource& trace_tail, const RecoveryOptions& options,
                      RecoveredReplica* out);

/// \brief Rvalue-tail convenience, e.g. a freshly-built `VectorSource`.
inline Status RecoverReplica(const SketchFactory& factory,
                             const Sketch& snapshot, ItemSource&& trace_tail,
                             const RecoveryOptions& options,
                             RecoveredReplica* out) {
  return RecoverReplica(factory, snapshot, trace_tail, options, out);
}

}  // namespace fewstate

#endif  // FEWSTATE_RECOVER_RECOVERY_H_
