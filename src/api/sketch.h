#ifndef FEWSTATE_API_SKETCH_H_
#define FEWSTATE_API_SKETCH_H_

#include <string>
#include <vector>

#include "common/stream_types.h"
#include "state/state_accountant.h"

namespace fewstate {

/// \brief Uniform interface implemented by every sketch in the library.
///
/// Extends `StreamingAlgorithm` (one `Update` per stream element, plus the
/// inherited `Consume` convenience) with the two queries shared by all of
/// the paper's structures and the Table 1 baselines:
///
///  * `EstimateFrequency(item)` — a point-query estimate of f_item. The
///    direction of the error is algorithm-specific (sample-and-hold
///    structures underestimate, CountMin/SpaceSaving overestimate);
///    norm-only sketches that cannot answer point queries return 0, the
///    trivially valid underestimate.
///  * `accountant()` — the `StateAccountant` tracking the paper's
///    state-change metric (§1.5) plus the finer word-write/read counts.
///
/// The shared interface is what lets `ShardedEngine` drive heterogeneous
/// sketches over one stream pass and report their wear metrics uniformly
/// (the Table 1 / §5 experiment shape).
class Sketch : public StreamingAlgorithm {
 public:
  ~Sketch() override = default;

  /// \brief Point-query estimate of the frequency of `item`.
  virtual double EstimateFrequency(Item item) const = 0;

  /// \brief State-change instrumentation (read-only).
  virtual const StateAccountant& accountant() const = 0;

  /// \brief State-change instrumentation (mutable, e.g. to attach a
  /// `WriteSink` — a recording `WriteLog` or a `LiveNvmSink`).
  virtual StateAccountant* mutable_accountant() = 0;

  /// \brief Optional pure pre-stage of the next `UpdateBatch(items, n)`:
  /// plans it and returns how many independent parts (at most `parts`,
  /// which is at least 1) it split into. Serial. The default returns 0:
  /// no pre-stage.
  ///
  /// Each planned part must then run exactly once through `PreparePart`,
  /// in any order and on any thread, before that `UpdateBatch`; `items`
  /// must stay unchanged until it. The parts are pure: each writes only
  /// its own disjoint output and touches no state the accountant sees, so
  /// splitting them across threads cannot change any result. An
  /// `UpdateBatch` that finds no complete plan for its own `(items, n)` —
  /// none made, a stale one, or a part missing — plans and runs the
  /// pre-stage itself, so every caller takes the same path.
  virtual size_t PrepareBatch(const Item* /*items*/, size_t /*n*/,
                              size_t /*parts*/) {
    return 0;
  }

  /// \brief Runs part `k` of the plan `PrepareBatch` made (see there).
  virtual void PreparePart(size_t /*k*/) {}
};

/// \brief Optional capability of sketches that *track identities*: counter
/// summaries (SpaceSaving, Misra–Gries) know which items they hold, so a
/// top-k query can enumerate candidates instead of scanning a universe.
/// Hash-bucket sketches (CountMin, CountSketch) store no identities and do
/// not implement this — the `TopK`/`HeavyHitters` view queries fall back
/// to a caller-supplied scan universe for them.
class CandidateEnumerable {
 public:
  virtual ~CandidateEnumerable() = default;

  /// \brief Appends every tracked item identity to `out` (duplicates
  /// across calls/shards are fine; callers dedup). Order is unspecified.
  virtual void AppendCandidates(std::vector<Item>* out) const = 0;
};

}  // namespace fewstate

#endif  // FEWSTATE_API_SKETCH_H_
