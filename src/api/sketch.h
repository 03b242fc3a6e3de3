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
