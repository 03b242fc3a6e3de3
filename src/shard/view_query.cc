#include "shard/view_query.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "api/sketch.h"

namespace fewstate {

namespace {

// Gathers the candidate identities of `view`, sorted and without
// duplicates: what `append(shard, &out)` takes from each published shard
// when every published shard enumerates identities, else the caller's
// scan universe. Empty = nothing to score.
template <typename Append>
std::vector<Item> GatherCandidates(const SnapshotView& view,
                                   uint64_t scan_universe, Append&& append) {
  std::vector<Item> candidates;
  for (size_t s = 0; s < view.shards(); ++s) {
    const Sketch* sketch = view.shard_sketch(s);
    if (sketch == nullptr) continue;  // unpublished shard: nothing tracked
    const auto* enumerable = dynamic_cast<const CandidateEnumerable*>(sketch);
    if (enumerable == nullptr) {
      candidates.clear();
      candidates.reserve(scan_universe);
      for (uint64_t item = 0; item < scan_universe; ++item) {
        candidates.push_back(item);
      }
      return candidates;
    }
    append(*enumerable, &candidates);
  }
  // Partitioning is by identity, so shard candidate sets are disjoint in
  // a sharded run; dedup anyway, which also fixes the scoring order.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

// Scores candidates against the view, keeping positive estimates at or
// above `threshold`.
std::vector<HeavyHitter> Score(const SnapshotView& view,
                               const std::vector<Item>& candidates,
                               double threshold) {
  std::vector<HeavyHitter> hitters;
  for (const Item item : candidates) {
    const double est = view.EstimateFrequency(item);
    if (est > 0.0 && est >= threshold) {
      hitters.push_back(HeavyHitter{item, est});
    }
  }
  return hitters;
}

// Estimate descending, item ascending: a total order on distinct items,
// so results are deterministic for a fixed view.
bool ByEstimate(const HeavyHitter& a, const HeavyHitter& b) {
  if (a.estimate != b.estimate) return a.estimate > b.estimate;
  return a.item < b.item;
}

}  // namespace

std::vector<HeavyHitter> TopK(const SnapshotView& view, size_t k,
                              uint64_t scan_universe) {
  if (k == 0 || view.shards_published() == 0) return {};
  std::vector<HeavyHitter> hitters =
      Score(view,
            GatherCandidates(view, scan_universe,
                             [k](const CandidateEnumerable& shard,
                                 std::vector<Item>* out) {
                               shard.AppendTopCandidates(k, out);
                             }),
            0.0);
  const size_t keep = std::min(k, hitters.size());
  std::partial_sort(hitters.begin(), hitters.begin() + keep, hitters.end(),
                    ByEstimate);
  hitters.resize(keep);
  return hitters;
}

std::vector<HeavyHitter> HeavyHitters(const SnapshotView& view, double phi,
                                      uint64_t scan_universe) {
  if (view.shards_published() == 0) return {};
  const double threshold =
      phi > 0.0 ? phi * static_cast<double>(view.items_visible()) : 0.0;
  std::vector<HeavyHitter> hitters =
      Score(view,
            GatherCandidates(view, scan_universe,
                             [](const CandidateEnumerable& shard,
                                std::vector<Item>* out) {
                               shard.AppendCandidates(out);
                             }),
            threshold);
  std::sort(hitters.begin(), hitters.end(), ByEstimate);
  return hitters;
}

namespace {

// True iff all views agree, shard by shard, on published-ness and on the
// checkpoint's item count — i.e. they describe the same per-shard stream
// prefixes.
bool ViewsAligned(const std::vector<SnapshotView>& views) {
  if (views.size() < 2) return true;
  const size_t shards = views.front().shards();
  for (const SnapshotView& view : views) {
    if (view.shards() != shards) return false;
  }
  for (size_t s = 0; s < shards; ++s) {
    const ShardSnapshot* first = views.front().shard_snapshot(s);
    for (size_t v = 1; v < views.size(); ++v) {
      const ShardSnapshot* other = views[v].shard_snapshot(s);
      if ((first == nullptr) != (other == nullptr)) return false;
      if (first != nullptr &&
          first->items_at_checkpoint != other->items_at_checkpoint) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

ConsistentViews AcquireAll(const std::vector<ServingHandle>& handles,
                           int max_attempts) {
  ConsistentViews result;
  result.views.resize(handles.size());
  if (max_attempts < 1) max_attempts = 1;
  std::vector<std::vector<std::shared_ptr<const ShardRoster>>> loads(
      handles.size());
  for (result.attempts = 1; result.attempts <= max_attempts;
       ++result.attempts) {
    // One roster load per shard of each engine: handles on the same
    // engine cut their views from the first such handle's load, so their
    // snapshots come from the same boundary.
    bool republished = result.attempts == 1;
    for (size_t i = 0; i < handles.size(); ++i) {
      size_t first = 0;
      while (handles[first].rosters_ != handles[i].rosters_) ++first;
      if (first == i) {
        std::vector<std::shared_ptr<const ShardRoster>> load =
            handles[i].Load();
        republished = republished || load != loads[i];
        loads[i] = std::move(load);
      }
      result.views[i] = handles[i].Cut(loads[first]);
    }
    if (ViewsAligned(result.views)) {
      result.consistent = true;
      return result;
    }
    // No shard published since the last round, so these are the same
    // views again (at quiescence, every later round would be too).
    if (!republished) return result;
    // Under WriteBudget the sketches checkpointed at different boundaries;
    // let the workers run on and re-acquire.
    std::this_thread::yield();
  }
  result.attempts = max_attempts;
  return result;
}

}  // namespace fewstate
