#include "shard/view_query.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_set>

#include "api/sketch.h"

namespace fewstate {

namespace {

// Gathers the candidate identity set of `view`: the union of tracked
// items across published shards when every published shard enumerates
// identities, else the caller's scan universe. Empty = nothing to score.
std::vector<Item> GatherCandidates(const SnapshotView& view,
                                   uint64_t scan_universe) {
  std::vector<Item> candidates;
  bool all_enumerable = view.shards_published() > 0;
  for (size_t s = 0; s < view.shards() && all_enumerable; ++s) {
    const Sketch* sketch = view.shard_sketch(s);
    if (sketch == nullptr) continue;  // unpublished shard: nothing tracked
    const auto* enumerable = dynamic_cast<const CandidateEnumerable*>(sketch);
    if (enumerable == nullptr) {
      all_enumerable = false;
      break;
    }
    enumerable->AppendCandidates(&candidates);
  }
  if (all_enumerable) {
    // Partitioning is by identity, so shard candidate sets are disjoint in
    // a sharded run — but dedup anyway (merged/replayed snapshots may
    // overlap).
    std::unordered_set<Item> seen(candidates.begin(), candidates.end());
    candidates.assign(seen.begin(), seen.end());
    return candidates;
  }
  candidates.clear();
  candidates.reserve(scan_universe);
  for (uint64_t item = 0; item < scan_universe; ++item) {
    candidates.push_back(item);
  }
  return candidates;
}

// Scores candidates against the view and returns them sorted by estimate
// descending, item ascending — deterministic for a fixed view.
std::vector<HeavyHitter> ScoreAndSort(const SnapshotView& view,
                                      const std::vector<Item>& candidates,
                                      double threshold) {
  std::vector<HeavyHitter> hitters;
  for (const Item item : candidates) {
    const double est = view.EstimateFrequency(item);
    if (est > 0.0 && est >= threshold) {
      hitters.push_back(HeavyHitter{item, est});
    }
  }
  std::sort(hitters.begin(), hitters.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.item < b.item;
            });
  return hitters;
}

}  // namespace

std::vector<HeavyHitter> TopK(const SnapshotView& view, size_t k,
                              uint64_t scan_universe) {
  if (k == 0 || view.shards_published() == 0) return {};
  std::vector<HeavyHitter> hitters =
      ScoreAndSort(view, GatherCandidates(view, scan_universe), 0.0);
  if (hitters.size() > k) hitters.resize(k);
  return hitters;
}

std::vector<HeavyHitter> HeavyHitters(const SnapshotView& view, double phi,
                                      uint64_t scan_universe) {
  if (view.shards_published() == 0) return {};
  const double threshold =
      phi > 0.0 ? phi * static_cast<double>(view.items_visible()) : 0.0;
  return ScoreAndSort(view, GatherCandidates(view, scan_universe), threshold);
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
