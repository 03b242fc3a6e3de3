#include "shard/snapshot_serving.h"

namespace fewstate {

std::vector<std::shared_ptr<const ShardRoster>> ServingHandle::Load() const {
  std::vector<std::shared_ptr<const ShardRoster>> rosters;
  if (rosters_ == nullptr) return rosters;
  rosters.reserve(rosters_->size());
  for (const std::shared_ptr<const ShardRoster>& slot : *rosters_) {
    rosters.push_back(std::atomic_load(&slot));
  }
  return rosters;
}

SnapshotView ServingHandle::Cut(
    const std::vector<std::shared_ptr<const ShardRoster>>& rosters) const {
  SnapshotView view;
  view.shards_.resize(rosters.size());
  view.progress_.resize(rosters.size(), 0);
  for (size_t s = 0; s < rosters.size(); ++s) {
    if (rosters[s] == nullptr) continue;
    view.progress_[s] = rosters[s]->items;
    // A sketch registered after the roster's run started has no entry.
    if (sketch_ < rosters[s]->snapshots.size()) {
      view.shards_[s] = rosters[s]->snapshots[sketch_];
    }
  }
  // Serving telemetry (opt-in): count the view, and record staleness for
  // complete views — an incomplete view's missing shards make
  // items_behind() meaningless as a staleness figure.
  if (acquires_ != nullptr) acquires_->Increment();
  if (staleness_ != nullptr && view.complete()) {
    staleness_->Observe(view.items_behind());
  }
  return view;
}

SnapshotView ServingHandle::Acquire() const { return Cut(Load()); }

double SnapshotView::EstimateFrequency(Item item) const {
  double total = 0.0;
  for (const std::shared_ptr<const ShardSnapshot>& shard : shards_) {
    if (shard != nullptr && shard->sketch != nullptr) {
      total += shard->sketch->EstimateFrequency(item);
    }
  }
  return total;
}

size_t SnapshotView::shards_published() const {
  size_t published = 0;
  for (const std::shared_ptr<const ShardSnapshot>& shard : shards_) {
    if (shard != nullptr && shard->sketch != nullptr) ++published;
  }
  return published;
}

uint64_t SnapshotView::items_behind() const {
  // Each shard's progress and snapshot come from one roster, so progress
  // covers the snapshot and nothing needs to saturate.
  uint64_t progress = 0;
  for (const uint64_t items : progress_) progress += items;
  return progress - items_visible();
}

uint64_t SnapshotView::items_visible() const {
  uint64_t visible = 0;
  for (const std::shared_ptr<const ShardSnapshot>& shard : shards_) {
    if (shard != nullptr) visible += shard->items_at_checkpoint;
  }
  return visible;
}

const Sketch* SnapshotView::shard_sketch(size_t s) const {
  if (s >= shards_.size() || shards_[s] == nullptr) return nullptr;
  return shards_[s]->sketch.get();
}

const ShardSnapshot* SnapshotView::shard_snapshot(size_t s) const {
  if (s >= shards_.size()) return nullptr;
  return shards_[s].get();
}

}  // namespace fewstate
