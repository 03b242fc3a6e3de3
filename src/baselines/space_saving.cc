#include "baselines/space_saving.h"

namespace fewstate {

SpaceSaving::SpaceSaving(size_t k) : k_(k == 0 ? 1 : k) {
  // 3 words (item, count, error) per slot.
  cells_base_ = accountant_.AllocateCells(3 * k_);
  counts_.reserve(k_);
}

void SpaceSaving::RemoveFromBucket(uint64_t count, Item item) {
  auto node = count_buckets_.find(count);
  node->second.erase(item);
  if (node->second.empty()) count_buckets_.erase(node);
}

void SpaceSaving::Update(Item item) {
  accountant_.BeginUpdate();
  accountant_.RecordRead();
  auto it = counts_.find(item);
  if (it != counts_.end()) {
    RemoveFromBucket(it->second.count, item);
    ++it->second.count;
    count_buckets_[it->second.count].insert(item);
    accountant_.RecordWrite(cells_base_ + 1);
    return;
  }
  if (counts_.size() < k_) {
    counts_.emplace(item, Entry{1, 0});
    count_buckets_[1].insert(item);
    accountant_.RecordWrite(cells_base_, 3);
    return;
  }
  // Replace a minimum-count entry: the new item inherits min+1 with error
  // bound min.
  auto min_node = count_buckets_.begin();
  const uint64_t min = min_node->first;
  const Item victim = *min_node->second.begin();
  RemoveFromBucket(min, victim);
  counts_.erase(victim);
  counts_.emplace(item, Entry{min + 1, min});
  count_buckets_[min + 1].insert(item);
  accountant_.RecordWrite(cells_base_, 3);
}

Status SpaceSaving::MergeFrom(const Sketch& other) {
  Status status;
  const auto* src = MergeSourceAs<SpaceSaving>(this, other, &status);
  if (src == nullptr) return status;
  if (src->k_ != k_) {
    return Status::InvalidArgument(
        "SpaceSaving::MergeFrom: capacities must match");
  }
  accountant_.BeginUpdate();
  for (const auto& [item, entry] : src->counts_) {
    accountant_.RecordRead();
    auto it = counts_.find(item);
    if (it != counts_.end()) {
      RemoveFromBucket(it->second.count, item);
      it->second.count += entry.count;
      it->second.error += entry.error;
      count_buckets_[it->second.count].insert(item);
      accountant_.RecordWrite(cells_base_ + 1, 2);
    } else {
      counts_.emplace(item, entry);
      count_buckets_[entry.count].insert(item);
      accountant_.RecordWrite(cells_base_, 3);
    }
  }
  // Prune the union back to capacity, smallest counts first. Accounting is
  // at Update()'s slot granularity: each eviction compacts one 3-word slot.
  while (counts_.size() > k_) {
    auto min_node = count_buckets_.begin();
    const Item victim = *min_node->second.begin();
    RemoveFromBucket(min_node->first, victim);
    counts_.erase(victim);
    accountant_.RecordWrite(cells_base_, 3);
  }
  return Status::OK();
}

double SpaceSaving::EstimateFrequency(Item item) const {
  auto it = counts_.find(item);
  if (it != counts_.end()) return static_cast<double>(it->second.count);
  return static_cast<double>(min_count());
}

std::vector<HeavyHitter> SpaceSaving::HeavyHitters(double threshold) const {
  std::vector<HeavyHitter> out;
  for (const auto& [item, entry] : counts_) {
    if (static_cast<double>(entry.count) >= threshold) {
      out.push_back(HeavyHitter{item, static_cast<double>(entry.count)});
    }
  }
  return out;
}

uint64_t SpaceSaving::min_count() const {
  if (counts_.size() < k_) return 0;
  return count_buckets_.empty() ? 0 : count_buckets_.begin()->first;
}

}  // namespace fewstate
