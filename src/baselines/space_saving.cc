#include "baselines/space_saving.h"

#include <algorithm>

namespace fewstate {

SpaceSaving::SpaceSaving(size_t k) : k_(k == 0 ? 1 : k) {
  // 3 words (item, count, error) per slot.
  cells_base_ = accountant_.AllocateCells(3 * k_);
}

uint32_t SpaceSaving::Find(Item item) const {
  if (index_.empty()) return kNone;
  const size_t mask = index_.size() - 1;
  for (size_t i = Home(item);; i = (i + 1) & mask) {
    const IndexEntry& entry = index_[i];
    if (entry.slot == kNone || entry.item == item) return entry.slot;
  }
}

void SpaceSaving::IndexInsert(Item item, uint32_t slot) {
  const size_t mask = index_.size() - 1;
  size_t i = Home(item);
  while (index_[i].slot != kNone) i = (i + 1) & mask;
  index_[i] = IndexEntry{item, slot};
}

void SpaceSaving::IndexErase(Item item) {
  const size_t mask = index_.size() - 1;
  size_t hole = Home(item);
  while (index_[hole].item != item || index_[hole].slot == kNone) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically after the hole.
  for (size_t j = (hole + 1) & mask; index_[j].slot != kNone;
       j = (j + 1) & mask) {
    if (((j - Home(index_[j].item)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].slot = kNone;
}

void SpaceSaving::RebuildIndex(size_t entries) {
  size_t size = 16;
  while (size < 2 * entries) size *= 2;
  index_.assign(size, IndexEntry{0, kNone});
  index_shift_ = 64 - __builtin_ctzll(size);
  for (uint32_t s = 0; s < slots_.size(); ++s) IndexInsert(slots_[s].item, s);
}

uint32_t SpaceSaving::NewBucket(uint64_t count, uint32_t prev,
                                uint32_t next) {
  uint32_t bucket = free_bucket_;
  if (bucket != kNone) {
    free_bucket_ = buckets_[bucket].next;
  } else {
    bucket = static_cast<uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  buckets_[bucket] = Bucket{count, kNone, kNone, prev, next};
  if (prev != kNone) {
    buckets_[prev].next = bucket;
  } else {
    min_bucket_ = bucket;
  }
  if (next != kNone) {
    buckets_[next].prev = bucket;
  } else {
    max_bucket_ = bucket;
  }
  return bucket;
}

void SpaceSaving::FreeBucket(uint32_t bucket) {
  const Bucket& b = buckets_[bucket];
  if (b.prev != kNone) {
    buckets_[b.prev].next = b.next;
  } else {
    min_bucket_ = b.next;
  }
  // Only `Increment` frees a bucket, once its lone slot has moved up into
  // the next one, so the top bucket is never freed and `max_bucket_`
  // changes only in `NewBucket`.
  if (b.next != kNone) buckets_[b.next].prev = b.prev;
  buckets_[bucket].next = free_bucket_;
  free_bucket_ = bucket;
}

void SpaceSaving::Append(uint32_t bucket, uint32_t slot) {
  Bucket& b = buckets_[bucket];
  Slot& s = slots_[slot];
  s.bucket = bucket;
  s.prev = b.tail;
  s.next = kNone;
  if (b.tail != kNone) {
    slots_[b.tail].next = slot;
  } else {
    b.head = slot;
  }
  b.tail = slot;
}

void SpaceSaving::Detach(uint32_t slot) {
  const Slot& s = slots_[slot];
  Bucket& b = buckets_[s.bucket];
  if (s.prev != kNone) {
    slots_[s.prev].next = s.next;
  } else {
    b.head = s.next;
  }
  if (s.next != kNone) {
    slots_[s.next].prev = s.prev;
  } else {
    b.tail = s.prev;
  }
}

void SpaceSaving::Increment(uint32_t slot) {
  const uint32_t bucket = slots_[slot].bucket;
  const uint64_t count = buckets_[bucket].count + 1;
  uint32_t next = buckets_[bucket].next;
  const bool next_matches = next != kNone && buckets_[next].count == count;
  if (buckets_[bucket].head == buckets_[bucket].tail) {
    // The slot is alone at its count: move the bucket with it.
    if (!next_matches) {
      buckets_[bucket].count = count;
      return;
    }
    FreeBucket(bucket);
  } else {
    Detach(slot);
    if (!next_matches) next = NewBucket(count, bucket, next);
  }
  Append(next, slot);
}

uint32_t SpaceSaving::AddSlot(Item item, uint64_t error) {
  const uint32_t slot = static_cast<uint32_t>(slots_.size());
  slots_.push_back(Slot{item, error, kNone, kNone, kNone});
  if (2 * slots_.size() > index_.size()) {
    RebuildIndex(slots_.size());  // indexes the new slot too
  } else {
    IndexInsert(item, slot);
  }
  return slot;
}

void SpaceSaving::Update(Item item) {
  accountant_.BeginUpdate();
  accountant_.RecordRead();
  uint32_t slot = Find(item);
  if (slot != kNone) {
    Increment(slot);
    accountant_.RecordWrite(cells_base_ + 1);
    return;
  }
  if (slots_.size() < k_) {
    slot = AddSlot(item, 0);
    uint32_t ones = min_bucket_;
    if (ones == kNone || buckets_[ones].count != 1) {
      ones = NewBucket(1, kNone, min_bucket_);
    }
    Append(ones, slot);
    accountant_.RecordWrite(cells_base_, 3);
    return;
  }
  // Replace the earliest minimum-count entry: the new item inherits min+1
  // with error bound min.
  slot = buckets_[min_bucket_].head;
  IndexErase(slots_[slot].item);
  IndexInsert(item, slot);
  slots_[slot].item = item;
  slots_[slot].error = buckets_[min_bucket_].count;
  Increment(slot);
  accountant_.RecordWrite(cells_base_, 3);
}

template <typename Fn>
void SpaceSaving::ForEachInEvictionOrder(Fn&& fn) const {
  for (uint32_t b = min_bucket_; b != kNone; b = buckets_[b].next) {
    for (uint32_t s = buckets_[b].head; s != kNone; s = slots_[s].next) {
      fn(s, buckets_[b].count);
    }
  }
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
  // Untouched entries keep the order in which they reached their counts;
  // every entry the source touches reaches its new count after them, in
  // the source's eviction order.
  struct Entry {
    Item item;
    uint64_t count;
    uint64_t error;
    uint64_t reached;
  };
  std::vector<Entry> merged;
  merged.reserve(slots_.size() + src->slots_.size());
  std::vector<uint32_t> position(slots_.size());
  ForEachInEvictionOrder([&](uint32_t slot, uint64_t count) {
    position[slot] = static_cast<uint32_t>(merged.size());
    merged.push_back(
        Entry{slots_[slot].item, count, slots_[slot].error, merged.size()});
  });
  uint64_t clock = merged.size();
  src->ForEachInEvictionOrder([&](uint32_t slot, uint64_t count) {
    const Slot& in = src->slots_[slot];
    accountant_.RecordRead();
    const uint32_t mine = Find(in.item);
    if (mine != kNone) {
      Entry& entry = merged[position[mine]];
      entry.count += count;
      entry.error += in.error;
      entry.reached = clock++;
      accountant_.RecordWrite(cells_base_ + 1, 2);
    } else {
      merged.push_back(Entry{in.item, count, in.error, clock++});
      accountant_.RecordWrite(cells_base_, 3);
    }
  });
  std::sort(merged.begin(), merged.end(),
            [](const Entry& a, const Entry& b) {
              if (a.count != b.count) return a.count < b.count;
              return a.reached < b.reached;
            });
  // Prune the union back to capacity, victims first. Accounting is at
  // Update()'s slot granularity: each eviction compacts one 3-word slot.
  const size_t evicted = merged.size() > k_ ? merged.size() - k_ : 0;
  for (size_t i = 0; i < evicted; ++i) {
    accountant_.RecordWrite(cells_base_, 3);
  }
  slots_.clear();
  buckets_.clear();
  min_bucket_ = kNone;
  max_bucket_ = kNone;
  free_bucket_ = kNone;
  RebuildIndex(merged.size() - evicted);
  uint32_t last = kNone;
  for (size_t i = evicted; i < merged.size(); ++i) {
    const Entry& entry = merged[i];
    const uint32_t slot = AddSlot(entry.item, entry.error);
    if (last == kNone || buckets_[last].count != entry.count) {
      last = NewBucket(entry.count, last, kNone);
    }
    Append(last, slot);
  }
  return Status::OK();
}

double SpaceSaving::EstimateFrequency(Item item) const {
  const uint32_t slot = Find(item);
  if (slot != kNone) {
    return static_cast<double>(buckets_[slots_[slot].bucket].count);
  }
  return static_cast<double>(min_count());
}

void SpaceSaving::AppendTopCandidates(size_t k,
                                      std::vector<Item>* out) const {
  size_t taken = 0;
  for (uint32_t b = max_bucket_; b != kNone && taken < k;
       b = buckets_[b].prev) {
    for (uint32_t s = buckets_[b].head; s != kNone; s = slots_[s].next) {
      out->push_back(slots_[s].item);
      ++taken;
    }
  }
}

std::vector<HeavyHitter> SpaceSaving::HeavyHitters(double threshold) const {
  std::vector<HeavyHitter> out;
  for (const Slot& slot : slots_) {
    const double count = static_cast<double>(buckets_[slot.bucket].count);
    if (count >= threshold) out.push_back(HeavyHitter{slot.item, count});
  }
  return out;
}

uint64_t SpaceSaving::min_count() const {
  if (slots_.size() < k_) return 0;
  return buckets_[min_bucket_].count;
}

}  // namespace fewstate
