#include "baselines/misra_gries.h"

#include <algorithm>
#include <functional>

namespace fewstate {

namespace {

constexpr char kIncompatible[] =
    "MisraGries: capacities must match";

}  // namespace

MisraGries::MisraGries(size_t k) : k_(k == 0 ? 1 : k) {
  // 2 words (item, count) per slot.
  cells_base_ = accountant_.AllocateCells(2 * k_);
  counts_.reserve(k_);
  // LIFO free list, highest slot first, so the first insert takes slot 0.
  free_slots_.reserve(k_);
  for (size_t s = k_; s-- > 0;) {
    free_slots_.push_back(static_cast<uint32_t>(s));
  }
}

void MisraGries::Update(Item item) {
  accountant_.BeginUpdate();
  auto it = counts_.find(item);
  accountant_.RecordRead();
  if (it != counts_.end()) {
    ++it->second.count;
    accountant_.RecordWrite(CountCell(it->second.slot));
    return;
  }
  if (counts_.size() < k_) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    counts_.emplace(item, Entry{1, slot});
    accountant_.RecordWrite(KeyCell(slot), 2);
    return;
  }
  // Decrement phase: every tracked count drops by one; zeros are evicted
  // (the zeroed count word is the tombstone) and their slots recycled.
  for (auto iter = counts_.begin(); iter != counts_.end();) {
    accountant_.RecordWrite(CountCell(iter->second.slot));
    if (--iter->second.count == 0) {
      free_slots_.push_back(iter->second.slot);
      iter = counts_.erase(iter);
    } else {
      ++iter;
    }
  }
}

Status MisraGries::MergeFrom(const Sketch& other) {
  Status status;
  const auto* src = MergeSourceAs<MisraGries>(this, other, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  accountant_.BeginUpdate();
  for (const auto& [item, entry] : src->counts_) {
    accountant_.RecordRead();
    auto it = counts_.find(item);
    if (it != counts_.end()) {
      it->second.count += entry.count;
      accountant_.RecordWrite(CountCell(it->second.slot));
    } else {
      // The union may transiently exceed k entries; overflow entries get
      // unique addresses past the nominal table (wear mappings wrap by
      // device size) until the decrement pass below shrinks the union
      // back to at most k and recycles only real (< k) slots.
      uint32_t slot;
      if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
      } else {
        slot = static_cast<uint32_t>(counts_.size());
      }
      counts_.emplace(item, Entry{entry.count, slot});
      accountant_.RecordWrite(KeyCell(slot), 2);
    }
  }
  if (counts_.size() > k_) {
    // Subtract the (k+1)-th largest count from everyone; at most k entries
    // can stay strictly positive.
    std::vector<uint64_t> order;
    order.reserve(counts_.size());
    for (const auto& [item, entry] : counts_) order.push_back(entry.count);
    std::nth_element(order.begin(), order.begin() + k_, order.end(),
                     std::greater<uint64_t>());
    const uint64_t decrement = order[k_];
    for (auto iter = counts_.begin(); iter != counts_.end();) {
      accountant_.RecordWrite(CountCell(iter->second.slot));
      if (iter->second.count <= decrement) {
        if (iter->second.slot < k_) free_slots_.push_back(iter->second.slot);
        iter = counts_.erase(iter);
      } else {
        iter->second.count -= decrement;
        ++iter;
      }
    }
    // Re-home any survivor still on a transient overflow slot: at most k
    // entries remain, so a real slot is free for each. Moving the pair is
    // a 2-word state change at its new address.
    for (auto& [item, entry] : counts_) {
      if (entry.slot >= k_) {
        entry.slot = free_slots_.back();
        free_slots_.pop_back();
        accountant_.RecordWrite(KeyCell(entry.slot), 2);
      }
    }
  }
  return Status::OK();
}

Status MisraGries::RestoreFrom(const Sketch& source) {
  Status status;
  const auto* src = RestoreSourceAs<MisraGries>(this, source, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  accountant_.BeginUpdate();
  // Evict entries the source no longer tracks (one tombstone word each —
  // the slot's zeroed count word).
  for (auto iter = counts_.begin(); iter != counts_.end();) {
    if (src->counts_.find(iter->first) == src->counts_.end()) {
      accountant_.RecordWrite(CountCell(iter->second.slot));
      if (iter->second.slot < k_) free_slots_.push_back(iter->second.slot);
      iter = counts_.erase(iter);
    } else {
      ++iter;
    }
  }
  // Copy the source's entries; identical pairs are not state changes.
  for (const auto& [item, entry] : src->counts_) {
    auto it = counts_.find(item);
    if (it == counts_.end()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      counts_.emplace(item, Entry{entry.count, slot});
      accountant_.RecordWrite(KeyCell(slot), 2);
    } else if (it->second.count != entry.count) {
      it->second.count = entry.count;
      accountant_.RecordWrite(CountCell(it->second.slot));
    } else {
      accountant_.RecordSuppressedWrite();
    }
  }
  return Status::OK();
}

double MisraGries::EstimateFrequency(Item item) const {
  auto it = counts_.find(item);
  return it == counts_.end() ? 0.0 : static_cast<double>(it->second.count);
}

std::vector<HeavyHitter> MisraGries::HeavyHitters(double threshold) const {
  std::vector<HeavyHitter> out;
  for (const auto& [item, entry] : counts_) {
    if (static_cast<double>(entry.count) >= threshold) {
      out.push_back(HeavyHitter{item, static_cast<double>(entry.count)});
    }
  }
  return out;
}

}  // namespace fewstate
