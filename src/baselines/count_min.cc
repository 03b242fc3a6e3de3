#include "baselines/count_min.h"

#include <algorithm>
#include <limits>

namespace fewstate {

namespace {

constexpr char kIncompatible[] =
    "CountMin: incompatible configuration (depth, width, seed and update "
    "mode must match)";

}  // namespace

CountMin::CountMin(size_t depth, size_t width, uint64_t seed,
                   bool conservative)
    : depth_(depth == 0 ? 1 : depth),
      width_(width == 0 ? 1 : width),
      seed_(seed),
      conservative_(conservative) {
  hashes_.reserve(depth_);
  for (size_t d = 0; d < depth_; ++d) {
    hashes_.emplace_back(/*independence=*/2, Mix64(seed + d * 0x9e37 + 1));
  }
  table_ = std::make_unique<TrackedArray<uint64_t>>(&accountant_,
                                                    depth_ * width_, 0);
}

void CountMin::Update(Item item) {
  accountant_.BeginUpdate();
  if (!conservative_) {
    for (size_t d = 0; d < depth_; ++d) {
      const size_t idx = d * width_ + hashes_[d].HashRange(item, width_);
      table_->Set(idx, table_->Get(idx) + 1);
    }
    return;
  }
  // Conservative update: new estimate is min+1; only counters below it are
  // raised.
  uint64_t min_count = std::numeric_limits<uint64_t>::max();
  scalar_idx_.resize(depth_);
  for (size_t d = 0; d < depth_; ++d) {
    scalar_idx_[d] = d * width_ + hashes_[d].HashRange(item, width_);
    min_count = std::min(min_count, table_->Get(scalar_idx_[d]));
  }
  const uint64_t target = min_count + 1;
  for (size_t d = 0; d < depth_; ++d) {
    if (table_->Get(scalar_idx_[d]) < target) {
      table_->Set(scalar_idx_[d], target);
    }
  }
}

void CountMin::UpdateBatch(const Item* items, size_t n) {
  // Chunked so the index scratch stays cache-resident regardless of the
  // engine's batch size.
  constexpr size_t kChunk = 512;
  uint64_t* table = table_->BatchData();
  const uint64_t base = table_->base_cell();
  for (size_t off = 0; off < n; off += kChunk) {
    const size_t c = std::min(kChunk, n - off);
    batch_idx_.resize(depth_ * c);
    for (size_t d = 0; d < depth_; ++d) {
      hashes_[d].HashRangeBatch(items + off, c, width_,
                                batch_idx_.data() + d * c);
    }
    batch_scratch_.Begin(accountant_.needs_cell_addresses());
    if (conservative_) {
      for (size_t i = 0; i < c; ++i) {
        batch_scratch_.BeginItem();
        uint64_t min_count = std::numeric_limits<uint64_t>::max();
        for (size_t d = 0; d < depth_; ++d) {
          min_count =
              std::min(min_count, table[d * width_ + batch_idx_[d * c + i]]);
        }
        const uint64_t target = min_count + 1;
        for (size_t d = 0; d < depth_; ++d) {
          const size_t cell = d * width_ + batch_idx_[d * c + i];
          if (table[cell] < target) {
            table[cell] = target;
            batch_scratch_.Write(base + cell);
          }
        }
        batch_scratch_.Read(2 * depth_);
      }
    } else {
      // Every update raises one counter per row (always a state change), so
      // the grid settle records the chunk and the sweep runs row-major.
      batch_scratch_.AllChangedRows(c, depth_, base, width_,
                                    batch_idx_.data());
      batch_scratch_.Read(static_cast<uint64_t>(depth_) * c);
      for (size_t d = 0; d < depth_; ++d) {
        const uint64_t* idx = batch_idx_.data() + d * c;
        uint64_t* row = table + d * width_;
#pragma omp simd
        for (size_t i = 0; i < c; ++i) row[idx[i]] += 1;
      }
    }
    accountant_.ApplyBatch(batch_scratch_);
  }
}

Status CountMin::MergeFrom(const Sketch& other) {
  Status status;
  const auto* src = MergeSourceAs<CountMin>(this, other, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  // One merge is one accounting epoch.
  accountant_.BeginUpdate();
  AddTrackedArray(table_.get(), *src->table_);
  return Status::OK();
}

Status CountMin::RestoreFrom(const Sketch& source) {
  Status status;
  const auto* src = RestoreSourceAs<CountMin>(this, source, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  // One restore is one accounting epoch.
  accountant_.BeginUpdate();
  CopyTrackedArray(table_.get(), *src->table_);
  return Status::OK();
}

Status CountMin::RestoreDirty(const Sketch& source, const DirtyTracker& dirty) {
  Status status;
  const auto* src = RestoreSourceAs<CountMin>(this, source, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  accountant_.BeginUpdate();
  CopyTrackedArrayCells(table_.get(), *src->table_, dirty.SortedCells());
  return Status::OK();
}

double CountMin::EstimateFrequency(Item item) const {
  uint64_t min_count = std::numeric_limits<uint64_t>::max();
  for (size_t d = 0; d < depth_; ++d) {
    const size_t idx = d * width_ + hashes_[d].HashRange(item, width_);
    min_count = std::min(min_count, table_->Peek(idx));
  }
  return static_cast<double>(min_count);
}

std::vector<HeavyHitter> CountMin::HeavyHittersByScan(Item universe,
                                                      double threshold) const {
  std::vector<HeavyHitter> out;
  for (Item j = 0; j < universe; ++j) {
    const double est = EstimateFrequency(j);
    if (est >= threshold) out.push_back(HeavyHitter{j, est});
  }
  return out;
}

}  // namespace fewstate
