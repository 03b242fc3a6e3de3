#include "baselines/count_sketch.h"

#include <algorithm>

#include "common/math_util.h"

namespace fewstate {

namespace {

constexpr char kIncompatible[] =
    "CountSketch: incompatible configuration (depth, width and seed must "
    "match)";

}  // namespace

CountSketch::CountSketch(size_t depth, size_t width, uint64_t seed)
    : depth_(depth == 0 ? 1 : depth),
      width_(width == 0 ? 1 : width),
      seed_(seed) {
  bucket_hashes_.reserve(depth_);
  sign_hashes_.reserve(depth_);
  for (size_t d = 0; d < depth_; ++d) {
    bucket_hashes_.emplace_back(/*independence=*/2,
                                Mix64(seed * 31 + d * 2 + 1));
    sign_hashes_.emplace_back(/*independence=*/4,
                              Mix64(seed * 127 + d * 2 + 2));
  }
  table_ = std::make_unique<TrackedArray<int64_t>>(&accountant_,
                                                   depth_ * width_, 0);
}

void CountSketch::Update(Item item) {
  accountant_.BeginUpdate();
  for (size_t d = 0; d < depth_; ++d) {
    const size_t idx = d * width_ + bucket_hashes_[d].HashRange(item, width_);
    const int sign = sign_hashes_[d].HashSign(item);
    table_->Set(idx, table_->Get(idx) + sign);
  }
}

void CountSketch::UpdateBatch(const Item* items, size_t n) {
  constexpr size_t kChunk = 512;
  int64_t* table = table_->BatchData();
  const uint64_t base = table_->base_cell();
  for (size_t off = 0; off < n; off += kChunk) {
    const size_t c = std::min(kChunk, n - off);
    batch_idx_.resize(depth_ * c);
    batch_sign_.resize(depth_ * c);
    for (size_t d = 0; d < depth_; ++d) {
      bucket_hashes_[d].HashRangeBatch(items + off, c, width_,
                                       batch_idx_.data() + d * c);
      sign_hashes_[d].HashSignBatch(items + off, c,
                                    batch_sign_.data() + d * c);
    }
    batch_scratch_.Begin(accountant_.needs_cell_addresses());
    // A +-1 add always changes the counter, so the grid settle records the
    // chunk and the sweep runs row-major over indices and signs.
    batch_scratch_.AllChangedRows(c, depth_, base, width_, batch_idx_.data());
    batch_scratch_.Read(static_cast<uint64_t>(depth_) * c);
    for (size_t d = 0; d < depth_; ++d) {
      const uint64_t* idx = batch_idx_.data() + d * c;
      const int8_t* sign = batch_sign_.data() + d * c;
      int64_t* row = table + d * width_;
      for (size_t i = 0; i < c; ++i) row[idx[i]] += sign[i];
    }
    accountant_.ApplyBatch(batch_scratch_);
  }
}

Status CountSketch::MergeFrom(const Sketch& other) {
  Status status;
  const auto* src = MergeSourceAs<CountSketch>(this, other, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  accountant_.BeginUpdate();
  AddTrackedArray(table_.get(), *src->table_);
  return Status::OK();
}

Status CountSketch::RestoreFrom(const Sketch& source) {
  Status status;
  const auto* src = RestoreSourceAs<CountSketch>(this, source, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  accountant_.BeginUpdate();
  CopyTrackedArray(table_.get(), *src->table_);
  return Status::OK();
}

Status CountSketch::RestoreDirty(const Sketch& source,
                                 const DirtyTracker& dirty) {
  Status status;
  const auto* src = RestoreSourceAs<CountSketch>(this, source, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  accountant_.BeginUpdate();
  CopyTrackedArrayCells(table_.get(), *src->table_, dirty.SortedCells());
  return Status::OK();
}

double CountSketch::EstimateFrequency(Item item) const {
  std::vector<double> row_estimates(depth_);
  for (size_t d = 0; d < depth_; ++d) {
    const size_t idx = d * width_ + bucket_hashes_[d].HashRange(item, width_);
    const int sign = sign_hashes_[d].HashSign(item);
    row_estimates[d] = static_cast<double>(sign * table_->Peek(idx));
  }
  return Median(std::move(row_estimates));
}

std::vector<HeavyHitter> CountSketch::HeavyHittersByScan(
    Item universe, double threshold) const {
  std::vector<HeavyHitter> out;
  for (Item j = 0; j < universe; ++j) {
    const double est = EstimateFrequency(j);
    if (est >= threshold) out.push_back(HeavyHitter{j, est});
  }
  return out;
}

double CountSketch::EstimateF2() const {
  std::vector<double> row_sums(depth_);
  for (size_t d = 0; d < depth_; ++d) {
    double sum = 0.0;
    for (size_t wdx = 0; wdx < width_; ++wdx) {
      const double c = static_cast<double>(table_->Peek(d * width_ + wdx));
      sum += c * c;
    }
    row_sums[d] = sum;
  }
  return Median(std::move(row_sums));
}

}  // namespace fewstate
