#include "baselines/stable_sketch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/math_util.h"

namespace fewstate {

namespace {

constexpr char kIncompatible[] =
    "StableSketch: incompatible configuration (p, rows, seed, counter "
    "mode and Morris growth must match)";

}  // namespace

StableSketch::StableSketch(double p, size_t rows, uint64_t seed,
                           CounterMode mode, double morris_a,
                           StateAccountant* shared_accountant,
                           bool manage_epochs)
    : p_(p),
      rows_(rows == 0 ? 1 : rows),
      seed_(seed),
      mode_(mode),
      morris_a_(morris_a),
      manage_epochs_(manage_epochs),
      rng_(Mix64(seed ^ 0x57ab1e5ce7c4ULL)),
      theta_hash_(Mix64(seed * 3 + 1)),
      r_hash_(Mix64(seed * 5 + 2)) {
  if (shared_accountant != nullptr) {
    accountant_ = shared_accountant;
  } else {
    owned_accountant_ = std::make_unique<StateAccountant>();
    accountant_ = owned_accountant_.get();
  }
  if (mode_ == CounterMode::kExact) {
    exact_rows_ =
        std::make_unique<TrackedArray<double>>(accountant_, rows_, 0.0);
  } else {
    pos_counters_.reserve(rows_);
    neg_counters_.reserve(rows_);
    for (size_t r = 0; r < rows_; ++r) {
      pos_counters_.emplace_back(accountant_, &rng_, morris_a);
      neg_counters_.emplace_back(accountant_, &rng_, morris_a);
    }
  }
}

double StableSketch::Entry(size_t row, Item item) const {
  // Derive two (approximately) independent uniforms for the CMS formula
  // from the (row, item) pair. A seeded hash replaces the paper's
  // limited-independence derandomisation (see DESIGN.md substitutions).
  const uint64_t key = Mix64(item * 0x100000001b3ULL + row + 1);
  double u_theta = theta_hash_.HashUnit(key);
  double u_r = r_hash_.HashUnit(key ^ 0xabcdef12345678ULL);
  // Keep both uniforms strictly inside (0, 1) for the logs/poles.
  if (u_theta <= 0.0) u_theta = 0x1.0p-53;
  if (u_theta >= 1.0) u_theta = 1.0 - 0x1.0p-53;
  if (u_r <= 0.0) u_r = 0x1.0p-53;
  const double theta = (u_theta - 0.5) * M_PI;
  return PStableFromUniform(p_, theta, u_r);
}

void StableSketch::Update(Item item) {
  if (manage_epochs_) accountant_->BeginUpdate();
  for (size_t r = 0; r < rows_; ++r) {
    const double e = Entry(r, item);
    if (mode_ == CounterMode::kExact) {
      exact_rows_->Set(r, exact_rows_->Get(r) + e);
    } else if (e >= 0.0) {
      pos_counters_[r].Add(e);
    } else {
      neg_counters_[r].Add(-e);
    }
  }
}

void StableSketch::UpdateBatch(const Item* items, size_t n) {
  if (mode_ != CounterMode::kExact || !manage_epochs_) {
    // Morris counters flip RNG coins sequentially per update, and
    // caller-managed epochs mean the caller drives BeginUpdate around
    // each item — both are inherently scalar-path contracts.
    for (size_t i = 0; i < n; ++i) Update(items[i]);
    return;
  }
  constexpr size_t kChunk = 256;
  double* rows = exact_rows_->BatchData();
  const uint64_t base = exact_rows_->base_cell();
  const bool collect = accountant_->needs_cell_addresses();
  for (size_t off = 0; off < n; off += kChunk) {
    const size_t c = std::min(kChunk, n - off);
    const size_t m = rows_ * c;
    batch_keys_.resize(m);
    batch_raw_.resize(m);
    batch_theta_.resize(m);
    batch_entries_.resize(m);
    for (size_t r = 0; r < rows_; ++r) {
      uint64_t* keys = batch_keys_.data() + r * c;
      for (size_t i = 0; i < c; ++i) {
        keys[i] = Mix64(items[off + i] * 0x100000001b3ULL + r + 1);
      }
    }
    // Same uniform derivation (and clamps) as Entry(), batched: theta from
    // the key, r from the xored key, then the CMS transform per element.
    theta_hash_.HashBatch(batch_keys_.data(), m, batch_raw_.data());
    for (size_t j = 0; j < m; ++j) {
      double u_theta = static_cast<double>(batch_raw_[j] >> 11) * 0x1.0p-53;
      if (u_theta <= 0.0) u_theta = 0x1.0p-53;
      if (u_theta >= 1.0) u_theta = 1.0 - 0x1.0p-53;
      batch_theta_[j] = (u_theta - 0.5) * M_PI;
      batch_keys_[j] ^= 0xabcdef12345678ULL;
    }
    r_hash_.HashBatch(batch_keys_.data(), m, batch_raw_.data());
    for (size_t j = 0; j < m; ++j) {
      double u_r = static_cast<double>(batch_raw_[j] >> 11) * 0x1.0p-53;
      if (u_r <= 0.0) u_r = 0x1.0p-53;
      batch_entries_[j] = PStableFromUniform(p_, batch_theta_[j], u_r);
    }
    batch_scratch_.Begin(collect);
    for (size_t i = 0; i < c; ++i) {
      batch_scratch_.BeginItem();
      for (size_t r = 0; r < rows_; ++r) {
        const double e = batch_entries_[r * c + i];
        const double next = rows[r] + e;
        // Adding a tiny entry to a large accumulator can round back to
        // the same double — a suppressed write, exactly as the tracked
        // scalar Set() prices it.
        if (next != rows[r]) {
          rows[r] = next;
          batch_scratch_.Write(base + r);
        } else {
          batch_scratch_.SuppressedWrite();
        }
      }
      batch_scratch_.Read(rows_);
    }
    accountant_->ApplyBatch(batch_scratch_);
  }
}

Status StableSketch::MergeFrom(const Sketch& other) {
  Status status;
  const auto* src = MergeSourceAs<StableSketch>(this, other, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  if (manage_epochs_) accountant_->BeginUpdate();
  if (mode_ == CounterMode::kExact) {
    AddTrackedArray(exact_rows_.get(), *src->exact_rows_);
    return Status::OK();
  }
  for (size_t r = 0; r < rows_; ++r) {
    // Growth parameters were checked above, so the per-counter merges
    // cannot fail.
    pos_counters_[r].Merge(src->pos_counters_[r]);
    neg_counters_[r].Merge(src->neg_counters_[r]);
  }
  return Status::OK();
}

Status StableSketch::RestoreFrom(const Sketch& source) {
  Status status;
  const auto* src = RestoreSourceAs<StableSketch>(this, source, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  if (manage_epochs_) accountant_->BeginUpdate();
  if (mode_ == CounterMode::kExact) {
    CopyTrackedArray(exact_rows_.get(), *src->exact_rows_);
  } else {
    for (size_t r = 0; r < rows_; ++r) {
      // Growth parameters were checked above, so the per-counter restores
      // cannot fail.
      pos_counters_[r].RestoreFrom(src->pos_counters_[r]);
      neg_counters_[r].RestoreFrom(src->neg_counters_[r]);
    }
  }
  // The RNG cursor is state too (it decides the future coin flips), but it
  // is not a tracked word — the streaming model never charges for it, on
  // update or on restore.
  rng_ = src->rng_;
  return Status::OK();
}

Status StableSketch::RestoreDirty(const Sketch& source,
                                  const DirtyTracker& dirty) {
  Status status;
  const auto* src = RestoreSourceAs<StableSketch>(this, source, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  if (manage_epochs_) accountant_->BeginUpdate();
  if (mode_ == CounterMode::kExact) {
    CopyTrackedArrayCells(exact_rows_.get(), *src->exact_rows_,
                          dirty.SortedCells());
  } else {
    for (size_t r = 0; r < rows_; ++r) {
      if (dirty.Contains(src->pos_counters_[r].cell())) {
        pos_counters_[r].RestoreFrom(src->pos_counters_[r]);
      }
      if (dirty.Contains(src->neg_counters_[r].cell())) {
        neg_counters_[r].RestoreFrom(src->neg_counters_[r]);
      }
    }
  }
  rng_ = src->rng_;
  return Status::OK();
}

double StableSketch::MedianAbsRowValue() const {
  std::vector<double> magnitudes(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    double v;
    if (mode_ == CounterMode::kExact) {
      v = exact_rows_->Peek(r);
    } else {
      v = pos_counters_[r].Estimate() - neg_counters_[r].Estimate();
    }
    magnitudes[r] = std::fabs(v);
  }
  return Median(std::move(magnitudes));
}

double StableSketch::EstimateLp() const {
  return MedianAbsRowValue() / MedianAbsPStable(p_);
}

double StableSketch::EstimateFp() const { return PowP(EstimateLp(), p_); }

double StableSketch::MedianAbsPStable(double p) {
  static std::mutex mu;
  static std::map<double, double> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(p);
  if (it != cache.end()) return it->second;
  // Seeded Monte Carlo: the scale factor only needs ~3 decimal digits.
  Rng rng(0xC0FFEE123ULL ^ static_cast<uint64_t>(p * 1e9));
  constexpr int kSamples = 200001;
  std::vector<double> samples(kSamples);
  for (auto& s : samples) s = std::fabs(SamplePStable(p, &rng));
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double median = samples[mid];
  cache.emplace(p, median);
  return median;
}

}  // namespace fewstate
