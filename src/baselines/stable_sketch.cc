#include "baselines/stable_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>

#include "common/math_util.h"

namespace fewstate {

namespace {

constexpr char kIncompatible[] =
    "StableSketch: incompatible configuration (p, rows, seed, counter "
    "mode and Morris growth must match)";

// Byte budget of the projection memo's entries (the slot count is the
// largest power of two that fits, at least one).
constexpr size_t kMemoBytes = size_t{256} << 10;
// Marks an empty memo slot; this one item value is never memoized.
constexpr Item kNoItem = ~Item{0};

}  // namespace

StableSketch::StableSketch(double p, size_t rows, uint64_t seed,
                           CounterMode mode, double morris_a,
                           StateAccountant* shared_accountant)
    : p_(p),
      rows_(rows == 0 ? 1 : rows),
      seed_(seed),
      mode_(mode),
      morris_a_(morris_a),
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
  if (owned_accountant_ != nullptr) accountant_->BeginUpdate();
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

size_t StableSketch::PrepareBatch(const Item* items, size_t n,
                                  size_t parts) {
  planned_ = false;
  // A shared accountant keeps the scalar path: nothing to plan.
  if (owned_accountant_ == nullptr) return 0;
  if (memo_items_.empty()) {
    size_t slots = 1;
    while (slots * 2 * rows_ * sizeof(double) <= kMemoBytes) slots *= 2;
    memo_items_.assign(slots, kNoItem);
  }
  const size_t slots = memo_items_.size();
  size_t table = 1;
  while (table < 2 * n) table *= 2;
  miss_table_.assign(table, 0);
  batch_column_.resize(n);
  batch_misses_.clear();
  for (size_t i = 0; i < n; ++i) {
    const Item item = items[i];
    const uint64_t h = Mix64(item);
    const size_t slot = h & (slots - 1);
    if (item != kNoItem && memo_items_[slot] == item) {
      batch_column_[i] = static_cast<uint32_t>(slot);
      continue;
    }
    // A miss: one column per distinct item, in first-occurrence order.
    size_t j = (h >> 32) & (table - 1);
    uint32_t k;
    while ((k = miss_table_[j]) != 0 && batch_misses_[k - 1] != item) {
      j = (j + 1) & (table - 1);
    }
    if (k == 0) {
      batch_misses_.push_back(item);
      k = static_cast<uint32_t>(batch_misses_.size());
      miss_table_[j] = k;
    }
    batch_column_[i] = static_cast<uint32_t>(slots + k - 1);
  }
  const size_t m = batch_misses_.size();
  // Grown to exactly what this batch needs, never shrunk; the parts write
  // into it, so it never moves while they run.
  const size_t words = (slots + m) * rows_;
  if (columns_.size() < words) {
    columns_.reserve(words);
    columns_.resize(words);
  }
  const size_t made = std::min(std::max<size_t>(parts, 1), m);
  part_done_.assign(made, 0);
  plan_items_ = items;
  plan_n_ = n;
  planned_ = true;
  return made;
}

void StableSketch::PreparePart(size_t k) {
  // Entry() batched over the part's flat (miss, row) range, a block at a
  // time: the same uniforms (and clamps), theta from the key, r from the
  // xored key, then the CMS transform per entry.
  constexpr size_t kBlock = 256;
  uint64_t keys[kBlock];
  uint64_t raw[kBlock];
  double theta[kBlock];
  // Part k of P covers misses [k m / P, (k + 1) m / P).
  const size_t m = batch_misses_.size();
  const size_t parts = part_done_.size();
  const size_t last = (k + 1) * m / parts * rows_;
  for (size_t first = k * m / parts * rows_; first < last; first += kBlock) {
    const size_t c = std::min(kBlock, last - first);
    size_t miss = first / rows_;
    size_t r = first % rows_;
    for (size_t j = 0; j < c; ++j) {
      keys[j] = Mix64(batch_misses_[miss] * 0x100000001b3ULL + r + 1);
      if (++r == rows_) {
        r = 0;
        ++miss;
      }
    }
    theta_hash_.HashBatch(keys, c, raw);
    for (size_t j = 0; j < c; ++j) {
      double u_theta = static_cast<double>(raw[j] >> 11) * 0x1.0p-53;
      if (u_theta <= 0.0) u_theta = 0x1.0p-53;
      if (u_theta >= 1.0) u_theta = 1.0 - 0x1.0p-53;
      theta[j] = (u_theta - 0.5) * M_PI;
      keys[j] ^= 0xabcdef12345678ULL;
    }
    r_hash_.HashBatch(keys, c, raw);
    double* out = columns_.data() + memo_items_.size() * rows_ + first;
    for (size_t j = 0; j < c; ++j) {
      double u_r = static_cast<double>(raw[j] >> 11) * 0x1.0p-53;
      if (u_r <= 0.0) u_r = 0x1.0p-53;
      out[j] = PStableFromUniform(p_, theta[j], u_r);
    }
  }
  part_done_[k] = 1;
}

void StableSketch::UpdateBatch(const Item* items, size_t n) {
  if (owned_accountant_ == nullptr) {
    // The accountant's owner drives BeginUpdate around each item: a
    // scalar-path contract.
    for (size_t i = 0; i < n; ++i) Update(items[i]);
    return;
  }
  const bool ready =
      planned_ && plan_items_ == items && plan_n_ == n &&
      std::all_of(part_done_.begin(), part_done_.end(),
                  [](uint8_t done) { return done != 0; });
  if (!ready) {
    const size_t parts = PrepareBatch(items, n, 1);
    for (size_t k = 0; k < parts; ++k) PreparePart(k);
  }
  planned_ = false;
  constexpr size_t kChunk = 256;
  const bool collect = accountant_->needs_cell_addresses();
  for (size_t off = 0; off < n; off += kChunk) {
    const size_t c = std::min(kChunk, n - off);
    const uint32_t* columns = batch_column_.data() + off;
    batch_scratch_.Begin(collect);
    if (mode_ == CounterMode::kExact) {
      double* rows = exact_rows_->BatchData();
      const uint64_t base = exact_rows_->base_cell();
      for (size_t i = 0; i < c; ++i) {
        batch_scratch_.BeginItem();
        const double* column = columns_.data() + columns[i] * rows_;
        for (size_t r = 0; r < rows_; ++r) {
          const double next = rows[r] + column[r];
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
    } else {
      // Entries are pure functions of (item, row), so only the Adds stay
      // sequential: one per (item, row) in scalar order, which flips the
      // shared RNG's coins in exactly the scalar sequence.
      for (size_t i = 0; i < c; ++i) {
        batch_scratch_.BeginItem();
        const double* column = columns_.data() + columns[i] * rows_;
        for (size_t r = 0; r < rows_; ++r) {
          const double e = column[r];
          if (e >= 0.0) {
            pos_counters_[r].Add(e, &batch_scratch_);
          } else {
            neg_counters_[r].Add(-e, &batch_scratch_);
          }
        }
      }
    }
    accountant_->ApplyBatch(batch_scratch_);
  }
  // Only after the last Add: a miss may evict a slot that a hit's column
  // still points at.
  const size_t slots = memo_items_.size();
  for (size_t k = 0; k < batch_misses_.size(); ++k) {
    const Item item = batch_misses_[k];
    if (item == kNoItem) continue;
    const size_t slot = Mix64(item) & (slots - 1);
    memo_items_[slot] = item;
    std::copy_n(columns_.data() + (slots + k) * rows_, rows_,
                columns_.data() + slot * rows_);
  }
}

Status StableSketch::MergeFrom(const Sketch& other) {
  Status status;
  const auto* src = MergeSourceAs<StableSketch>(this, other, &status);
  if (src == nullptr) return status;
  if (!SameConfig(*src)) return Status::InvalidArgument(kIncompatible);
  if (owned_accountant_ != nullptr) accountant_->BeginUpdate();
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
  if (owned_accountant_ != nullptr) accountant_->BeginUpdate();
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
  if (owned_accountant_ != nullptr) accountant_->BeginUpdate();
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

std::vector<uint64_t> StableSketch::TrackedWords() const {
  std::vector<uint64_t> words;
  words.reserve(mode_ == CounterMode::kExact ? rows_ : 2 * rows_);
  for (size_t r = 0; r < rows_; ++r) {
    if (mode_ == CounterMode::kExact) {
      uint64_t bits;
      std::memcpy(&bits, &exact_rows_->Peek(r), sizeof(bits));
      words.push_back(bits);
    } else {
      words.push_back(pos_counters_[r].level());
      words.push_back(neg_counters_[r].level());
    }
  }
  return words;
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
