#ifndef FEWSTATE_STATE_TRACKED_H_
#define FEWSTATE_STATE_TRACKED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "state/state_accountant.h"

namespace fewstate {

/// \brief One word of tracked algorithmic state.
///
/// Every mutation is reported to the owning `StateAccountant`; writing the
/// value already stored is reported as a suppressed write (no state change,
/// matching the paper's sigma_t != sigma_{t-1} definition). Reads are
/// counted but never contribute to the state-change metric.
template <typename T>
class TrackedCell {
 public:
  /// \brief Allocates one cell in `accountant` initialised to `initial`.
  /// Initialisation writes are attributed to epoch 0 and are free.
  explicit TrackedCell(StateAccountant* accountant, T initial = T())
      : accountant_(accountant),
        cell_(accountant->AllocateCells(1)),
        value_(initial) {}

  ~TrackedCell() {
    if (accountant_ != nullptr) accountant_->ReleaseCells(1);
  }

  TrackedCell(const TrackedCell&) = delete;
  TrackedCell& operator=(const TrackedCell&) = delete;

  /// \brief Move transfers ownership of the cell; the source no longer
  /// releases it on destruction.
  TrackedCell(TrackedCell&& other) noexcept
      : accountant_(other.accountant_),
        cell_(other.cell_),
        value_(other.value_) {
    other.accountant_ = nullptr;
  }

  TrackedCell& operator=(TrackedCell&& other) noexcept {
    if (this != &other) {
      if (accountant_ != nullptr) accountant_->ReleaseCells(1);
      accountant_ = other.accountant_;
      cell_ = other.cell_;
      value_ = other.value_;
      other.accountant_ = nullptr;
    }
    return *this;
  }

  /// \brief Reads the stored value (counted as one word read).
  const T& Get() const {
    accountant_->RecordRead();
    return value_;
  }

  /// \brief Reads without touching the read counter (for reporting paths
  /// that are outside the streaming model, e.g. final estimates).
  const T& Peek() const { return value_; }

  /// \brief Writes `v`; counts a state change only if the value differs.
  void Set(const T& v) {
    if (v == value_) {
      accountant_->RecordSuppressedWrite();
      return;
    }
    value_ = v;
    accountant_->RecordWrite(cell_);
  }

  /// \brief Batch-kernel `Set`: the same suppression rule, with the write
  /// mirrored into `scratch` (flushed later by `StateAccountant::ApplyBatch`)
  /// instead of reported to the accountant.
  void Set(const T& v, BatchUpdateScratch* scratch) {
    if (v == value_) {
      scratch->SuppressedWrite();
      return;
    }
    value_ = v;
    scratch->Write(cell_);
  }

  /// \brief Logical cell address (used by write traces).
  uint64_t cell() const { return cell_; }

 private:
  StateAccountant* accountant_;
  uint64_t cell_;
  T value_;
};

/// \brief A fixed-size array of tracked words.
///
/// Cheaper than a vector of TrackedCell (single allocation, contiguous
/// addresses) and the natural representation for reservoirs and sketch
/// tables.
template <typename T>
class TrackedArray {
 public:
  /// \brief Allocates `size` cells initialised to `initial`.
  TrackedArray(StateAccountant* accountant, size_t size, T initial = T())
      : accountant_(accountant),
        base_(accountant->AllocateCells(size)),
        values_(size, initial) {}

  ~TrackedArray() {
    // Space accounting: state is freed when the structure dies.
    accountant_->ReleaseCells(values_.size());
  }

  TrackedArray(const TrackedArray&) = delete;
  TrackedArray& operator=(const TrackedArray&) = delete;

  /// \brief Reads element `i` (counted).
  const T& Get(size_t i) const {
    accountant_->RecordRead();
    return values_[i];
  }

  /// \brief Reads element `i` without counting.
  const T& Peek(size_t i) const { return values_[i]; }

  /// \brief Writes element `i`; counts a state change only on a real
  /// value change.
  void Set(size_t i, const T& v) {
    if (values_[i] == v) {
      accountant_->RecordSuppressedWrite();
      return;
    }
    values_[i] = v;
    accountant_->RecordWrite(base_ + i);
  }

  /// \brief Number of elements.
  size_t size() const { return values_.size(); }

  /// \brief Base cell address of element 0.
  uint64_t base_cell() const { return base_; }

  /// \brief Raw mutable storage for batch kernels. A caller mutating
  /// through this pointer takes over the tracking contract: every real
  /// value change must be mirrored into a `BatchUpdateScratch` (cell
  /// `base_cell() + i`), equal-value stores as suppressed writes, and the
  /// scratch flushed via `StateAccountant::ApplyBatch` — otherwise the
  /// paper metric silently drifts from the true state trajectory.
  T* BatchData() { return values_.data(); }

  /// \brief Raw read-only storage (no read accounting; pair with
  /// `BatchUpdateScratch::Read`).
  const T* BatchData() const { return values_.data(); }

 private:
  StateAccountant* accountant_;
  uint64_t base_;
  std::vector<T> values_;
};

/// \brief Adds `src` into `dst` element-wise (equal sizes assumed — the
/// linear-sketch merge primitive). Zero source cells are skipped entirely,
/// so untouched state costs the destination accountant nothing.
template <typename T>
void AddTrackedArray(TrackedArray<T>* dst, const TrackedArray<T>& src) {
  for (size_t i = 0; i < src.size(); ++i) {
    const T add = src.Peek(i);
    if (add == T()) continue;
    dst->Set(i, dst->Get(i) + add);
  }
}

/// \brief Overwrites `dst` element-wise with `src` (equal sizes assumed —
/// the checkpoint/restore primitive behind `RestorableSketch`). Words
/// already holding the source value are suppressed, so restoring onto the
/// previous checkpoint prices exactly the words that changed since.
template <typename T>
void CopyTrackedArray(TrackedArray<T>* dst, const TrackedArray<T>& src) {
  for (size_t i = 0; i < src.size(); ++i) dst->Set(i, src.Peek(i));
}

/// \brief Delta-restore variant of `CopyTrackedArray`: copies only the
/// elements whose absolute cell addresses appear in `cells` (ascending; a
/// `DirtyTracker::SortedCells` output). Addresses are interpreted in
/// `src`'s space — identical to `dst`'s for identically-configured
/// replicas, which is the `RestorableSketch` precondition. Cells outside
/// the array are ignored (they belong to the algorithm's other
/// structures).
template <typename T>
void CopyTrackedArrayCells(TrackedArray<T>* dst, const TrackedArray<T>& src,
                           const std::vector<uint64_t>& cells) {
  const uint64_t base = src.base_cell();
  const uint64_t end = base + src.size();
  for (uint64_t cell : cells) {
    if (cell < base || cell >= end) continue;
    const size_t i = static_cast<size_t>(cell - base);
    dst->Set(i, src.Peek(i));
  }
}

}  // namespace fewstate

#endif  // FEWSTATE_STATE_TRACKED_H_
