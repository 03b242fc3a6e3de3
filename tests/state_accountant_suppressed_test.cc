// Satellite of the paper's §1.5 state-change model: a write that stores
// the value already present leaves sigma unchanged, so it must never count
// toward the state-change metric — in any epoch, across epoch boundaries,
// and during epoch-0 initialisation.

#include <gtest/gtest.h>

#include "state/state_accountant.h"
#include "state/tracked.h"

namespace fewstate {
namespace {

TEST(SuppressedWrites, NeverCountWithinOneEpoch) {
  StateAccountant a;
  a.BeginUpdate();
  for (int i = 0; i < 100; ++i) a.RecordSuppressedWrite();
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.suppressed_writes(), 100u);
  EXPECT_EQ(a.word_writes(), 0u);
}

TEST(SuppressedWrites, NeverCountAcrossManyEpochBoundaries) {
  // A long run of updates each "writing back" the present value is a
  // zero-state-change execution under the paper metric.
  StateAccountant a;
  for (int t = 0; t < 50; ++t) {
    a.BeginUpdate();
    a.RecordSuppressedWrite(3);
    EXPECT_EQ(a.state_changes(), 0u) << "after update " << t;
  }
  a.BeginUpdate();  // close the last epoch
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.suppressed_writes(), 150u);
  EXPECT_EQ(a.updates(), 51u);
}

TEST(SuppressedWrites, DoNotCountDuringEpochZeroInitialisation) {
  // Epoch 0 models construction; neither real nor suppressed writes there
  // count, and a suppressed write must not make epoch 0 look dirty.
  StateAccountant a;
  a.RecordSuppressedWrite(7);
  EXPECT_EQ(a.state_changes(), 0u);
  a.BeginUpdate();
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.suppressed_writes(), 7u);
}

TEST(SuppressedWrites, MixedWithRealWritesCountOnlyRealEpochs) {
  // Epochs: (real), (suppressed), (real + suppressed), (suppressed),
  // (clean). Exactly the two epochs containing a real write count.
  StateAccountant a;
  a.BeginUpdate();
  a.RecordWrite(0);
  a.BeginUpdate();
  a.RecordSuppressedWrite();
  a.BeginUpdate();
  a.RecordSuppressedWrite();
  a.RecordWrite(1);
  a.RecordSuppressedWrite();
  a.BeginUpdate();
  a.RecordSuppressedWrite(4);
  a.BeginUpdate();
  EXPECT_EQ(a.state_changes(), 2u);
  EXPECT_EQ(a.suppressed_writes(), 7u);
  EXPECT_EQ(a.word_writes(), 2u);
}

TEST(SuppressedWrites, SuppressedEpochLeavesNoInFlightChange) {
  // state_changes() counts an in-flight epoch only if it is dirty; a
  // suppressed write must not trip that path either.
  StateAccountant a;
  a.BeginUpdate();
  a.RecordSuppressedWrite();
  EXPECT_EQ(a.state_changes(), 0u);  // in-flight epoch, suppressed only
  a.RecordWrite(0);
  EXPECT_EQ(a.state_changes(), 1u);  // now genuinely dirty
}

TEST(SuppressedWrites, TrackedCellRoutesIdempotentSetsAsSuppressed) {
  // End-to-end through TrackedCell: writing the present value repeatedly,
  // across epochs, is suppressed every time.
  StateAccountant a;
  TrackedCell<int> cell(&a, 42);
  for (int t = 0; t < 10; ++t) {
    a.BeginUpdate();
    cell.Set(42);
  }
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.suppressed_writes(), 10u);
  a.BeginUpdate();
  cell.Set(43);
  EXPECT_EQ(a.state_changes(), 1u);
}

TEST(SuppressedWrites, TrackedArrayIdempotentInitialisationAndUpdates) {
  StateAccountant a;
  TrackedArray<uint64_t> arr(&a, 4, 5);
  // Epoch 0: re-store the fill value everywhere — all suppressed.
  for (size_t i = 0; i < arr.size(); ++i) arr.Set(i, 5);
  EXPECT_EQ(a.suppressed_writes(), 4u);
  a.BeginUpdate();
  EXPECT_EQ(a.state_changes(), 0u);
  // Same pattern inside a real epoch.
  for (size_t i = 0; i < arr.size(); ++i) arr.Set(i, 5);
  a.BeginUpdate();
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.suppressed_writes(), 8u);
}

}  // namespace
}  // namespace fewstate
