#include "state/state_accountant.h"

#include <gtest/gtest.h>

#include "state/tracked.h"
#include "state/write_log.h"

namespace fewstate {
namespace {

TEST(StateAccountant, StartsAtZero) {
  StateAccountant a;
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.word_writes(), 0u);
  EXPECT_EQ(a.word_reads(), 0u);
  EXPECT_EQ(a.updates(), 0u);
}

TEST(StateAccountant, PaperMetricCountsUpdatesNotWrites) {
  // Three writes within one update epoch = one state change (sigma_t
  // changed once).
  StateAccountant a;
  a.BeginUpdate();
  a.RecordWrite(0);
  a.RecordWrite(1);
  a.RecordWrite(2);
  EXPECT_EQ(a.state_changes(), 1u);
  EXPECT_EQ(a.word_writes(), 3u);
  a.BeginUpdate();  // closes the first epoch
  EXPECT_EQ(a.state_changes(), 1u);
  EXPECT_EQ(a.updates(), 2u);
}

TEST(StateAccountant, CleanUpdatesAreNotChanges) {
  StateAccountant a;
  for (int i = 0; i < 10; ++i) a.BeginUpdate();
  EXPECT_EQ(a.updates(), 10u);
  EXPECT_EQ(a.state_changes(), 0u);
}

TEST(StateAccountant, AlternatingDirtyCleanEpochs) {
  StateAccountant a;
  for (int i = 0; i < 10; ++i) {
    a.BeginUpdate();
    if (i % 2 == 0) a.RecordWrite(0);
  }
  EXPECT_EQ(a.state_changes(), 5u);
}

TEST(StateAccountant, InFlightDirtyEpochIsCounted) {
  StateAccountant a;
  a.BeginUpdate();
  a.RecordWrite(0);
  // No closing BeginUpdate: the in-flight change must still be visible.
  EXPECT_EQ(a.state_changes(), 1u);
}

TEST(StateAccountant, SuppressedWritesAndReadsAreNotChanges) {
  StateAccountant a;
  a.BeginUpdate();
  a.RecordSuppressedWrite();
  a.RecordRead(5);
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.suppressed_writes(), 1u);
  EXPECT_EQ(a.word_reads(), 5u);
}

TEST(StateAccountant, InitialisationWritesBeforeFirstUpdateAreFree) {
  // Epoch 0 (before any BeginUpdate) models construction: writes there
  // never count toward the paper metric (sigma_0 is the initial state).
  StateAccountant a;
  a.RecordWrite(0);
  a.RecordWrite(1);
  EXPECT_EQ(a.state_changes(), 0u);
  a.BeginUpdate();
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.word_writes(), 2u);  // finer counters still see them
}

TEST(StateAccountant, AllocationTracksPeak) {
  StateAccountant a;
  uint64_t base1 = a.AllocateCells(10);
  uint64_t base2 = a.AllocateCells(5);
  EXPECT_EQ(base1, 0u);
  EXPECT_EQ(base2, 10u);
  EXPECT_EQ(a.allocated_words(), 15u);
  EXPECT_EQ(a.peak_allocated_words(), 15u);
  a.ReleaseCells(12);
  EXPECT_EQ(a.allocated_words(), 3u);
  EXPECT_EQ(a.peak_allocated_words(), 15u);
  a.AllocateCells(2);
  EXPECT_EQ(a.allocated_words(), 5u);
  EXPECT_EQ(a.peak_allocated_words(), 15u);
}

TEST(StateAccountant, ReleaseMoreThanAllocatedClampsToZero) {
  StateAccountant a;
  a.AllocateCells(3);
  a.ReleaseCells(100);
  EXPECT_EQ(a.allocated_words(), 0u);
}

TEST(StateAccountant, WritesFlowToAttachedLog) {
  StateAccountant a;
  WriteLog log(100);
  a.set_write_sink(&log);
  a.BeginUpdate();
  a.RecordWrite(7);
  a.BeginUpdate();
  a.RecordWrite(9, 2);  // two words: cells 9 and 10
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records()[0].epoch, 1u);
  EXPECT_EQ(log.records()[0].cell, 7u);
  EXPECT_EQ(log.records()[1].cell, 9u);
  EXPECT_EQ(log.records()[2].cell, 10u);
  EXPECT_EQ(log.records()[2].epoch, 2u);
}

TEST(WriteLog, CapacityDropsButCounts) {
  WriteLog log(3);
  for (uint64_t i = 0; i < 10; ++i) log.Append(1, i);
  EXPECT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.total_appends(), 10u);
  EXPECT_EQ(log.dropped(), 7u);
  log.Clear();
  EXPECT_EQ(log.records().size(), 0u);
  EXPECT_EQ(log.total_appends(), 0u);
}

TEST(TrackedCell, SetCountsOnlyRealChanges) {
  StateAccountant a;
  TrackedCell<int> cell(&a, 5);
  a.BeginUpdate();
  cell.Set(5);  // unchanged value
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.suppressed_writes(), 1u);
  cell.Set(6);
  EXPECT_EQ(a.state_changes(), 1u);
  EXPECT_EQ(cell.Peek(), 6);
}

TEST(TrackedCell, GetCountsReads) {
  StateAccountant a;
  TrackedCell<int> cell(&a, 1);
  (void)cell.Get();
  (void)cell.Get();
  (void)cell.Peek();  // Peek is free
  EXPECT_EQ(a.word_reads(), 2u);
}

TEST(TrackedCell, MoveTransfersCellOwnership) {
  StateAccountant a;
  {
    TrackedCell<int> cell(&a, 1);
    EXPECT_EQ(a.allocated_words(), 1u);
    TrackedCell<int> moved(std::move(cell));
    EXPECT_EQ(a.allocated_words(), 1u);  // still one live cell
    EXPECT_EQ(moved.Peek(), 1);
  }
  EXPECT_EQ(a.allocated_words(), 0u);  // released exactly once
}

TEST(TrackedArray, SetGetAndRelease) {
  StateAccountant a;
  {
    TrackedArray<uint64_t> arr(&a, 8, 0);
    EXPECT_EQ(arr.size(), 8u);
    EXPECT_EQ(a.allocated_words(), 8u);
    a.BeginUpdate();
    arr.Set(3, 42);
    EXPECT_EQ(arr.Peek(3), 42u);
    EXPECT_EQ(a.state_changes(), 1u);
    arr.Set(3, 42);  // idempotent write
    EXPECT_EQ(a.suppressed_writes(), 1u);
    (void)arr.Get(0);
    EXPECT_EQ(a.word_reads(), 1u);
  }
  EXPECT_EQ(a.allocated_words(), 0u);
}

TEST(TrackedArray, DistinctCellAddresses) {
  StateAccountant a;
  WriteLog log(100);
  a.set_write_sink(&log);
  TrackedArray<int> arr(&a, 4, 0);
  a.BeginUpdate();
  arr.Set(0, 1);
  arr.Set(3, 1);
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[1].cell - log.records()[0].cell, 3u);
}

}  // namespace
}  // namespace fewstate
