#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "nvm/live_sink.h"
#include "nvm/nvm_device.h"
#include "nvm/wear_leveling.h"
#include "state/state_accountant.h"
#include "state/write_log.h"

namespace fewstate {
namespace {

NvmConfig SmallConfig() {
  NvmConfig config;
  config.num_cells = 64;
  config.endurance = 100;
  return config;
}

TEST(NvmConfig, ValidationCatchesBadParameters) {
  NvmConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_cells = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = NvmConfig();
  config.endurance = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = NvmConfig();
  config.write_energy_nj = -1;
  EXPECT_FALSE(config.Validate().ok());

  // A rotation period is consumed only by kRotating, where 0 is invalid.
  NvmSpec spec;
  spec.rotate_period = 0;
  EXPECT_TRUE(spec.Validate().ok());
  spec.leveling = NvmSpec::Leveling::kRotating;
  EXPECT_FALSE(spec.Validate().ok());
  spec.rotate_period = 1;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(NvmDevice, TracksPerCellWear) {
  NvmDevice device(SmallConfig());
  device.Write(3);
  device.Write(3);
  device.Write(5);
  EXPECT_EQ(device.total_writes(), 3u);
  EXPECT_EQ(device.max_cell_wear(), 2u);
  EXPECT_EQ(device.cell_wear()[3], 2u);
  EXPECT_EQ(device.cell_wear()[5], 1u);
}

TEST(NvmDevice, AddressesWrapModuloDeviceSize) {
  NvmDevice device(SmallConfig());
  device.Write(64 + 3);  // wraps to cell 3
  EXPECT_EQ(device.cell_wear()[3], 1u);
}

TEST(NvmDevice, FailsWhenACellReachesEndurance) {
  NvmDevice device(SmallConfig());
  for (int i = 0; i < 99; ++i) device.Write(0);
  EXPECT_FALSE(device.failed());
  EXPECT_NEAR(device.lifetime_remaining(), 0.01, 1e-9);
  device.Write(0);
  EXPECT_TRUE(device.failed());
  EXPECT_EQ(device.worn_out_cells(), 1u);
  EXPECT_DOUBLE_EQ(device.lifetime_remaining(), 0.0);
}

TEST(NvmDevice, EnergyAndLatencyUseAsymmetricCosts) {
  NvmConfig config = SmallConfig();
  config.read_energy_nj = 1.0;
  config.write_energy_nj = 10.0;
  config.read_latency_ns = 50.0;
  config.write_latency_ns = 500.0;
  NvmDevice device(config);
  device.Write(0);
  device.ReadBulk(1);
  device.ReadBulk(9);
  EXPECT_DOUBLE_EQ(device.energy_nj(), 10.0 + 10.0);
  EXPECT_DOUBLE_EQ(device.latency_ns(), 500.0 + 500.0);
  EXPECT_EQ(device.total_reads(), 10u);
}

TEST(NvmDevice, WearImbalanceDetectsHotCells) {
  NvmDevice hot(SmallConfig());
  for (int i = 0; i < 64; ++i) hot.Write(0);
  EXPECT_DOUBLE_EQ(hot.wear_imbalance(), 64.0);

  NvmDevice level(SmallConfig());
  for (int c = 0; c < 64; ++c) level.Write(c);
  EXPECT_DOUBLE_EQ(level.wear_imbalance(), 1.0);
}

TEST(WearLeveling, DirectMappingIsIdentityModuloSize) {
  WearLeveler direct(WearLeveling::kDirect, 64, 1, 1);
  EXPECT_EQ(direct.MapWrite(5), 5u);
  EXPECT_EQ(direct.MapWrite(64 + 5), 5u);
}

TEST(WearLeveling, RotatingMappingSpreadsAHotCell) {
  WearLeveler rotate(WearLeveling::kRotating, 16, /*rotate_period=*/1, 1);
  std::set<uint64_t> cells;
  for (int i = 0; i < 16; ++i) cells.insert(rotate.MapWrite(0));
  EXPECT_EQ(cells.size(), 16u);  // one rotation per write covers the device
}

TEST(WearLeveling, HashedMappingSpreadsAHotCell) {
  WearLeveler hashed(WearLeveling::kHashed, 1 << 12, 1, /*hash_seed=*/7);
  std::set<uint64_t> cells;
  for (int i = 0; i < 100; ++i) cells.insert(hashed.MapWrite(0));
  EXPECT_GT(cells.size(), 90u);  // ~uniform scatter, few collisions
}

// Live and replay pricing share one sink, so their agreement cannot catch
// a changed mapping; these sequences can. A fixed logical sequence with
// two hot cells (0 every third write, 5 every fifth) and a walk past the
// device size, mapped onto 64 cells.
std::vector<uint64_t> PhysicalCells(WearLeveler leveler) {
  std::vector<uint64_t> cells;
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t logical = i % 3 == 0 ? 0 : i % 5 == 0 ? 5 : (i * 37) % 150;
    cells.push_back(leveler.MapWrite(logical));
  }
  return cells;
}

TEST(WearLeveling, MappingSequencesArePinned) {
  const std::vector<uint64_t> direct = {
      0, 37, 10, 0, 20, 5, 0, 45, 18, 0, 5, 43, 0, 31, 4, 0,
      14, 29, 0, 39, 5, 0, 0, 37, 0, 5, 62, 0, 8, 23, 0, 33,
      6, 0, 58, 5, 0, 19, 56, 0, 5, 17, 0, 27, 0, 0, 52, 25,
      0, 13, 5, 0, 60, 11, 0, 5, 58, 0, 46, 19, 0, 7, 44, 0,
      54, 5, 0, 15, 52, 0, 5, 13, 0, 1, 38, 0, 48, 21, 0, 9,
      5, 0, 34, 7, 0, 5, 32, 0, 42, 15, 0, 3, 40, 0, 28, 5,
      0, 11, 26, 0, 5, 9, 0, 61, 34, 0, 22, 59, 0, 5, 5, 0,
      30, 3, 0, 5, 28, 0, 16, 53, 0, 63, 14, 0, 24, 5, 0, 49,
      22, 0, 5, 47, 0, 57, 8, 0, 18, 55, 0, 43, 5, 0, 4, 41,
      0, 5, 2, 0, 12, 49, 0, 37, 10, 0, 20, 5, 0, 45, 18, 0,
      5, 43, 0, 31, 4, 0, 14, 29, 0, 39, 5, 0, 0, 37, 0, 5,
      62, 0, 8, 23, 0, 33, 6, 0, 58, 5, 0, 19, 56, 0, 5, 17,
      0, 27, 0, 0, 52, 25, 0, 13,
  };
  const std::vector<uint64_t> rotate = {
      0, 37, 10, 1, 21, 6, 2, 47, 20, 3, 8, 46, 4, 35, 8, 5,
      19, 34, 6, 45, 11, 7, 7, 44, 8, 13, 6, 9, 17, 32, 10, 43,
      16, 11, 5, 16, 12, 31, 4, 13, 18, 30, 14, 41, 14, 15, 3, 40,
      16, 29, 21, 17, 13, 28, 18, 23, 12, 19, 1, 38, 20, 27, 0, 21,
      11, 26, 22, 37, 10, 23, 28, 36, 24, 25, 62, 25, 9, 46, 26, 35,
      31, 27, 61, 34, 28, 33, 60, 29, 7, 44, 30, 33, 6, 31, 59, 36,
      32, 43, 58, 33, 38, 42, 34, 31, 4, 35, 57, 30, 36, 41, 41, 37,
      3, 40, 38, 43, 2, 39, 55, 28, 40, 39, 54, 41, 1, 46, 42, 27,
      0, 43, 48, 26, 44, 37, 52, 45, 63, 36, 46, 25, 51, 47, 51, 24,
      48, 53, 50, 49, 61, 34, 50, 23, 60, 51, 7, 56, 52, 33, 6, 53,
      58, 32, 54, 21, 58, 55, 5, 20, 56, 31, 61, 57, 57, 30, 58, 63,
      56, 59, 3, 18, 60, 29, 2, 61, 55, 2, 62, 17, 54, 63, 4, 16,
      0, 27, 0, 1, 53, 26, 2, 15,
  };
  const std::vector<uint64_t> hashed = {
      44, 39, 24, 30, 45, 63, 54, 48, 10, 61, 39, 39, 60, 38, 23, 22,
      10, 0, 26, 26, 43, 17, 15, 32, 32, 43, 5, 9, 54, 61, 11, 42,
      33, 5, 23, 45, 13, 1, 54, 22, 49, 45, 41, 36, 24, 39, 43, 32,
      34, 53, 63, 19, 21, 50, 52, 30, 4, 10, 27, 18, 39, 19, 7, 57,
      40, 7, 61, 51, 49, 0, 19, 30, 58, 3, 11, 34, 26, 55, 8, 59,
      34, 24, 29, 49, 39, 25, 36, 14, 13, 58, 49, 14, 51, 46, 19, 48,
      55, 43, 53, 11, 34, 48, 39, 14, 47, 46, 52, 60, 13, 35, 60, 5,
      41, 48, 19, 39, 28, 0, 10, 52, 60, 23, 18, 11, 4, 58, 5, 31,
      15, 43, 18, 58, 59, 15, 2, 48, 40, 53, 10, 38, 30, 44, 48, 9,
      10, 18, 4, 29, 53, 19, 40, 54, 31, 62, 26, 35, 33, 11, 33, 45,
      42, 47, 5, 55, 24, 1, 22, 5, 35, 34, 8, 52, 18, 33, 35, 54,
      18, 20, 24, 31, 14, 42, 33, 31, 8, 17, 17, 35, 59, 54, 29, 54,
      7, 45, 20, 59, 52, 33, 53, 21,
  };
  EXPECT_EQ(PhysicalCells(WearLeveler(WearLeveling::kDirect, 64, 3, 7)),
            direct);
  EXPECT_EQ(PhysicalCells(WearLeveler(WearLeveling::kRotating, 64,
                                      /*rotate_period=*/3, 7)),
            rotate);
  EXPECT_EQ(PhysicalCells(WearLeveler(WearLeveling::kHashed, 64, 3,
                                      /*hash_seed=*/7)),
            hashed);
}

TEST(NvmAdapter, ReplayMatchesLogAndAccountant) {
  StateAccountant accountant;
  WriteLog log(1000);
  accountant.set_write_sink(&log);
  accountant.BeginUpdate();
  accountant.RecordWrite(1);
  accountant.RecordWrite(2);
  accountant.BeginUpdate();
  accountant.RecordWrite(1);
  accountant.RecordRead(7);

  NvmSpec spec;
  spec.config = SmallConfig();
  const NvmReplayReport report = ReplayOnNvm(log, accountant, spec);
  EXPECT_EQ(report.writes_replayed, 3u);
  EXPECT_EQ(report.reads_replayed, 7u);
  EXPECT_EQ(report.max_cell_wear, 2u);  // cell 1 written twice
  EXPECT_DOUBLE_EQ(report.projected_stream_replays_to_failure, 100.0 / 2.0);
}

TEST(NvmAdapter, NoWritesMeansInfiniteLifetime) {
  StateAccountant accountant;
  WriteLog log(10);
  NvmSpec spec;
  spec.config = SmallConfig();
  const NvmReplayReport report = ReplayOnNvm(log, accountant, spec);
  EXPECT_TRUE(std::isinf(report.projected_stream_replays_to_failure));
}

TEST(NvmAdapter, WearLevelingExtendsLifetimeOfHotWorkloads) {
  // A workload that hammers one logical cell: direct mapping dies sooner
  // than rotate/hashed.
  StateAccountant accountant;
  WriteLog log(100000);
  accountant.set_write_sink(&log);
  for (int i = 0; i < 1000; ++i) {
    accountant.BeginUpdate();
    accountant.RecordWrite(0);
  }
  NvmSpec spec;
  spec.config.num_cells = 256;
  spec.config.endurance = 1 << 20;
  spec.rotate_period = 4;
  spec.hash_seed = 9;

  auto run = [&](NvmSpec::Leveling leveling) {
    spec.leveling = leveling;
    return ReplayOnNvm(log, accountant, spec)
        .projected_stream_replays_to_failure;
  };
  const double direct = run(NvmSpec::Leveling::kDirect);
  const double rotate = run(NvmSpec::Leveling::kRotating);
  const double hashed = run(NvmSpec::Leveling::kHashed);
  EXPECT_GT(rotate, 10 * direct);
  EXPECT_GT(hashed, 10 * direct);
}

// --- Reporting discipline on the cached path (regression) ---
//
// A mid-run report on a cached path must never silently exclude pending
// write-backs: the non-const `LiveNvmSink::Report()` auto-flushes first,
// and the const `Report()`, which cannot flush, aborts loudly instead of
// under-reporting wear.

NvmSpec TinyCachedSpec() {
  NvmSpec spec;
  spec.config = SmallConfig();
  spec.cache.sets = 1;
  spec.cache.ways = 2;
  spec.cache.line_words = 1;
  return spec;
}

TEST(NvmAdapterCached, MidRunReportAutoFlushesAndStaysCumulative) {
  LiveNvmSink sink(TinyCachedSpec());
  sink.OnWrite(1, 0);
  sink.OnWrite(1, 1);
  sink.OnWrite(2, 0);  // absorbed: cell 0 is already dirty

  const NvmReplayReport mid = sink.Report();  // non-const: auto-flushes
  EXPECT_TRUE(mid.cache_enabled);
  EXPECT_EQ(mid.cache.writebacks_pending, 0u);
  EXPECT_EQ(mid.cache.total_writes, 3u);
  EXPECT_EQ(mid.cache.absorbed_writes, 1u);
  EXPECT_EQ(mid.writes_replayed, 2u);  // device writes == write-backs

  // Idempotent: reporting again without new writes changes nothing.
  const NvmReplayReport again = sink.Report();
  EXPECT_EQ(again.writes_replayed, mid.writes_replayed);
  EXPECT_EQ(again.cache.writebacks, mid.cache.writebacks);

  // The run continues after a mid-run report; the next report is
  // cumulative, not restarted.
  sink.OnWrite(3, 0);
  const NvmReplayReport fin = sink.Report();
  EXPECT_EQ(fin.cache.total_writes, 4u);
  EXPECT_EQ(fin.writes_replayed, 3u);
  EXPECT_EQ(fin.max_cell_wear, 2u);  // cell 0 written back twice
}

TEST(NvmAdapterCachedDeathTest, UnflushedConstSinkReportAborts) {
  LiveNvmSink sink(TinyCachedSpec());
  sink.OnWrite(1, 0);
  const LiveNvmSink& view = sink;
  EXPECT_DEATH(view.Report(), "pending");
  sink.Flush();
  EXPECT_EQ(view.Report().writes_replayed, 1u);
}

// The spec is validated where the sink consumes it: a zero-cell device or
// a zero rotation period would otherwise divide by zero on the first write.
TEST(NvmAdapterCachedDeathTest, InvalidSpecAbortsAtConstruction) {
  NvmSpec no_cells;
  no_cells.config.num_cells = 0;
  EXPECT_DEATH(LiveNvmSink sink(no_cells), "num_cells");
  NvmSpec no_period;
  no_period.leveling = NvmSpec::Leveling::kRotating;
  no_period.rotate_period = 0;
  EXPECT_DEATH(LiveNvmSink sink(no_period), "rotate_period");
}

}  // namespace
}  // namespace fewstate
