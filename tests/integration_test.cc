// Cross-module integration: one realistic stream through every structure,
// with cross-checks between independent estimators, the oracle, and the
// NVM replay pipeline.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "core/entropy_estimator.h"
#include "core/fp_estimator.h"
#include "core/heavy_hitters.h"
#include "core/small_p_estimator.h"
#include "nvm/live_sink.h"
#include "stream/generators.h"
#include "stream/stream_stats.h"

namespace fewstate {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kUniverse = 8000;
  static constexpr uint64_t kLength = 80000;

  static const Stream& SharedStream() {
    static const Stream stream = ZipfStream(kUniverse, 1.3, kLength, 555);
    return stream;
  }
  static const StreamStats& Oracle() {
    static const StreamStats stats(SharedStream());
    return stats;
  }
};

TEST_F(IntegrationTest, IndependentF2EstimatorsAgree) {
  // Level-set estimator (ours) vs CountSketch F2 vs exact.
  FpEstimatorOptions fp_options;
  fp_options.universe = kUniverse;
  fp_options.stream_length_hint = kLength;
  fp_options.p = 2.0;
  fp_options.eps = 0.3;
  fp_options.seed = 1;
  FpEstimator ours(fp_options);
  CountSketch cs(5, 4096, 2);
  for (Item item : SharedStream()) {
    ours.Update(item);
    cs.Update(item);
  }
  const double exact = Oracle().Fp(2.0);
  EXPECT_NEAR(ours.EstimateFp() / exact, 1.0, 0.3);
  EXPECT_NEAR(cs.EstimateF2() / exact, 1.0, 0.2);
  EXPECT_NEAR(ours.EstimateFp() / cs.EstimateF2(), 1.0, 0.4);
  // And ours writes less often.
  EXPECT_LT(ours.accountant().state_changes(),
            cs.accountant().state_changes());
}

TEST_F(IntegrationTest, HeavyHittersConsistentWithCountMinPointQueries) {
  HeavyHittersOptions hh_options;
  hh_options.universe = kUniverse;
  hh_options.stream_length_hint = kLength;
  hh_options.p = 2.0;
  hh_options.eps = 0.2;
  hh_options.seed = 3;
  LpHeavyHitters ours(hh_options);
  CountMin cm(5, 4096, 4);
  for (Item item : SharedStream()) {
    ours.Update(item);
    cm.Update(item);
  }
  for (const HeavyHitter& hh : ours.HeavyHitters()) {
    // CountMin overestimates, ours underestimates: ordering must hold
    // (with Morris slack).
    EXPECT_LE(hh.estimate, 1.6 * cm.EstimateFrequency(hh.item) + 8.0);
  }
}

TEST_F(IntegrationTest, MomentsAreMonotoneInP) {
  // F1 >= F_{0.5} relationships via independent estimators: F_p of an
  // integer frequency vector is monotone increasing in p.
  SmallPEstimatorOptions half;
  half.p = 0.5;
  half.eps = 0.25;
  half.seed = 5;
  SmallPEstimator f_half(half);
  FpEstimatorOptions two;
  two.universe = kUniverse;
  two.stream_length_hint = kLength;
  two.p = 2.0;
  two.eps = 0.3;
  two.seed = 6;
  FpEstimator f_two(two);
  for (Item item : SharedStream()) {
    f_half.Update(item);
    f_two.Update(item);
  }
  EXPECT_LT(f_half.EstimateFp(), static_cast<double>(kLength) * 1.3);
  EXPECT_GT(f_two.EstimateFp(), static_cast<double>(kLength) * 0.7);
}

TEST_F(IntegrationTest, EntropyMatchesMomentBasedBound) {
  EntropyEstimatorOptions options;
  options.universe = kUniverse;
  options.stream_length_hint = kLength;
  options.eps = 0.3;
  options.seed = 7;
  options.rows = 32;
  EntropyEstimator entropy(options);
  entropy.Consume(SharedStream());
  EXPECT_NEAR(entropy.EstimateEntropy(), Oracle().ShannonEntropy(), 1.5);
}

TEST_F(IntegrationTest, NvmReplayAccountsEveryWordWrite) {
  WriteLog log(1ULL << 22);
  FpEstimatorOptions options;
  options.universe = kUniverse;
  options.stream_length_hint = kLength;
  options.p = 2.0;
  options.eps = 0.4;
  options.seed = 8;
  FpEstimator alg(options);
  alg.mutable_accountant()->set_write_sink(&log);
  alg.Consume(SharedStream());

  // Every recorded word write lands on the device (minus init epoch-0 and
  // capacity drops, both zero here).
  NvmSpec spec;
  spec.config.num_cells = 1 << 18;
  const NvmReplayReport report = ReplayOnNvm(log, alg.accountant(), spec);
  EXPECT_EQ(report.writes_replayed,
            alg.accountant().word_writes() - log.dropped());
  // The device a sink fed from the log holds the same writes.
  LiveNvmSink sink(spec);
  for (const WriteRecord& record : log.records()) {
    sink.OnWrite(record.epoch, record.cell);
  }
  EXPECT_EQ(sink.device().total_writes(), report.writes_replayed);
  EXPECT_EQ(report.reads_replayed, alg.accountant().word_reads());
  EXPECT_GE(report.writes_replayed, alg.accountant().state_changes());
}

TEST_F(IntegrationTest, PaperMetricIsBelowWordWritesAndUpdates) {
  FpEstimatorOptions options;
  options.universe = kUniverse;
  options.stream_length_hint = kLength;
  options.p = 2.0;
  options.eps = 0.4;
  options.seed = 9;
  FpEstimator alg(options);
  alg.Consume(SharedStream());
  const auto& acc = alg.accountant();
  EXPECT_LE(acc.state_changes(), acc.updates());
  EXPECT_LE(acc.state_changes(), acc.word_writes());
  EXPECT_EQ(acc.updates(), kLength);
}

}  // namespace
}  // namespace fewstate
