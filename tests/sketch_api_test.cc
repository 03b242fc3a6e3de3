// The unified Sketch API layer: driving a sketch through a single-shard
// ShardedEngine must be observationally identical to running it standalone
// (same estimates, same state-change totals), and per-sketch accountants
// must stay isolated when many sketches share one engine pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/sketch.h"
#include "baselines/ams_sketch.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "core/entropy_estimator.h"
#include "core/fp_estimator.h"
#include "core/full_sample_and_hold.h"
#include "core/heavy_hitters.h"
#include "core/sample_and_hold.h"
#include "core/small_p_estimator.h"
#include "core/sparse_recovery.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kUniverse = 500;
constexpr uint64_t kLength = 5000;
constexpr uint64_t kSeed = 7;

SampleAndHoldOptions SahOptions() {
  SampleAndHoldOptions o;
  o.universe = kUniverse;
  o.stream_length_hint = kLength;
  o.p = 2.0;
  o.eps = 0.4;
  o.seed = 11;
  return o;
}

FullSampleAndHoldOptions FsahOptions() {
  FullSampleAndHoldOptions o;
  o.universe = kUniverse;
  o.stream_length_hint = kLength;
  o.p = 2.0;
  o.eps = 0.4;
  o.seed = 12;
  o.repetitions = 2;
  return o;
}

HeavyHittersOptions HhOptions() {
  HeavyHittersOptions o;
  o.universe = kUniverse;
  o.stream_length_hint = kLength;
  o.p = 2.0;
  o.eps = 0.25;
  o.seed = 13;
  o.repetitions = 2;
  return o;
}

FpEstimatorOptions FpOptions() {
  FpEstimatorOptions o;
  o.universe = kUniverse;
  o.stream_length_hint = kLength;
  o.p = 2.0;
  o.eps = 0.4;
  o.seed = 14;
  o.repetitions = 2;
  return o;
}

EntropyEstimatorOptions EntropyOptions() {
  EntropyEstimatorOptions o;
  o.universe = kUniverse;
  o.stream_length_hint = kLength;
  o.eps = 0.2;
  o.seed = 15;
  return o;
}

SmallPEstimatorOptions SmallPOptions() {
  SmallPEstimatorOptions o;
  o.p = 0.5;
  o.eps = 0.3;
  o.seed = 16;
  return o;
}

SparseRecoveryOptions SparseOptions() {
  SparseRecoveryOptions o;
  o.universe = kUniverse;
  o.sparsity = 8;
  o.stream_length_hint = kLength;
  o.seed = 17;
  return o;
}

// One factory per Sketch implementation in the library's core + Table 1
// baselines — the non-mergeable sample-and-hold structures included, which
// a single-shard engine accepts. Each call builds an identically-seeded
// fresh instance, so standalone and engine-driven copies are exact
// replicas. The composite estimators nest structures on one shared
// accountant; `row.updates == kLength` pins that only the accountant's
// owner opens each update's epoch.
std::vector<SketchFactory> AllFactories() {
  return {
      SketchFactory("sample_and_hold",
                    [] { return std::make_unique<SampleAndHold>(SahOptions()); }),
      SketchFactory("full_sample_and_hold",
                    [] {
                      return std::make_unique<FullSampleAndHold>(FsahOptions());
                    }),
      SketchFactory("lp_heavy_hitters",
                    [] {
                      return std::make_unique<LpHeavyHitters>(HhOptions());
                    }),
      SketchFactory::Of<MisraGries>("misra_gries", size_t{32}),
      SketchFactory::Of<SpaceSaving>("space_saving", size_t{32}),
      SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{256},
                                  uint64_t{21}),
      SketchFactory::Of<CountSketch>("count_sketch", size_t{5}, size_t{256},
                                     uint64_t{22}),
      SketchFactory::Of<AmsSketch>("ams_sketch", size_t{5}, size_t{64},
                                   uint64_t{23}),
      SketchFactory::Of<StableSketch>("stable_sketch", 0.5, size_t{32},
                                      uint64_t{24},
                                      StableSketch::CounterMode::kMorris),
      SketchFactory::Of<StableSketch>("stable_sketch_exact", 1.0, size_t{32},
                                      uint64_t{25},
                                      StableSketch::CounterMode::kExact),
      SketchFactory::Of<FpEstimator>("fp_estimator", FpOptions()),
      SketchFactory::Of<EntropyEstimator>("entropy_estimator",
                                          EntropyOptions()),
      SketchFactory::Of<SmallPEstimator>("small_p_estimator",
                                         SmallPOptions()),
      SketchFactory::Of<SparseRecovery>("sparse_recovery", SparseOptions()),
  };
}

// A single-shard engine over `factories`.
std::unique_ptr<ShardedEngine> SingleShard(
    const std::vector<SketchFactory>& factories) {
  auto engine = std::make_unique<ShardedEngine>(ShardedEngineOptions{});
  for (const SketchFactory& factory : factories) {
    EXPECT_TRUE(engine->AddSketch(factory).ok()) << factory.name();
  }
  return engine;
}

TEST(SketchApi, EngineMatchesStandaloneForEveryImplementation) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  const std::vector<SketchFactory> factories = AllFactories();
  std::unique_ptr<ShardedEngine> engine = SingleShard(factories);
  std::vector<std::unique_ptr<Sketch>> standalone;
  for (const SketchFactory& factory : factories) {
    standalone.push_back(factory.Make());
    standalone.back()->Consume(stream);
  }
  const ShardedRunReport report = engine->Run(VectorSource(stream));
  ASSERT_EQ(report.sketches.size(), standalone.size());
  EXPECT_EQ(report.items_ingested, kLength);

  for (size_t i = 0; i < standalone.size(); ++i) {
    const std::string& name = factories[i].name();
    const Sketch* via_engine = engine->Merged(name);
    ASSERT_NE(via_engine, nullptr) << name;

    // Identical point estimates over the whole universe (same seeds, same
    // update sequence => bitwise-identical internal state).
    for (Item item = 0; item < kUniverse; ++item) {
      EXPECT_EQ(via_engine->EstimateFrequency(item),
                standalone[i]->EstimateFrequency(item))
          << name << " diverged at item " << item;
    }

    // Identical paper-metric accounting.
    EXPECT_EQ(via_engine->accountant().state_changes(),
              standalone[i]->accountant().state_changes())
        << name;
    EXPECT_EQ(via_engine->accountant().word_writes(),
              standalone[i]->accountant().word_writes())
        << name;
  }
}

TEST(SketchApi, ReportRowsMirrorEachSketchsOwnAccountant) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  std::unique_ptr<ShardedEngine> engine = SingleShard(AllFactories());
  const ShardedRunReport report = engine->Run(VectorSource(stream));

  for (const std::string& name : engine->names()) {
    const ShardedSketchReport* entry = report.Find(name);
    ASSERT_NE(entry, nullptr) << name;
    ASSERT_EQ(entry->per_shard.size(), 1u) << name;
    const SketchRunReport& row = entry->per_shard[0];
    const Sketch* sketch = engine->Merged(name);
    EXPECT_EQ(row.updates, kLength) << name;
    EXPECT_EQ(row.state_changes, sketch->accountant().state_changes())
        << name;
    EXPECT_EQ(row.word_writes, sketch->accountant().word_writes()) << name;
    EXPECT_EQ(row.word_reads, sketch->accountant().word_reads()) << name;
    EXPECT_EQ(row.peak_allocated_words,
              sketch->accountant().peak_allocated_words())
        << name;
    EXPECT_GE(row.wall_seconds, 0.0);
    // No merge at S=1: the total is the one shard's row.
    EXPECT_EQ(entry->total.state_changes, row.state_changes) << name;
    EXPECT_EQ(entry->total.word_writes, row.word_writes) << name;
  }
  EXPECT_EQ(report.Find("no_such_sketch"), nullptr);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(SketchApi, AccountantsAreIsolatedAcrossSketches) {
  // CountMin writes `depth` words on every update; SampleAndHold changes
  // state on a vanishing fraction of updates. Shared-engine runs must not
  // bleed one sketch's writes into another's accountant.
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  std::unique_ptr<ShardedEngine> engine = SingleShard(
      {SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{256},
                                   uint64_t{21}),
       SketchFactory("sample_and_hold", [] {
         return std::make_unique<SampleAndHold>(SahOptions());
       })});
  const ShardedRunReport report = engine->Run(VectorSource(stream));

  // CountMin: every update is a state change (the Theta(m) baseline).
  EXPECT_EQ(report.Find("count_min")->total.state_changes, kLength);
  EXPECT_EQ(engine->Merged("count_min")->accountant().state_changes(),
            kLength);

  // SampleAndHold: strictly fewer than the every-update baseline (at this
  // toy scale the asymptotic gap is modest), and the engine-reported
  // figure matches the sketch's own accountant.
  EXPECT_LT(report.Find("sample_and_hold")->total.state_changes, kLength);
  EXPECT_EQ(report.Find("sample_and_hold")->total.state_changes,
            engine->Merged("sample_and_hold")->accountant().state_changes());

  // Every roster sketch accounts the same alone as beside all the others.
  std::unique_ptr<ShardedEngine> shared = SingleShard(AllFactories());
  shared->Run(VectorSource(stream));
  for (const SketchFactory& factory : AllFactories()) {
    std::unique_ptr<ShardedEngine> alone = SingleShard({factory});
    alone->Run(VectorSource(stream));
    const StateAccountant& a = alone->Merged(factory.name())->accountant();
    const StateAccountant& b = shared->Merged(factory.name())->accountant();
    EXPECT_EQ(a.updates(), b.updates()) << factory.name();
    EXPECT_EQ(a.state_changes(), b.state_changes()) << factory.name();
    EXPECT_EQ(a.word_writes(), b.word_writes()) << factory.name();
    EXPECT_EQ(a.word_reads(), b.word_reads()) << factory.name();
  }
}

TEST(SketchApi, CsvRowsSanitizeCallerLabels) {
  const Stream stream = ZipfStream(kUniverse, 1.2, 2000, kSeed);

  std::unique_ptr<ShardedEngine> engine = SingleShard(
      {SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{256},
                                   uint64_t{21})});
  engine->Run(VectorSource(stream));

  // A label with a comma (or quote/newline) would shift every downstream
  // column for every scraper of the CSV block; the emitter neuters it.
  const std::string csv =
      engine->last_report().ToCsv("zipf,s=1.2\n\"x\"");
  ASSERT_FALSE(csv.empty());
  EXPECT_NE(csv.find("zipf_s=1.2__x_,count_min[shard0],"), std::string::npos);
  // Sketch names built from caller input are sanitized the same way.
  EXPECT_EQ(SketchReportCsvRow("m", "a,b\"c", SketchRunReport()).rfind("m,a_b_c,", 0),
            0u);

  // Every emitted row still has exactly the header's column count, however
  // long its label.
  const std::string long_label(700, 'L');
  const std::string long_csv = engine->last_report().ToCsv(long_label);
  EXPECT_EQ(long_csv.rfind(long_label + ",count_min[shard0],", 0), 0u);
  const std::string rows = csv + long_csv;
  const std::string header = ShardedRunReport::CsvHeader();
  const size_t header_commas = static_cast<size_t>(
      std::count(header.begin(), header.end(), ','));
  size_t start = 0;
  while (start < rows.size()) {
    size_t end = rows.find('\n', start);
    if (end == std::string::npos) end = rows.size();
    const std::string row = rows.substr(start, end - start);
    if (!row.empty()) {
      EXPECT_EQ(static_cast<size_t>(std::count(row.begin(), row.end(), ',')),
                header_commas)
          << row;
    }
    start = end + 1;
  }

  // Untouched labels pass through byte for byte.
  EXPECT_NE(
      engine->last_report().ToCsv("m=2000").find("m=2000,count_min[shard0],"),
      std::string::npos);
}

}  // namespace
}  // namespace fewstate
