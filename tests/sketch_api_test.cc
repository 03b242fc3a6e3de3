// The unified Sketch/StreamEngine API layer: driving a sketch through a
// StreamEngine must be observationally identical to running it standalone
// (same estimates, same state-change totals), and per-sketch accountants
// must stay isolated when many sketches share one engine pass.

#include "api/stream_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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
#include "core/full_sample_and_hold.h"
#include "core/heavy_hitters.h"
#include "core/sample_and_hold.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kUniverse = 500;
constexpr uint64_t kLength = 5000;
constexpr uint64_t kSeed = 7;

struct SketchFactory {
  std::string name;
  std::function<std::unique_ptr<Sketch>()> make;
};

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

// One factory per Sketch implementation in the library's core + Table 1
// baselines. Each call builds an identically-seeded fresh instance, so
// standalone and engine-driven copies are exact replicas.
std::vector<SketchFactory> AllFactories() {
  return {
      {"sample_and_hold",
       [] { return std::make_unique<SampleAndHold>(SahOptions()); }},
      {"full_sample_and_hold",
       [] { return std::make_unique<FullSampleAndHold>(FsahOptions()); }},
      {"lp_heavy_hitters",
       [] { return std::make_unique<LpHeavyHitters>(HhOptions()); }},
      {"misra_gries", [] { return std::make_unique<MisraGries>(32); }},
      {"space_saving", [] { return std::make_unique<SpaceSaving>(32); }},
      {"count_min",
       [] { return std::make_unique<CountMin>(4, 256, /*seed=*/21); }},
      {"count_sketch",
       [] { return std::make_unique<CountSketch>(5, 256, /*seed=*/22); }},
      {"ams_sketch",
       [] { return std::make_unique<AmsSketch>(5, 64, /*seed=*/23); }},
      {"stable_sketch",
       [] {
         return std::make_unique<StableSketch>(
             0.5, 32, /*seed=*/24, StableSketch::CounterMode::kMorris);
       }},
  };
}

TEST(SketchApi, EngineMatchesStandaloneForEveryImplementation) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  StreamEngine engine;
  std::vector<std::unique_ptr<Sketch>> standalone;
  std::vector<std::string> names;
  for (const SketchFactory& factory : AllFactories()) {
    engine.Register(factory.name, factory.make());
    standalone.push_back(factory.make());
    names.push_back(factory.name);
  }

  for (const auto& sketch : standalone) sketch->Consume(stream);
  const RunReport report = engine.Run(VectorSource(stream));
  ASSERT_EQ(report.sketches.size(), standalone.size());
  EXPECT_EQ(report.items_ingested, kLength);

  for (size_t i = 0; i < standalone.size(); ++i) {
    const Sketch* via_engine = engine.Find(names[i]);
    ASSERT_NE(via_engine, nullptr) << names[i];

    // Identical point estimates over the whole universe (same seeds, same
    // update sequence => bitwise-identical internal state).
    for (Item item = 0; item < kUniverse; ++item) {
      EXPECT_EQ(via_engine->EstimateFrequency(item),
                standalone[i]->EstimateFrequency(item))
          << names[i] << " diverged at item " << item;
    }

    // Identical paper-metric accounting.
    EXPECT_EQ(via_engine->accountant().state_changes(),
              standalone[i]->accountant().state_changes())
        << names[i];
    EXPECT_EQ(via_engine->accountant().word_writes(),
              standalone[i]->accountant().word_writes())
        << names[i];
  }
}

TEST(SketchApi, ReportRowsMirrorEachSketchsOwnAccountant) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  StreamEngine engine;
  for (const SketchFactory& factory : AllFactories()) {
    engine.Register(factory.name, factory.make());
  }
  const RunReport report = engine.Run(VectorSource(stream));

  for (const std::string& name : engine.names()) {
    const SketchRunReport* row = report.Find(name);
    ASSERT_NE(row, nullptr) << name;
    const Sketch* sketch = engine.Find(name);
    EXPECT_EQ(row->updates, kLength) << name;
    EXPECT_EQ(row->state_changes, sketch->accountant().state_changes())
        << name;
    EXPECT_EQ(row->word_writes, sketch->accountant().word_writes()) << name;
    EXPECT_GE(row->wall_seconds, 0.0);
  }
  EXPECT_EQ(report.Find("no_such_sketch"), nullptr);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(SketchApi, AccountantsAreIsolatedAcrossSketches) {
  // CountMin writes `depth` words on every update; SampleAndHold changes
  // state on a vanishing fraction of updates. Shared-engine runs must not
  // bleed one sketch's writes into another's accountant.
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  StreamEngine engine;
  Sketch* cm = engine.Register(
      "count_min", std::make_unique<CountMin>(4, 256, /*seed=*/21));
  Sketch* sah =
      engine.Register("sample_and_hold",
                      std::make_unique<SampleAndHold>(SahOptions()));
  const RunReport report = engine.Run(VectorSource(stream));

  // CountMin: every update is a state change (the Theta(m) baseline).
  EXPECT_EQ(report.Find("count_min")->state_changes, kLength);
  EXPECT_EQ(cm->accountant().state_changes(), kLength);

  // SampleAndHold: strictly fewer than the every-update baseline (at this
  // toy scale the asymptotic gap is modest), and the engine-reported
  // figure matches the sketch's own accountant.
  EXPECT_LT(report.Find("sample_and_hold")->state_changes, kLength);
  EXPECT_EQ(report.Find("sample_and_hold")->state_changes,
            sah->accountant().state_changes());
}

TEST(SketchApi, RepeatedRunsReportPerRunDeltas) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  StreamEngine engine;
  engine.Register("count_min",
                  std::make_unique<CountMin>(4, 256, /*seed=*/21));
  const RunReport first = engine.Run(VectorSource(stream));
  const RunReport second = engine.Run(VectorSource(stream));

  // Totals accumulate on the sketch, but each report carries only the
  // deltas of its own pass.
  EXPECT_EQ(first.Find("count_min")->state_changes, kLength);
  EXPECT_EQ(second.Find("count_min")->state_changes, kLength);
  EXPECT_EQ(engine.Find("count_min")->accountant().state_changes(),
            2 * kLength);
  EXPECT_EQ(engine.last_report().Find("count_min")->state_changes, kLength);
}

TEST(SketchApi, CsvRowsSanitizeCallerLabels) {
  const Stream stream = ZipfStream(kUniverse, 1.2, 2000, kSeed);

  StreamEngine engine;
  engine.Register("count_min",
                  std::make_unique<CountMin>(4, 256, /*seed=*/21));
  engine.Run(VectorSource(stream));

  // A label with a comma (or quote/newline) would shift every downstream
  // column for every scraper of the CSV block; the emitter neuters it.
  const std::string csv =
      engine.last_report().ToCsv("zipf,s=1.2\n\"x\"");
  ASSERT_FALSE(csv.empty());
  EXPECT_NE(csv.find("zipf_s=1.2__x_,count_min,"), std::string::npos);

  // Every emitted row still has exactly the header's column count.
  const std::string header = RunReport::CsvHeader();
  const size_t header_commas = static_cast<size_t>(
      std::count(header.begin(), header.end(), ','));
  size_t start = 0;
  while (start < csv.size()) {
    size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    const std::string row = csv.substr(start, end - start);
    if (!row.empty()) {
      EXPECT_EQ(static_cast<size_t>(std::count(row.begin(), row.end(), ',')),
                header_commas)
          << row;
    }
    start = end + 1;
  }

  // Untouched labels pass through byte for byte.
  EXPECT_NE(engine.last_report().ToCsv("m=2000").find("m=2000,count_min,"),
            std::string::npos);
}

TEST(SketchApi, BorrowedSketchesAreDrivenInPlace) {
  const Stream stream = ZipfStream(kUniverse, 1.2, kLength, kSeed);

  MisraGries caller_owned(32);
  StreamEngine engine;
  engine.RegisterBorrowed("misra_gries", &caller_owned);
  engine.Run(VectorSource(stream));

  MisraGries reference(32);
  reference.Consume(stream);
  for (Item item = 0; item < kUniverse; ++item) {
    EXPECT_EQ(caller_owned.EstimateFrequency(item),
              reference.EstimateFrequency(item));
  }
}

}  // namespace
}  // namespace fewstate
