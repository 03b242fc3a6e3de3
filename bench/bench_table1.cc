// E1 — reproduces Table 1: state changes of classic heavy-hitter
// structures (Misra-Gries, CountMin, SpaceSaving: O(m), L1 only;
// CountSketch: O(m), L2) against this paper's FullSampleAndHold
// (Otilde(n^{1-1/p}), L2 which includes L1).
//
// All five structures ride one single-shard `ShardedEngine` pass per
// stream length,
// ingesting from a lazy `ZipfSource` (`ItemSource` API): the stream is
// never materialized, so memory stays O(universe) however long m grows —
// which is exactly the regime the table is about (m >> n). The ground
// truth comes from a second, identically-seeded source pass through the
// `StreamStats` oracle (O(distinct) memory). The last sweep point is 10x
// the largest materialized run this bench used to do; peak RSS is printed
// per sweep point to show it flat.
//
// The table prints, for a sweep of stream lengths m over a fixed universe,
// the paper-metric state-change count of each algorithm and its ratio to
// m. Baselines stay pinned at ratio 1.0; the sample-and-hold structure's
// ratio falls as m grows because its writes scale with the universe, not
// the stream.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "bench_util.h"
#include "core/full_sample_and_hold.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"
#include "stream/stream_stats.h"

using namespace fewstate;

namespace {

struct Row {
  const char* name;
  const char* guarantee;
  std::vector<HeavyHitter> reported;
};

double Recall(const std::vector<HeavyHitter>& reported,
              const std::vector<Item>& truth) {
  if (truth.empty()) return 1.0;
  size_t hits = 0;
  for (Item t : truth) {
    for (const HeavyHitter& hh : reported) {
      if (hh.item == t) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

constexpr uint64_t kUniverse = 20000;

// Registers the Table-1 roster into a single-shard `engine`.
void RegisterRoster(ShardedEngine& engine, uint64_t stream_length_hint) {
  FullSampleAndHoldOptions fsh_options;
  fsh_options.universe = kUniverse;
  fsh_options.stream_length_hint = stream_length_hint;
  fsh_options.p = 2.0;
  fsh_options.eps = 0.3;
  fsh_options.seed = 4;
  for (const SketchFactory& factory :
       {SketchFactory::Of<MisraGries>("MisraGries[MG82]", size_t{1000}),
        SketchFactory::Of<CountMin>("CountMin[CM05]", size_t{4}, size_t{2048},
                                    uint64_t{2}),
        SketchFactory::Of<SpaceSaving>("SpaceSaving[MAA05]", size_t{1000}),
        SketchFactory::Of<CountSketch>("CountSketch[CCF04]", size_t{5},
                                       size_t{2048}, uint64_t{3}),
        SketchFactory("FullSampleAndHold", [fsh_options] {
          return std::make_unique<FullSampleAndHold>(fsh_options);
        })}) {
    const Status status = engine.AddSketch(factory);
    if (!status.ok()) {
      std::fprintf(stderr, "AddSketch failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner(
      "E1 bench_table1", "Table 1 (state-change comparison)",
      "MG/CM/SS/CS make O(m) state changes; this work makes Otilde(n^{1-1/p})");

  const uint64_t n = kUniverse;
  const double kEps = 0.3;  // L2 heavy hitter threshold
  // Optional sweep cap (default: the full 3e7 sweep); a small cap makes a
  // smoke run finish in seconds.
  uint64_t max_m = 30000000ULL;
  if (argc > 1) max_m = std::strtoull(argv[1], nullptr, 10);
  std::printf("%-22s %-12s %10s %14s %10s %8s %10s\n", "algorithm",
              "guarantee", "m", "state_changes", "chg/m", "recall",
              "rss_mib");
  bench::CsvHeader(ShardedRunReport::CsvHeader());

  for (uint64_t m : {100000ULL, 300000ULL, 1000000ULL, 3000000ULL,
                     30000000ULL}) {
    if (m > max_m) continue;
    const uint64_t seed = 1000 + m;
    // Exact frequencies from one lazy pass: O(n) memory, not O(m).
    StreamStats oracle{ZipfSource(n, 1.3, m, seed)};
    const std::vector<Item> truth = oracle.LpHeavyHitters(2.0, kEps);
    const double l2 = oracle.Lp(2.0);
    const double threshold = 0.5 * kEps * l2;

    ShardedEngine engine(ShardedEngineOptions{});
    RegisterRoster(engine, m);

    // A second identically-seeded source: the engine sees the exact items
    // the oracle counted, with nothing materialized in between.
    const ShardedRunReport report = engine.Run(ZipfSource(n, 1.3, m, seed));
    auto* mg = static_cast<MisraGries*>(engine.Merged("MisraGries[MG82]"));
    auto* cm = static_cast<CountMin*>(engine.Merged("CountMin[CM05]"));
    auto* ss = static_cast<SpaceSaving*>(engine.Merged("SpaceSaving[MAA05]"));
    auto* cs = static_cast<CountSketch*>(engine.Merged("CountSketch[CCF04]"));
    auto* fsh =
        static_cast<FullSampleAndHold*>(engine.Merged("FullSampleAndHold"));

    const Row rows[] = {
        {"MisraGries[MG82]", "L1 only", mg->HeavyHitters(threshold)},
        {"CountMin[CM05]", "L1 only", cm->HeavyHittersByScan(n, threshold)},
        {"SpaceSaving[MAA05]", "L1 only", ss->HeavyHitters(threshold)},
        {"CountSketch[CCF04]", "L2", cs->HeavyHittersByScan(n, threshold)},
        {"FullSampleAndHold", "L2 (ours)", fsh->TrackedItemsAbove(threshold)},
    };
    for (const Row& row : rows) {
      const uint64_t changes = report.Find(row.name)->total.state_changes;
      std::printf("%-22s %-12s %10" PRIu64 " %14" PRIu64
                  " %10.4f %8.2f %10.1f\n",
                  row.name, row.guarantee, m, changes,
                  static_cast<double>(changes) / static_cast<double>(m),
                  Recall(row.reported, truth), bench::PeakRssMiB());
    }
    // One row per sketch: at S=1 the shard row is the whole run.
    std::string csv;
    for (const ShardedSketchReport& s : report.sketches) {
      csv += SketchReportCsvRow("m=" + std::to_string(m), s.name,
                                s.per_shard[0]);
      csv += '\n';
    }
    bench::CsvBlock(csv);
    std::printf("\n");
  }
  return 0;
}
