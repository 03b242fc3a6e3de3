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

#include <algorithm>
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

// Registers the Table-1 roster into a single-shard `engine`, so the
// state-change sweep and the batch-vs-scalar throughput section run the
// identical structure set.
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

void EmitThroughputRow(const char* sketch, const char* mode, uint64_t items,
                       double wall_seconds, double speedup) {
  const double ns = wall_seconds * 1e9 / static_cast<double>(items);
  const double mitems = static_cast<double>(items) / wall_seconds / 1e6;
  bench::Row("  %-22s %-7s %8.1f ns/item  %8.2f Mitems/s  %5.2fx", sketch,
             mode, ns, mitems, speedup);
  bench::CsvBlock(std::string(sketch) + "," + mode + "," +
                  std::to_string(items) + "," + std::to_string(ns) + "," +
                  std::to_string(mitems) + "," + std::to_string(speedup) +
                  "\n");
}

// A/B section: the identical roster and stream, ingested once through the
// UpdateBatch drain (the default) and once with `force_scalar` (per-item
// virtual Update). Results are bitwise identical (the batch kernels'
// contract — pinned in tests/batch_update_test.cc); only wall time may
// differ. Per-sketch multiples come from the engine's per-sketch walls;
// the hash-grid sketches (CountMin, CountSketch) carry the speedup, while
// map-based structures (MisraGries, SpaceSaving) and the RNG-sequential
// FullSampleAndHold are bound by lookups/draws the batch path cannot
// reorder, so their multiples hover near 1.0 by construction.
void ThroughputComparison(uint64_t m) {
  bench::Section("batch vs force_scalar throughput (same roster/stream)");
  const uint64_t seed = 77000 + m;

  // One engine per mode; each ingests the identically-seeded stream twice
  // in A/B/B/A order, and each mode keeps its best (min-wall) pass. The
  // first pass of the whole section eats cold caches and frequency
  // ramp-up, and A/B/B/A hands that penalty to neither mode
  // systematically; min-of-two then discards it. The ENGINE rows use the
  // ingest wall (partitioner + the one worker), the per-sketch rows the
  // worker's per-sketch update walls.
  ShardedEngineOptions scalar_options;
  scalar_options.force_scalar = true;
  ShardedEngine scalar_engine(scalar_options);
  RegisterRoster(scalar_engine, m);
  ShardedEngine batch_engine(ShardedEngineOptions{});
  RegisterRoster(batch_engine, m);

  ShardedRunReport scalar =
      scalar_engine.Run(ZipfSource(kUniverse, 1.3, m, seed));
  ShardedRunReport batch =
      batch_engine.Run(ZipfSource(kUniverse, 1.3, m, seed));
  const auto keep_min = [](ShardedRunReport& best,
                           const ShardedRunReport& next) {
    best.ingest_seconds = std::min(best.ingest_seconds, next.ingest_seconds);
    for (size_t i = 0; i < best.sketches.size(); ++i) {
      double& wall = best.sketches[i].per_shard[0].wall_seconds;
      wall = std::min(wall, next.sketches[i].per_shard[0].wall_seconds);
    }
  };
  keep_min(batch, batch_engine.Run(ZipfSource(kUniverse, 1.3, m, seed)));
  keep_min(scalar, scalar_engine.Run(ZipfSource(kUniverse, 1.3, m, seed)));

  bench::CsvHeader(
      "sketch,mode,items,ns_per_item,mitems_per_sec,speedup_vs_scalar");
  double grid_scalar = 0.0, grid_batch = 0.0;
  for (size_t i = 0; i < batch.sketches.size(); ++i) {
    const SketchRunReport& b = batch.sketches[i].per_shard[0];
    const SketchRunReport& s = scalar.sketches[i].per_shard[0];
    EmitThroughputRow(s.name.c_str(), "scalar", m, s.wall_seconds, 1.0);
    EmitThroughputRow(b.name.c_str(), "batch", m, b.wall_seconds,
                      s.wall_seconds / b.wall_seconds);
    if (b.name.rfind("CountMin", 0) == 0 ||
        b.name.rfind("CountSketch", 0) == 0) {
      grid_scalar += s.wall_seconds;
      grid_batch += b.wall_seconds;
    }
  }
  // Whole-engine items/sec (all five sketches' updates per item).
  EmitThroughputRow("ENGINE", "scalar", m, scalar.ingest_seconds, 1.0);
  EmitThroughputRow("ENGINE", "batch", m, batch.ingest_seconds,
                    scalar.ingest_seconds / batch.ingest_seconds);
  // The headline batch-path multiple: the sketches whose update is
  // hashing + row arithmetic, i.e. what the vectorized path accelerates.
  EmitThroughputRow("GRID_KERNELS", "scalar", m, grid_scalar, 1.0);
  EmitThroughputRow("GRID_KERNELS", "batch", m, grid_batch,
                    grid_scalar / grid_batch);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner(
      "E1 bench_table1", "Table 1 (state-change comparison)",
      "MG/CM/SS/CS make O(m) state changes; this work makes Otilde(n^{1-1/p})");

  const uint64_t n = kUniverse;
  const double kEps = 0.3;  // L2 heavy hitter threshold
  // Optional sweep cap (default: the full 3e7 sweep). CI's perf-smoke job
  // passes a small cap so the artefact run finishes in seconds.
  uint64_t max_m = 30000000ULL;
  if (argc > 1) max_m = std::strtoull(argv[1], nullptr, 10);
  std::printf("%-22s %-12s %10s %14s %10s %8s %10s\n", "algorithm",
              "guarantee", "m", "state_changes", "chg/m", "recall",
              "rss_mib");
  bench::CsvHeader(ShardedRunReport::CsvHeader());

  uint64_t throughput_m = 0;
  for (uint64_t m : {100000ULL, 300000ULL, 1000000ULL, 3000000ULL,
                     30000000ULL}) {
    if (m > max_m) continue;
    throughput_m = m;
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

  // Capped at 3e6 items: at ~5 sketch updates/item the A/B pair already
  // runs multi-second there, and the multiple is stable by that length.
  if (throughput_m > 0) {
    ThroughputComparison(std::min<uint64_t>(throughput_m, 3000000ULL));
  }
  return 0;
}
