// Quickstart: estimate F2 and the L2 heavy hitters of a skewed stream and
// compare the number of memory writes against CountMin — ingesting from a
// pull-based ItemSource instead of a prebuilt vector.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "baselines/count_min.h"
#include "core/fp_estimator.h"
#include "core/heavy_hitters.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"
#include "stream/stream_stats.h"

int main() {
  using namespace fewstate;

  // A Zipf(1.3) workload: 1M updates over a universe of 10k flows. The
  // few-state-change advantage needs m >> n^{1-1/p} log(nm) / eps^2, so a
  // long stream over a modest universe is the natural regime (think flows
  // through a router).
  //
  // The engine pulls from a lazy GeneratorSource — the ROADMAP's
  // "async ingest" shape: items are drawn on demand (here from a Zipf
  // sampler, in production from a socket or log tailer behind the same
  // ItemSource interface), so memory stays O(batch) no matter how long the
  // stream runs. Nothing below materializes the 1M items.
  const uint64_t n = 10000, m = 1000000;

  // Ground truth for the printout: one extra pass of an identically-seeded
  // source through the exact oracle (O(distinct) memory, not O(m)).
  StreamStats oracle{ZipfSource(n, 1.3, m, /*seed=*/42)};

  // --- Few-state-change L2 heavy hitters (paper Theorem 1.1). ---
  HeavyHittersOptions hh_options;
  hh_options.universe = n;
  hh_options.stream_length_hint = m;
  hh_options.p = 2.0;
  hh_options.eps = 0.25;
  hh_options.seed = 1;
  // --- Classic baseline: CountMin writes on every update. ---
  // Both sketches ride one pass of a single-shard engine over the source;
  // the report carries each sketch's isolated state-change and word-write
  // totals.
  ShardedEngine engine(ShardedEngineOptions{});
  for (const SketchFactory& factory :
       {SketchFactory("lp_heavy_hitters",
                      [hh_options] {
                        return std::make_unique<LpHeavyHitters>(hh_options);
                      }),
        SketchFactory::Of<CountMin>("count_min", /*depth=*/size_t{4},
                                    /*width=*/size_t{2048},
                                    /*seed=*/uint64_t{2})}) {
    if (!engine.AddSketch(factory).ok()) return 1;
  }
  const ShardedRunReport report =
      engine.Run(ZipfSource(n, 1.3, m, /*seed=*/42));
  const auto& hh =
      *static_cast<const LpHeavyHitters*>(engine.Merged("lp_heavy_hitters"));

  std::printf("stream: m=%llu updates pulled from a lazy source, "
              "universe n=%llu\n",
              (unsigned long long)report.items_ingested,
              (unsigned long long)n);
  std::printf("exact F2          = %.3e\n", oracle.Fp(2.0));
  std::printf("estimated ||f||_2 = %.3e (exact %.3e)\n", hh.EstimateLpNorm(),
              oracle.Lp(2.0));

  std::printf("\ntop heavy hitters (estimate vs exact):\n");
  int shown = 0;
  for (const HeavyHitter& item : hh.HeavyHitters()) {
    std::printf("  item %6llu  est %8.0f  exact %8llu\n",
                (unsigned long long)item.item, item.estimate,
                (unsigned long long)oracle.Frequency(item.item));
    if (++shown >= 8) break;
  }

  std::printf("\nstate changes (paper metric, writes to memory):\n");
  for (const ShardedSketchReport& row : report.sketches) {
    std::printf("  %-16s : %10llu  (%.2f%% of updates)\n", row.name.c_str(),
                (unsigned long long)row.total.state_changes,
                100.0 * row.total.state_changes / (double)m);
  }
  return 0;
}
