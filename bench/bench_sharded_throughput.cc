// E-shard — sharded ingest throughput, aggregated wear, and
// constant-memory source ingestion.
//
// Sweeps the shard count S in {1, 2, 4, 8} over one Zipf workload and
// reports, per S: ingest throughput (items/sec), the aggregate
// state-change and word-write totals across all shard replicas including
// merge-time consolidation, the merge share, and the process's peak RSS.
//
// The workload is never materialized: the partitioner pulls straight from
// a lazy `ZipfSource` (`ItemSource` API), so resident memory is bounded by
// batch size * queue depth * shards — not by stream length. The final
// column makes that visible: peak RSS stays flat while the materialized
// equivalent (8 bytes/item) grows without bound; at the default 2*10^7
// items a prebuilt vector alone would be ~153 MiB, and a 10^8-item run
// (pass 100000000) would need ~763 MiB materialized yet ingests here in a
// few MiB.
//
// Usage: bench_sharded_throughput [stream_length] [shard_list]
//                                 [checkpoint_every] [full|delta] [obs]
//                                 [scalar]
// (defaults: 20000000, "1,2,4,8", 0 = no checkpointing, and full; CI's
// ThreadSanitizer job passes a smaller length, and a mega-stream
// acceptance run can restrict the sweep, e.g.
// `bench_sharded_throughput 100000000 8`). `scalar` (any argv position)
// sets `ShardedEngineOptions::force_scalar` for the sweep — the per-item
// virtual Update escape hatch, for A/B runs against the default
// UpdateBatch drain.
//
// After the sweep, an S=1 section ingests the same workload through both
// drain paths (A/B/B/A, best-of-two per mode) and emits
// `sketch,mode,items,ns_per_item,mitems_per_sec,speedup_vs_scalar` CSV
// rows: per-sketch multiples from the workers' per-sketch update walls,
// an ENGINE row over the whole ingest section (which includes on-the-fly
// Zipf generation), and a GRID_KERNELS aggregate over the hash-grid
// sketches (count_min + count_sketch) — the structures the vectorized
// batch path accelerates. Map-based space_saving and the RNG-sequential
// stable_morris ride lookups/draws that batching cannot reorder, so
// their multiples sit near 1.0 by design. A nonzero `checkpoint_every`
// enables periodic durability checkpointing: each shard serializes its
// live replicas into NVM-backed snapshots every that-many items, and the
// ckpt columns report the durability wear priced through the live
// WriteSink pipeline. `delta` switches the snapshots to delta
// checkpoints (`CheckpointPolicy::Snapshot::kDelta`): restorable sketches
// re-serialize only the words their `DirtyTracker` saw change, splitting
// the ckpt count into full/delta in the table and the `ckpt_full` /
// `ckpt_delta` CSV columns.
//
// `obs` (any argv position) enables the metrics-overhead mode: each
// sweep point runs twice — telemetry off, then with a MetricsRegistry
// and TraceRecorder attached — and an `overhead` CSV block reports the
// items/sec delta. The observability layer's budget is <3%: metering is
// thread-confined on the per-word path and drained at batch boundaries,
// so the delta should be noise.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/checkpoint_policy.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"

using namespace fewstate;

namespace {

std::vector<SketchFactory> Roster() {
  return {
      SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{2048},
                                  uint64_t{21}, false),
      SketchFactory::Of<CountSketch>("count_sketch", size_t{5}, size_t{2048},
                                     uint64_t{22}),
      SketchFactory::Of<SpaceSaving>("space_saving", size_t{1024}),
      // Morris growth 0.2: counters settle after the early phase, so the
      // sketch is genuinely write-frugal — and its delta checkpoints
      // (pass `delta` as the 4th arg) are nearly free.
      SketchFactory::Of<StableSketch>("stable_morris", 0.5, size_t{32},
                                      uint64_t{25},
                                      StableSketch::CounterMode::kMorris,
                                      0.2),
  };
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t kFlows = 50000;
  uint64_t length = 20000000;
  if (argc > 1) {
    const long long parsed = std::atoll(argv[1]);
    if (parsed > 0) length = static_cast<uint64_t>(parsed);
  }
  std::vector<size_t> sweep{1, 2, 4, 8};
  if (argc > 2) {
    sweep.clear();
    for (const char* p = argv[2]; *p != '\0';) {
      const long long s = std::atoll(p);
      if (s > 0) sweep.push_back(static_cast<size_t>(s));
      const char* comma = std::strchr(p, ',');
      if (comma == nullptr) break;
      p = comma + 1;
    }
    if (sweep.empty()) sweep = {1, 2, 4, 8};
  }
  uint64_t checkpoint_every = 0;
  if (argc > 3) {
    const long long parsed = std::atoll(argv[3]);
    if (parsed > 0) checkpoint_every = static_cast<uint64_t>(parsed);
  }
  CheckpointPolicy::Snapshot snapshot_mode = CheckpointPolicy::Snapshot::kFull;
  if (argc > 4 && std::strcmp(argv[4], "delta") == 0) {
    snapshot_mode = CheckpointPolicy::Snapshot::kDelta;
  }
  bool obs_overhead = false;
  bool force_scalar = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "obs") == 0) obs_overhead = true;
    if (std::strcmp(argv[a], "scalar") == 0) force_scalar = true;
  }

  bench::Banner(
      "E-shard bench_sharded_throughput",
      "sharded ingest scaling (§1.5 wear) on the pull-based source API",
      "hash-partitioned S-way ingest multiplies throughput and replica "
      "state; a lazy ItemSource keeps memory O(batch) at any stream length");
  std::printf("stream: %llu items over %llu flows (Zipf 1.2), generated "
              "lazily — materialized equivalent would be %.1f MiB\n\n",
              (unsigned long long)length, (unsigned long long)kFlows,
              static_cast<double>(length) * sizeof(Item) / (1024.0 * 1024.0));

  if (checkpoint_every > 0) {
    std::printf("checkpointing: every %llu items/shard (%s snapshots) onto a "
                "64k-word NVM snapshot device (durability wear in ckpt "
                "columns)\n\n",
                (unsigned long long)checkpoint_every,
                snapshot_mode == CheckpointPolicy::Snapshot::kDelta
                    ? "delta"
                    : "full");
  }

  std::printf("%2s %12s %10s %16s %16s %14s %10s %6s %6s %6s %12s %12s\n",
              "S", "items/sec", "ingest_s", "state_changes", "word_writes",
              "merge_writes", "merge_s", "ckpts", "full", "delta",
              "ckpt_writes", "peak_rss_mib");
  bench::CsvHeader(ShardedRunReport::CsvHeader());
  if (obs_overhead) {
    bench::CsvBlock("overhead,S,items_per_sec_off,items_per_sec_on,"
                    "delta_pct\n");
  }
  // One sweep point: a fresh engine over a fresh, identically-seeded
  // source (same items every run, nothing materialized, generation
  // overlapped with ingest), optionally instrumented.
  const auto run_point = [&](size_t shards, MetricsRegistry* metrics,
                             TraceRecorder* trace,
                             bool scalar_path) -> ShardedRunReport {
    ShardedEngineOptions options;
    options.shards = shards;
    options.batch_items = 8192;
    options.force_scalar = scalar_path;
    options.checkpoint_policy =
        CheckpointPolicy::EveryItems(checkpoint_every, snapshot_mode);
    options.checkpoint_nvm.config.num_cells = 1 << 16;
    options.metrics = metrics;
    options.trace = trace;
    ShardedEngine engine(options);
    for (const SketchFactory& f : Roster()) {
      const Status status = engine.AddSketch(f);
      if (!status.ok()) {
        std::fprintf(stderr, "AddSketch failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
    return engine.Run(ZipfSource(kFlows, 1.2, length, /*seed=*/2024));
  };
  for (size_t shards : sweep) {
    ShardedRunReport report = run_point(shards, nullptr, nullptr,
                                        force_scalar);
    if (obs_overhead) {
      // Telemetry-on rerun of the same point: the table row keeps the
      // instrumented figures (what an observed deployment sees), the
      // overhead CSV row carries the off/on delta.
      MetricsRegistry registry;
      TraceRecorder trace;
      const double off_ips = report.items_per_second;
      report = run_point(shards, &registry, &trace, force_scalar);
      const double on_ips = report.items_per_second;
      const double delta_pct =
          off_ips > 0 ? (off_ips - on_ips) / off_ips * 100.0 : 0.0;
      std::printf("   S=%zu metrics overhead: %.0f -> %.0f items/sec "
                  "(%+.2f%%)\n",
                  shards, off_ips, on_ips, delta_pct);
      char overhead_csv[160];
      std::snprintf(overhead_csv, sizeof(overhead_csv),
                    "overhead,%zu,%.0f,%.0f,%.2f", shards, off_ips, on_ips,
                    delta_pct);
      bench::CsvBlock(std::string(overhead_csv) + "\n");
    }

    uint64_t state_changes = 0, word_writes = 0, merge_writes = 0;
    uint64_t checkpoints = 0, full_ckpts = 0, delta_ckpts = 0;
    uint64_t checkpoint_writes = 0;
    for (const ShardedSketchReport& sk : report.sketches) {
      state_changes += sk.total.state_changes;
      word_writes += sk.total.word_writes;
      merge_writes += sk.merge.word_writes;
      checkpoints += sk.checkpoints_taken;
      full_ckpts += sk.checkpoint.full_checkpoints;
      delta_ckpts += sk.checkpoint.delta_checkpoints;
      checkpoint_writes += sk.checkpoint.word_writes;
    }
    bench::Row("%2zu %12.0f %10.4f %16llu %16llu %14llu %10.4f %6llu "
               "%6llu %6llu %12llu %12.1f",
               shards, report.items_per_second, report.ingest_seconds,
               (unsigned long long)state_changes,
               (unsigned long long)word_writes,
               (unsigned long long)merge_writes, report.merge_seconds,
               (unsigned long long)checkpoints,
               (unsigned long long)full_ckpts,
               (unsigned long long)delta_ckpts,
               (unsigned long long)checkpoint_writes, bench::PeakRssMiB());
    bench::CsvBlock(report.ToCsv("S=" + std::to_string(shards)));
  }

  // S=1 batch-vs-scalar A/B: single-shard items/sec is the throughput
  // story on one core, so this is where the batch path's multiple is
  // measured. A/B/B/A ordering with best-of-two per mode discards the
  // first pass's cold-cache / frequency-ramp penalty without handing the
  // warm slot to either mode.
  {
    bench::Section("S=1 batch vs force_scalar (same roster/stream)");
    ShardedRunReport scalar = run_point(1, nullptr, nullptr, true);
    ShardedRunReport batch = run_point(1, nullptr, nullptr, false);
    const auto keep_best = [](ShardedRunReport& best,
                              const ShardedRunReport& next) {
      if (next.ingest_seconds < best.ingest_seconds) {
        best.ingest_seconds = next.ingest_seconds;
        best.items_per_second = next.items_per_second;
      }
      for (size_t i = 0; i < best.sketches.size(); ++i) {
        best.sketches[i].total.wall_seconds =
            std::min(best.sketches[i].total.wall_seconds,
                     next.sketches[i].total.wall_seconds);
      }
    };
    keep_best(batch, run_point(1, nullptr, nullptr, false));
    keep_best(scalar, run_point(1, nullptr, nullptr, true));

    bench::CsvHeader(
        "sketch,mode,items,ns_per_item,mitems_per_sec,speedup_vs_scalar");
    const auto emit = [&](const std::string& sketch, const char* mode,
                          double wall, double speedup) {
      const double ns = wall * 1e9 / static_cast<double>(length);
      const double mitems = static_cast<double>(length) / wall / 1e6;
      bench::Row("  %-16s %-7s %8.1f ns/item  %8.2f Mitems/s  %5.2fx",
                 sketch.c_str(), mode, ns, mitems, speedup);
      bench::CsvBlock(sketch + "," + mode + "," + std::to_string(length) +
                      "," + std::to_string(ns) + "," +
                      std::to_string(mitems) + "," +
                      std::to_string(speedup) + "\n");
    };
    double grid_scalar = 0.0, grid_batch = 0.0;
    for (size_t i = 0; i < batch.sketches.size(); ++i) {
      const ShardedSketchReport& b = batch.sketches[i];
      const ShardedSketchReport& s = scalar.sketches[i];
      emit(s.name, "scalar", s.total.wall_seconds, 1.0);
      emit(b.name, "batch", b.total.wall_seconds,
           s.total.wall_seconds / b.total.wall_seconds);
      if (b.name == "count_min" || b.name == "count_sketch") {
        grid_scalar += s.total.wall_seconds;
        grid_batch += b.total.wall_seconds;
      }
    }
    emit("ENGINE", "scalar", scalar.ingest_seconds, 1.0);
    emit("ENGINE", "batch", batch.ingest_seconds,
         scalar.ingest_seconds / batch.ingest_seconds);
    emit("GRID_KERNELS", "scalar", grid_scalar, 1.0);
    emit("GRID_KERNELS", "batch", grid_batch, grid_scalar / grid_batch);
  }

  std::printf(
      "\nNote: totals aggregate every shard replica plus merge-time\n"
      "consolidation — the wear an S-device deployment pays, not one\n"
      "sketch's. items/sec covers the parallel ingest section only and\n"
      "includes on-the-fly Zipf generation in the partitioner thread.\n"
      "peak_rss_mib is the process high-water mark: flat across stream\n"
      "lengths because no stream is ever materialized.\n");
  return 0;
}
