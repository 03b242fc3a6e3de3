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
//                                 [checkpoint_every] [full|delta]
// (defaults: 20000000, "1,2,4,8", 0 = no checkpointing, and full; CI's
// ThreadSanitizer job passes a smaller length, and a mega-stream
// acceptance run can restrict the sweep, e.g.
// `bench_sharded_throughput 100000000 8`). A nonzero `checkpoint_every`
// enables periodic durability checkpointing: each shard serializes its
// live replicas into NVM-backed snapshots every that-many items, and the
// ckpt columns report the durability wear priced through the live
// WriteSink pipeline. `delta` switches the snapshots to delta
// checkpoints (`CheckpointPolicy::Snapshot::kDelta`): restorable sketches
// re-serialize only the words their `DirtyTracker` saw change, splitting
// the ckpt count into full/delta in the table and the `ckpt_full` /
// `ckpt_delta` CSV columns.

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
  // Each sweep point: a fresh engine over a fresh, identically-seeded
  // source (same items every run, nothing materialized, generation
  // overlapped with ingest).
  for (size_t shards : sweep) {
    ShardedEngineOptions options;
    options.shards = shards;
    options.batch_items = 8192;
    options.checkpoint_policy =
        CheckpointPolicy::EveryItems(checkpoint_every, snapshot_mode);
    options.checkpoint_nvm.config.num_cells = 1 << 16;
    ShardedEngine engine(options);
    for (const SketchFactory& f : Roster()) {
      const Status status = engine.AddSketch(f);
      if (!status.ok()) {
        std::fprintf(stderr, "AddSketch failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
    const ShardedRunReport report =
        engine.Run(ZipfSource(kFlows, 1.2, length, /*seed=*/2024));

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

  std::printf(
      "\nNote: totals aggregate every shard replica plus merge-time\n"
      "consolidation — the wear an S-device deployment pays, not one\n"
      "sketch's. items/sec covers the parallel ingest section only and\n"
      "includes on-the-fly Zipf generation in the partitioner thread.\n"
      "peak_rss_mib is the process high-water mark: flat across stream\n"
      "lengths because no stream is ever materialized.\n");
  return 0;
}
