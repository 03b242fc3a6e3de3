// E10 — reproduces the §1.1 motivation quantities: each algorithm's state
// writes are priced on the simulated NVM device *as they happen* (the
// live WriteSink pipeline), yielding energy, wear and projected device
// lifetime under asymmetric read/write costs.
//
// State-change-frugal algorithms should show an order-of-magnitude
// advantage in writes (hence lifetime) over the always-write baselines,
// under every wear-leveling policy.
//
// Default mode drives each algorithm once through a TeeSink feeding three
// live devices (one per policy) plus a bounded WriteLog, and prints a
// log+replay cross-check row — identical to the live "direct" row, which
// is the pipeline's core invariant.
//
// Live mode (`bench_nvm_wear --live [items]`, default 10^8) is the scale
// the log-based path cannot reach: the stream is generated lazily, every
// write lands on the device as it happens (O(device) memory, zero drops),
// while a 2^22-capacity WriteLog teed into the same pass drops >95% of
// its records — the wear its replay reports is a severe underestimate.
// The peak-RSS column shows the live path's footprint stays flat.
//
// Checkpoint mode (`bench_nvm_wear --checkpoint [items] [every] [cache]`,
// defaults 410000 and 20000) prices durability: each sketch runs once with
// full snapshots and once with delta checkpoints at the same frequency, and
// the `[checkpoint]` CSV rows show delta wear tracking *state change*
// instead of state size — nearly free for the write-frugal Morris-mode
// stable sketch, and (the paper's point, seen from the durability side) no
// help at all for the always-write baselines. Each delta run then ends with
// a simulated crash: the replica is rebuilt from its last delta checkpoint
// plus the trace tail, and the `[recover:*]` rows price the rebuild. With
// the trailing `cache` argument every run repeats with a DRAM write-back
// cache on the checkpoint device, next to its uncached control row.
//
// Cache mode (`bench_nvm_wear --cache [items]`, default 200000) answers
// the hardware counter-argument to the paper's thesis: could a small DRAM
// write-back buffer absorb the always-write baselines' traffic
// architecturally? The sweep prices every sketch behind caches of growing
// size (0 = the uncached control, bitwise-identical to the default path)
// across Zipf skews and reports the absorbed-write fraction.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/item_source.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "bench_util.h"
#include "core/full_sample_and_hold.h"
#include "nvm/live_sink.h"
#include "recover/checkpoint_policy.h"
#include "recover/recovery.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"

using namespace fewstate;

namespace {

NvmConfig BenchConfig() {
  NvmConfig config;
  config.num_cells = 1 << 16;
  config.endurance = 1000000;  // shrunk so lifetimes are finite in-run
  return config;
}

NvmSpec SpecFor(NvmSpec::Leveling leveling) {
  NvmSpec spec;
  spec.config = BenchConfig();
  spec.leveling = leveling;
  spec.rotate_period = 64;
  spec.hash_seed = 5;
  return spec;
}

void PrintRow(const char* name, const char* policy,
              const NvmReplayReport& report) {
  std::printf("%-22s %-12s %12" PRIu64 " %12" PRIu64 " %10" PRIu64
              " %12.1f %14.3e %9" PRIu64 "\n",
              name, policy, report.writes_replayed, report.reads_replayed,
              report.max_cell_wear, report.wear_imbalance,
              report.projected_stream_replays_to_failure,
              report.dropped_writes);
}

// One pass, four sinks: three live devices (one per policy) and a log for
// the replay cross-check. Exercises TeeSink exactly as deployments would.
template <typename Alg>
void RunDefaultCase(const char* name, Alg& alg, const Stream& stream) {
  LiveNvmSink direct(SpecFor(NvmSpec::Leveling::kDirect));
  LiveNvmSink rotate(SpecFor(NvmSpec::Leveling::kRotating));
  LiveNvmSink hashed(SpecFor(NvmSpec::Leveling::kHashed));
  WriteLog log(1ULL << 24);
  TeeSink tee({&direct, &rotate, &hashed, &log});
  alg.mutable_accountant()->set_write_sink(&tee);
  alg.Drain(VectorSource(stream));

  PrintRow(name, "direct", direct.Report());
  PrintRow(name, "rotate", rotate.Report());
  PrintRow(name, "hashed", hashed.Report());

  PrintRow(name, "log+replay",
           ReplayOnNvm(log, alg.accountant(),
                       SpecFor(NvmSpec::Leveling::kDirect)));
}

int RunDefault() {
  bench::Banner("E10 bench_nvm_wear", "§1.1 motivation (NVM wear/energy)",
                "fewer state changes => longer device lifetime and less "
                "write energy on asymmetric-cost memory");

  const uint64_t n = 10000;
  const uint64_t m = 200000;
  const Stream stream = ZipfStream(n, 1.3, m, /*seed=*/55);

  std::printf("%-22s %-12s %12s %12s %10s %12s %14s %9s\n", "algorithm",
              "policy", "writes", "reads", "max_wear", "imbalance",
              "replays_to_eol", "dropped");

  {
    CountMin alg(4, 2048, 2);
    RunDefaultCase("CountMin[CM05]", alg, stream);
  }
  {
    CountSketch alg(4, 2048, 3);
    RunDefaultCase("CountSketch[CCF04]", alg, stream);
  }
  {
    SpaceSaving alg(1024);
    RunDefaultCase("SpaceSaving[MAA05]", alg, stream);
  }
  {
    FullSampleAndHoldOptions options;
    options.universe = n;
    options.stream_length_hint = m;
    options.p = 2.0;
    options.eps = 0.3;
    options.seed = 4;
    FullSampleAndHold alg(options);
    RunDefaultCase("FullSampleAndHold", alg, stream);
  }

  std::printf("\nenergy model: writes cost 10x reads (PCM-like); lifetime = "
              "endurance / max cell wear.\nthe log+replay rows equal the "
              "live direct rows bit for bit — one costing core.\n");
  return 0;
}

// Live mode: wear at a stream length the recorded log cannot hold.
template <typename Alg>
void RunLiveCase(const char* name, Alg& alg, uint64_t items,
                 uint64_t flows) {
  LiveNvmSink live(SpecFor(NvmSpec::Leveling::kDirect));
  WriteLog log;  // default 2^22 capacity — the old offline path's budget
  TeeSink tee({&live, &log});
  alg.mutable_accountant()->set_write_sink(&tee);
  alg.Drain(ZipfSource(flows, 1.2, items, /*seed=*/77));

  const NvmReplayReport exact = live.Report();
  const NvmReplayReport truncated = ReplayOnNvm(
      log, alg.accountant(), SpecFor(NvmSpec::Leveling::kDirect));

  const double dropped_pct =
      alg.accountant().word_writes() == 0
          ? 0.0
          : 100.0 * static_cast<double>(truncated.dropped_writes) /
                static_cast<double>(alg.accountant().word_writes());
  std::printf("%-20s %11" PRIu64 " %13" PRIu64 " %9" PRIu64 " %13" PRIu64
              " %9.1f%% %13" PRIu64 " %12.1f\n",
              name, items, exact.writes_replayed, exact.max_cell_wear,
              truncated.max_cell_wear, dropped_pct, exact.dropped_writes,
              bench::PeakRssMiB());
}

int RunLive(uint64_t items) {
  bench::Banner(
      "E10 bench_nvm_wear --live",
      "exact wear on streams past WriteLog capacity (live WriteSink)",
      "the live device prices every write at 10^8 items in O(device) "
      "memory; the 2^22-entry log drops >95% and under-reports max wear");

  const uint64_t flows = 100000;
  std::printf("stream: %" PRIu64 " items over %" PRIu64
              " flows (Zipf 1.2), generated lazily\n\n",
              items, flows);
  std::printf("%-20s %11s %13s %9s %13s %10s %13s %12s\n", "algorithm",
              "items", "live_writes", "live_wear", "replay_wear",
              "dropped", "live_dropped", "peak_rss_mib");

  {
    CountMin alg(4, 2048, 2);
    RunLiveCase("CountMin[CM05]", alg, items, flows);
  }
  {
    FullSampleAndHoldOptions options;
    options.universe = flows;
    options.stream_length_hint = items;
    options.p = 2.0;
    options.eps = 0.3;
    options.seed = 4;
    FullSampleAndHold alg(options);
    RunLiveCase("FullSampleAndHold", alg, items, flows);
  }

  std::printf("\nreading: replay_wear < live_wear wherever dropped > 0 — "
              "the offline path's numbers are underestimates at this "
              "scale.\nlive_dropped is always 0: the live sink never "
              "drops. peak RSS stays flat at any stream length.\n");
  return 0;
}

// Checkpoint mode: durability wear under full vs delta snapshots at equal
// frequency, plus the cost of crash recovery from the last delta
// checkpoint.

std::vector<SketchFactory> CheckpointRoster() {
  return {
      SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{2048},
                                  uint64_t{2}, false),
      SketchFactory::Of<MisraGries>("misra_gries", size_t{1024}),
      // Morris growth 0.2: the counters settle, so checkpoint intervals
      // see few distinct word changes — the write-frugal regime.
      SketchFactory::Of<StableSketch>("stable_morris", 0.5, size_t{32},
                                      uint64_t{25},
                                      StableSketch::CounterMode::kMorris,
                                      0.2),
  };
}

// A 4 KiB-of-words direct-mapped-device cache: 16 sets x 4 ways x 8-word
// lines = 512 words. Small against the sketch tables, so only genuinely
// reusable write regions are absorbed.
CacheSpec CheckpointCache() {
  CacheSpec cache;
  cache.sets = 16;
  cache.ways = 4;
  cache.line_words = 8;
  return cache;
}

std::unique_ptr<ShardedEngine> MakeCheckpointEngine(
    const SketchFactory& factory, const CheckpointPolicy& policy,
    const CacheSpec& ckpt_cache) {
  ShardedEngineOptions options;
  options.shards = 1;
  options.batch_items = 4096;
  options.checkpoint_policy = policy;
  options.checkpoint_nvm = SpecFor(NvmSpec::Leveling::kDirect);
  options.checkpoint_nvm.cache = ckpt_cache;
  auto engine = std::make_unique<ShardedEngine>(options);
  const Status status = engine->AddSketch(factory);
  if (!status.ok()) {
    std::fprintf(stderr, "AddSketch failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  return engine;
}

// Any trace-source failure (bad path, truncated file, read error) is
// fatal — a zero-item "successful" bench run is worse than no run.
void DieUnlessClean(const ItemSource& trace) {
  const Status status = trace.status();
  if (!status.ok()) {
    std::fprintf(stderr, "bench_nvm_wear: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

int RunCheckpoint(uint64_t items, uint64_t every, bool with_cache) {
  bench::Banner(
      "E10 bench_nvm_wear --checkpoint",
      "durability wear: delta checkpoints vs full snapshots + recovery cost",
      "delta checkpoint wear tracks state *change*, so the few-state-change "
      "algorithms checkpoint almost for free; full snapshots pay state size "
      "every time");
  const uint64_t flows = 100000;

  // Capture the workload to a binary trace and replay it from disk — the
  // deployment shape (a monitor ingests a captured trace, and recovery
  // replays the same trace's tail), and the path where a typo'd file name
  // or truncated capture must fail loudly instead of running on zero
  // items.
  const std::string trace_path = "/tmp/fewstate_nvm_wear_ckpt.u64";
  {
    const Status written =
        WriteTrace(trace_path, Materialize(ZipfSource(flows, 1.2, items,
                                                      /*seed=*/55)));
    if (!written.ok()) {
      std::fprintf(stderr, "bench_nvm_wear: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }

  std::printf("stream: %" PRIu64 " items over %" PRIu64
              " flows (Zipf 1.2), replayed from %s; checkpoint every %" PRIu64
              " items; S=1; direct-mapped checkpoint device\n\n",
              items, flows, trace_path.c_str(), every);
  std::printf("%-18s %-6s %6s %6s %6s %14s %14s %10s\n", "sketch", "mode",
              "ckpts", "full", "delta", "ckpt_writes", "ckpt_max_wear",
              "ckpt_eol");
  bench::CsvHeader(ShardedRunReport::CsvHeader());

  for (const SketchFactory& factory : CheckpointRoster()) {
    std::unique_ptr<ShardedEngine> delta_engine;
    uint64_t full_writes = 0, delta_writes = 0;
    for (int use_delta = 0; use_delta < 2; ++use_delta) {
      const CheckpointPolicy policy = CheckpointPolicy::EveryItems(
          every, use_delta ? CheckpointPolicy::Snapshot::kDelta
                           : CheckpointPolicy::Snapshot::kFull);
      // The uncached control always runs (and always prints first) so a
      // cached wear figure is never reported without its baseline.
      const int variants = with_cache ? 2 : 1;
      for (int cached = 0; cached < variants; ++cached) {
        const CacheSpec ckpt_cache =
            cached != 0 ? CheckpointCache() : CacheSpec{};
        std::unique_ptr<ShardedEngine> engine =
            MakeCheckpointEngine(factory, policy, ckpt_cache);
        FileSource trace(trace_path);
        DieUnlessClean(trace);
        const ShardedRunReport report = engine->Run(trace);
        DieUnlessClean(trace);
        const ShardedSketchReport* row = report.Find(factory.name());
        std::printf("%-18s %-6s %6" PRIu64 " %6" PRIu64 " %6" PRIu64
                    " %14" PRIu64 " %14" PRIu64 " %10.4g",
                    factory.name().c_str(), policy.snapshot_name(),
                    row->checkpoints_taken, row->checkpoint.full_checkpoints,
                    row->checkpoint.delta_checkpoints,
                    row->checkpoint.word_writes,
                    row->checkpoint.nvm.max_cell_wear,
                    row->checkpoint.nvm.projected_stream_replays_to_failure);
        std::string label = std::string("ckpt=") + policy.snapshot_name() +
                            "/every=" + std::to_string(every);
        if (cached != 0) {
          const CacheStats& c = row->checkpoint.nvm.cache;
          std::printf("  [cache=%" PRIu64 "w absorbed=%" PRIu64
                      " writebacks=%" PRIu64 "]",
                      ckpt_cache.capacity_words(), c.absorbed_writes,
                      c.writebacks);
          label += "/cache=" + std::to_string(ckpt_cache.capacity_words());
        }
        std::printf("\n");
        bench::CsvBlock(report.ToCsv(label));
        if (cached + 1 < variants) continue;  // recover from the last run
        if (use_delta) {
          delta_writes = row->checkpoint.word_writes;
          delta_engine = std::move(engine);  // keep for recovery below
        } else {
          full_writes = row->checkpoint.word_writes;
        }
      }
    }
    std::printf("%-18s delta/full checkpoint write ratio: %.3f\n",
                "", full_writes == 0
                        ? 0.0
                        : static_cast<double>(delta_writes) /
                              static_cast<double>(full_writes));

    // Crash after the delta run: rebuild from the last delta checkpoint
    // plus the regenerated trace tail, pricing snapshot reads on the
    // checkpoint device and rebuild writes on a fresh replica device.
    const Sketch* snapshot = delta_engine->Snapshot(0, factory.name());
    if (snapshot == nullptr) {  // stream shorter than one interval
      std::printf("%-18s recovery: no checkpoint was taken (items < every);"
                  " a crash would need a full-trace replay\n\n", "");
      continue;
    }
    const ShardedSketchReport* row =
        delta_engine->last_report().Find(factory.name());
    const uint64_t cut = row->last_checkpoint_items[0];
    // Recovery replays the captured trace's tail, exactly as a real
    // rebuild would — through a checked FileSource, so a trace that went
    // missing or got truncated between the run and the crash is an error,
    // not a silently short replay.
    FileSource trace(trace_path);
    DieUnlessClean(trace);
    std::vector<Item> scratch(4096);
    uint64_t skipped = 0;
    while (skipped < cut) {
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(scratch.size(), cut - skipped));
      const size_t got = trace.NextBatch(scratch.data(), want);
      if (got == 0) break;
      skipped += got;
    }
    DieUnlessClean(trace);
    RecoveryOptions recovery_options;
    recovery_options.price_replica_nvm = true;
    recovery_options.replica_nvm = SpecFor(NvmSpec::Leveling::kDirect);
    recovery_options.checkpoint_sink =
        delta_engine->CheckpointSink(0, factory.name());
    RecoveredReplica recovered;
    const Status status =
        RecoverReplica(factory, *snapshot, trace, recovery_options,
                       &recovered);
    if (!status.ok()) {
      std::fprintf(stderr, "RecoverReplica failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("%-18s recovery: snapshot_words=%" PRIu64 " tail_items=%"
                PRIu64 " restore_writes=%" PRIu64 " replay_writes=%" PRIu64
                " wall=%.4fs\n\n",
                "", recovered.report.snapshot_words,
                recovered.report.tail_items,
                recovered.report.restore.word_writes,
                recovered.report.replay.word_writes,
                recovered.report.wall_seconds);
    bench::CsvBlock(recovered.report.ToCsv(
        "recover/every=" + std::to_string(every), factory.name()));
  }

  std::printf(
      "reading: the delta/full ratio is ~1 for the always-write baselines\n"
      "(they re-dirty their whole state every interval) and far below 1 for\n"
      "the Morris-mode sketch — write frugality transfers to durability.\n"
      "recovery pays snapshot reads (no wear) + tail replay only.\n");
  std::remove(trace_path.c_str());
  return 0;
}

// Cache-sweep mode: the architectural counter-argument priced end to end.

// 4-way, 8-word-line geometry sized to `cache_words` total words
// (0 = no cache tier — the control, bitwise-identical to today's path).
NvmSpec CacheSweepSpec(uint64_t cache_words) {
  NvmSpec spec = SpecFor(NvmSpec::Leveling::kDirect);
  if (cache_words > 0) {
    spec.cache.ways = 4;
    spec.cache.line_words = 8;
    spec.cache.sets = std::max<uint64_t>(
        1, cache_words / (static_cast<uint64_t>(spec.cache.ways) *
                          spec.cache.line_words));
  }
  return spec;
}

std::vector<SketchFactory> CacheSweepRoster() {
  return {
      // k sized so the counter summaries' write regions fit a few-KiB
      // cache while the hash sketches' tables (4x2048 words) do not —
      // the regime where the architectural-absorption question is live.
      SketchFactory::Of<MisraGries>("misra_gries", size_t{256}),
      SketchFactory::Of<SpaceSaving>("space_saving", size_t{1024}),
      SketchFactory::Of<CountMin>("count_min", size_t{4}, size_t{2048},
                                  uint64_t{2}, false),
      SketchFactory::Of<CountSketch>("count_sketch", size_t{4}, size_t{2048},
                                     uint64_t{3}),
      SketchFactory::Of<StableSketch>("stable_morris", 0.5, size_t{32},
                                      uint64_t{25},
                                      StableSketch::CounterMode::kMorris,
                                      0.2),
  };
}

// The cache-sweep CSV block's own schema (11 fields after the `CSV,`
// prefix).
constexpr const char* kCacheSweepSchema =
    "sketch,skew,cache_words,total_writes,nvm_writes,cache_hits,"
    "absorbed_writes,absorbed_frac,dirty_evictions,max_cell_wear,reuse_p50";

int RunCacheSweep(uint64_t items) {
  bench::Banner(
      "E10 bench_nvm_wear --cache",
      "absorbed-write fraction behind a DRAM write-back cache tier",
      "a small write-back buffer absorbs SpaceSaving's three-cell write "
      "region entirely, but CountMin's hash-scattered writes thrash it — "
      "algorithmic write-frugality survives the cache tier");

  const uint64_t flows = 100000;
  const double skews[] = {0.8, 1.1, 1.4};
  const uint64_t cache_words[] = {0, 64, 512, 4096, 32768};

  std::printf("stream: %" PRIu64 " items over %" PRIu64
              " flows per (sketch, skew) point; direct-mapped device; "
              "cache: 4-way, 8-word lines, LRU\n\n",
              items, flows);
  std::printf("%-14s %5s %11s %12s %11s %10s %9s %9s %9s\n", "sketch",
              "skew", "cache", "writes", "nvm_writes", "absorbed",
              "abs_frac", "max_wear", "reuse_p50");
  bench::CsvHeader(kCacheSweepSchema);

  for (const SketchFactory& factory : CacheSweepRoster()) {
    for (double skew : skews) {
      for (uint64_t words : cache_words) {
        std::unique_ptr<Sketch> alg = factory.Make();
        LiveNvmSink sink(CacheSweepSpec(words));
        alg->mutable_accountant()->set_write_sink(&sink);
        alg->Drain(ZipfSource(flows, skew, items, /*seed=*/55));
        sink.Flush();
        const NvmReplayReport r = sink.Report();
        alg->mutable_accountant()->set_write_sink(nullptr);

        const CacheStats& c = r.cache;
        const uint64_t total =
            r.cache_enabled ? c.total_writes : r.writes_replayed;
        const double absorbed_frac =
            total == 0 ? 0.0
                       : static_cast<double>(c.absorbed_writes) /
                             static_cast<double>(total);
        char cache_label[32];
        if (words == 0) {
          std::snprintf(cache_label, sizeof(cache_label), "uncached");
        } else {
          std::snprintf(cache_label, sizeof(cache_label), "%" PRIu64 "w",
                        words);
        }
        std::printf("%-14s %5.1f %11s %12" PRIu64 " %11" PRIu64 " %10" PRIu64
                    " %9.4f %9" PRIu64 " %9" PRIu64 "\n",
                    factory.name().c_str(), skew, cache_label, total,
                    r.writes_replayed, c.absorbed_writes, absorbed_frac,
                    r.max_cell_wear, c.ReuseP50());
        char csv[256];
        std::snprintf(csv, sizeof(csv),
                      "%s,%.1f,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                      ",%" PRIu64 ",%.6f,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                      "\n",
                      factory.name().c_str(), skew, words, total,
                      r.writes_replayed, c.hits, c.absorbed_writes,
                      absorbed_frac, c.dirty_evictions, r.max_cell_wear,
                      c.ReuseP50());
        bench::CsvBlock(csv);
      }
      std::printf("\n");
    }
  }

  std::printf(
      "reading: the uncached rows are the control (identical to the default\n"
      "mode's direct path). MisraGries/SpaceSaving absorb most writes at\n"
      "even the smallest cache; CountMin/CountSketch need the cache to\n"
      "cover their whole table before absorption rises — a DRAM buffer\n"
      "does not substitute for algorithmic write-frugality.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--live") == 0) {
    uint64_t items = 100000000;  // 10^8
    if (argc > 2) {
      const long long parsed = std::atoll(argv[2]);
      if (parsed > 0) items = static_cast<uint64_t>(parsed);
    }
    return RunLive(items);
  }
  if (argc > 1 && std::strcmp(argv[1], "--checkpoint") == 0) {
    // Deliberately not a multiple of `every`, so the simulated crash
    // leaves a non-empty tail to replay.
    uint64_t items = 410000;
    uint64_t every = 20000;
    bool with_cache = false;
    if (argc > 2) {
      const long long parsed = std::atoll(argv[2]);
      if (parsed > 0) items = static_cast<uint64_t>(parsed);
    }
    if (argc > 3) {
      const long long parsed = std::atoll(argv[3]);
      if (parsed > 0) every = static_cast<uint64_t>(parsed);
    }
    if (argc > 4 && std::strcmp(argv[4], "cache") == 0) with_cache = true;
    return RunCheckpoint(items, every, with_cache);
  }
  if (argc > 1 && std::strcmp(argv[1], "--cache") == 0) {
    uint64_t items = 200000;
    if (argc > 2) {
      const long long parsed = std::atoll(argv[2]);
      if (parsed > 0) items = static_cast<uint64_t>(parsed);
    }
    return RunCacheSweep(items);
  }
  return RunDefault();
}
