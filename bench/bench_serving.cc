// Online snapshot serving — query QPS and view staleness vs. checkpoint
// cadence under live ingest.
//
// The durability checkpoints a `ShardedEngine` already takes double as
// query-serving snapshots when `serve_snapshots` is on: at each batch
// boundary a shard publishes its progress and every sketch's latest
// checkpoint as one roster behind an atomic pointer swap, and any number
// of reader threads can `Acquire()` consistent point-in-time views while
// the workers race ahead. This bench puts a number on the resulting
// freshness/overhead dial: it sweeps the `CheckpointPolicy::EveryItems`
// cadence, runs a query thread concurrently with ingest, and reports the
// sustained query rate next to the staleness (items ingested but not yet
// visible) the views actually observed.
//
// Expected shape: staleness scales with the cadence (a view can trail by
// at most one interval plus one partition batch per shard), while QPS is
// roughly cadence-independent — readers never take a lock, so publication
// frequency costs the *workers* (checkpoint serialization), not the
// readers.
//
// Usage: bench_serving [stream_length] [cadence_list] [full|delta]
//                      [--obs-out <dir>]
// (defaults: 3000000, "2000,10000,50000", delta). `delta` exercises the
// copy-on-publish path: restorable sketches keep a persistent delta base,
// so serving publishes a freshly minted copy of it instead of the mutable
// object (priced as bulk reads on the checkpoint device).
//
// `--obs-out <dir>` instruments the sweep and writes the accumulated
// telemetry as CI-friendly artifacts afterwards:
// `<dir>/serving_metrics.json`, `<dir>/serving_metrics.prom`
// (Prometheus text exposition), and `<dir>/serving_trace.json`
// (Chrome trace format — load it in Perfetto or chrome://tracing).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baselines/count_min.h"
#include "baselines/stable_sketch.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/checkpoint_policy.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "shard/snapshot_serving.h"
#include "stream/generators.h"

using namespace fewstate;

namespace {

constexpr uint64_t kFlows = 50000;
constexpr char kQueried[] = "count_min";

std::vector<SketchFactory> Roster() {
  return {
      // The queried structure: restorable, so delta cadences exercise the
      // copy-on-publish path.
      SketchFactory::Of<CountMin>(kQueried, size_t{4}, size_t{2048},
                                  uint64_t{21}, false),
      // Rides along to keep publication multi-sketch, as in a real
      // deployment where one monitor serves several summaries.
      SketchFactory::Of<StableSketch>("stable_morris", 0.5, size_t{32},
                                      uint64_t{25},
                                      StableSketch::CounterMode::kMorris,
                                      0.2),
  };
}

struct ServingRun {
  uint64_t queries = 0;
  double query_seconds = 0;
  uint64_t views_sampled = 0;   // complete views whose staleness we sampled
  double mean_items_behind = 0;
  uint64_t max_items_behind = 0;
  uint64_t final_items_behind = 0;
  uint64_t snapshots_published = 0;
  double ingest_items_per_sec = 0;
  double checksum = 0;  // keeps the query loop from being optimized away
};

ServingRun RunAtCadence(uint64_t length, uint64_t cadence,
                        CheckpointPolicy::Snapshot snapshot_mode,
                        MetricsRegistry* metrics, TraceRecorder* trace) {
  ShardedEngineOptions options;
  options.shards = 2;
  options.batch_items = 4096;
  options.checkpoint_policy = CheckpointPolicy::EveryItems(cadence,
                                                           snapshot_mode);
  options.checkpoint_nvm.config.num_cells = 1 << 16;
  options.serve_snapshots = true;
  options.metrics = metrics;
  options.trace = trace;
  ShardedEngine engine(options);
  for (const SketchFactory& factory : Roster()) {
    const Status status = engine.AddSketch(factory);
    if (!status.ok()) {
      std::fprintf(stderr, "AddSketch failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }

  // The handle outlives the run and is valid before it starts; the query
  // thread below holds nothing else of the engine's.
  const ServingHandle handle = engine.Serving(kQueried);
  if (!handle.ok()) {
    std::fprintf(stderr, "no serving handle for '%s'\n", kQueried);
    std::exit(1);
  }

  std::atomic<bool> done{false};
  ShardedRunReport report;
  std::thread ingest([&] {
    report = engine.Run(ZipfSource(kFlows, 1.2, length, /*seed=*/2024));
    done.store(true, std::memory_order_release);
  });

  // Query loop: re-acquire a view every kPerView queries; staleness is a
  // per-view property so it is sampled once per acquire (complete views
  // only — before every shard has published, "behind" is undefined).
  ServingRun out;
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<uint64_t> flow(0, kFlows - 1);
  constexpr uint64_t kPerView = 256;
  double behind_total = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (!done.load(std::memory_order_acquire)) {
    const SnapshotView view = handle.Acquire();
    if (view.complete()) {
      const uint64_t behind = view.items_behind();
      behind_total += static_cast<double>(behind);
      if (behind > out.max_items_behind) out.max_items_behind = behind;
      ++out.views_sampled;
    }
    for (uint64_t q = 0; q < kPerView; ++q) {
      out.checksum += view.EstimateFrequency(flow(rng));
    }
    out.queries += kPerView;
  }
  const auto t1 = std::chrono::steady_clock::now();
  ingest.join();

  out.query_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (out.views_sampled > 0) {
    out.mean_items_behind = behind_total / out.views_sampled;
  }
  out.final_items_behind = handle.Acquire().items_behind();
  const ShardedSketchReport* sk = report.Find(kQueried);
  if (sk != nullptr) out.snapshots_published = sk->snapshots_published;
  out.ingest_items_per_sec = report.items_per_second;
  return out;
}

// Writes `content` to `path`; complains to stderr instead of failing the
// bench — a missing artifact dir shouldn't sink the numbers.
bool WriteFileOrWarn(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // `--obs-out <dir>` can sit anywhere; the rest are the positional
  // [stream_length] [cadence_list] [full|delta] args.
  std::string obs_out;
  std::vector<const char*> positional;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--obs-out") == 0) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "--obs-out needs a directory argument\n");
        return 1;
      }
      obs_out = argv[++a];
    } else {
      positional.push_back(argv[a]);
    }
  }

  uint64_t length = 3000000;
  if (positional.size() > 0) {
    const long long parsed = std::atoll(positional[0]);
    if (parsed > 0) length = static_cast<uint64_t>(parsed);
  }
  std::vector<uint64_t> cadences{2000, 10000, 50000};
  if (positional.size() > 1) {
    cadences.clear();
    for (const char* p = positional[1]; *p != '\0';) {
      const long long c = std::atoll(p);
      if (c > 0) cadences.push_back(static_cast<uint64_t>(c));
      const char* comma = std::strchr(p, ',');
      if (comma == nullptr) break;
      p = comma + 1;
    }
    if (cadences.empty()) cadences = {2000, 10000, 50000};
  }
  CheckpointPolicy::Snapshot snapshot_mode = CheckpointPolicy::Snapshot::kDelta;
  if (positional.size() > 2 && std::strcmp(positional[2], "full") == 0) {
    snapshot_mode = CheckpointPolicy::Snapshot::kFull;
  }
  const char* mode_name =
      snapshot_mode == CheckpointPolicy::Snapshot::kDelta ? "delta" : "full";

  bench::Banner(
      "bench_serving",
      "online snapshot serving: freshness vs. checkpoint cadence",
      "published checkpoints answer queries lock-free during ingest; view "
      "staleness is bounded by the checkpoint cadence, reader throughput "
      "is not");
  std::printf("stream: %llu items over %llu flows (Zipf 1.2), 2 shards, "
              "%s snapshots; one query thread concurrent with ingest\n\n",
              (unsigned long long)length, (unsigned long long)kFlows,
              mode_name);

  std::printf("%9s %10s %12s %8s %13s %12s %12s %10s %12s\n",
              "cadence", "queries", "query_qps", "views",
              "mean_behind", "max_behind", "final_behind", "published",
              "ingest_i/s");
  bench::CsvHeader(
      "cadence_items,snapshot,shards,stream_items,queries,query_qps,"
      "views_sampled,mean_items_behind,max_items_behind,final_items_behind,"
      "snapshots_published,ingest_items_per_sec");

  // One registry/tracer shared across the instrumented sweep so the
  // exported artifacts cover every cadence; null when telemetry is off.
  const bool instrument = !obs_out.empty();
  MetricsRegistry registry;
  TraceRecorder trace;
  MetricsRegistry* metrics_ptr = instrument ? &registry : nullptr;
  TraceRecorder* trace_ptr = instrument ? &trace : nullptr;

  for (uint64_t cadence : cadences) {
    const ServingRun run =
        RunAtCadence(length, cadence, snapshot_mode, metrics_ptr, trace_ptr);
    const double qps =
        run.query_seconds > 0 ? run.queries / run.query_seconds : 0;
    bench::Row("%9llu %10llu %12.0f %8llu %13.0f %12llu %12llu %10llu %12.0f",
               (unsigned long long)cadence, (unsigned long long)run.queries,
               qps, (unsigned long long)run.views_sampled,
               run.mean_items_behind,
               (unsigned long long)run.max_items_behind,
               (unsigned long long)run.final_items_behind,
               (unsigned long long)run.snapshots_published,
               run.ingest_items_per_sec);
    char csv[512];
    std::snprintf(csv, sizeof(csv),
                  "%llu,%s,2,%llu,%llu,%.0f,%llu,%.1f,%llu,%llu,%llu,%.0f",
                  (unsigned long long)cadence, mode_name,
                  (unsigned long long)length,
                  (unsigned long long)run.queries, qps,
                  (unsigned long long)run.views_sampled,
                  run.mean_items_behind,
                  (unsigned long long)run.max_items_behind,
                  (unsigned long long)run.final_items_behind,
                  (unsigned long long)run.snapshots_published,
                  run.ingest_items_per_sec);
    bench::CsvBlock(std::string(csv) + "\n");
  }

  if (!obs_out.empty()) {
    // CI artifacts: one metrics snapshot + one trace covering the whole
    // sweep. The trace is standard Chrome trace format — drop it into
    // Perfetto (ui.perfetto.dev) or chrome://tracing to inspect.
    const MetricsSnapshot snap = registry.Snapshot();
    WriteFileOrWarn(obs_out + "/serving_metrics.json", snap.ToJson());
    WriteFileOrWarn(obs_out + "/serving_metrics.prom", snap.ToPrometheus());
    if (trace.WriteJson(obs_out + "/serving_trace.json")) {
      std::printf("\nobs artifacts: %s/serving_metrics.{json,prom}, "
                  "%s/serving_trace.json (%llu events, %llu dropped)\n",
                  obs_out.c_str(), obs_out.c_str(),
                  (unsigned long long)trace.event_count(),
                  (unsigned long long)trace.dropped_events());
    } else {
      std::fprintf(stderr, "warning: cannot write %s/serving_trace.json\n",
                   obs_out.c_str());
    }
  }

  std::printf(
      "\nNote: mean/max_behind are sampled once per acquired complete view\n"
      "(items ingested engine-wide but not yet visible to that view); the\n"
      "bound is one cadence interval plus one partition batch per shard,\n"
      "and it holds for every sample: a shard's progress and snapshot come\n"
      "from the one roster it published at a batch boundary.\n"
      "final_behind is measured after ingest quiesces, so it shows the\n"
      "true end-of-run gap. Readers take no locks: query_qps holding a\n"
      "view is flat across cadences.\n");
  return 0;
}
