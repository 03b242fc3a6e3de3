// The three workloads, their end-to-end runs, the open-loop query client,
// crash recovery and the correctness gate.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_set>

#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "core/fp_estimator.h"
#include "core/full_sample_and_hold.h"
#include "layers.h"
#include "net/socket_source.h"
#include "net/trace_streamer.h"
#include "recover/recovery.h"
#include "recover/restorable.h"
#include "shard/view_query.h"

namespace perfbench {

using fewstate::CheckpointPolicy;
using fewstate::HeavyHitter;
using fewstate::ShardedEngine;
using fewstate::ShardedRunReport;
using fewstate::Sketch;
using fewstate::SketchFactory;

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kTopK = 10;          // the query's and recall's k
constexpr uint64_t kCandidates = 64;    // watch list / SpaceSaving shortlist
constexpr int kSetupsPerRound = 20;     // set-ups timed after each run
constexpr double kQueryRateHz = 1000.0;  // open-loop query schedule
// AcquireAll retries (with a yield) while a checkpoint boundary is half
// published. Its default of 64 rounds can run out while the last sketch of
// a boundary is still being serialized, so the client allows enough rounds
// to span a whole boundary; the wait shows in query latency instead.
constexpr int kAcquireAttempts = 1 << 14;

// Grid kernels are cheap (12-40 ns/item), so the per-word sink chain and
// the checkpoint path dominate: the ROADMAP baseline-table configuration.
WorkloadSpec GridNvmCkpt(bool small) {
  WorkloadSpec w;
  w.name = "grid_nvm_ckpt";
  w.flows = 50000;
  w.items = small ? 131072 : 1000000;
  w.shards = 2;
  w.roster = {"count_min", "count_sketch"};
  w.metrics = true;
  w.policy = CheckpointPolicy::EveryItems(small ? 8192 : 32768,
                                          CheckpointPolicy::Snapshot::kDelta);
  w.recover_sketch = "count_min";
  w.recover_tail = small ? 4096 : 32768;
  w.ledger_items = small ? 65536 : 500000;
  return w;
}

// The paper's own structures: CPU-bound in RNG and transcendental kernels,
// writing ~0.02 words/item, so sinks, metrics and cache do almost nothing.
WorkloadSpec FrugalNvm(bool small) {
  WorkloadSpec w;
  w.name = "frugal_nvm";
  w.flows = 50000;
  w.items = small ? 8192 : 50000;
  w.shards = 1;  // FullSampleAndHold is not mergeable
  w.roster = {"stable_morris", "full_sample_and_hold", "fp_estimator"};
  w.policy = CheckpointPolicy::WriteBudget(small ? 32 : 128);
  w.recover_sketch = "stable_morris";
  w.recover_tail = small ? 256 : 2048;
  w.ledger_items = small ? 2048 : 16384;
  return w;
}

// Transport, map kernels, cache tier and the lock-free read path, all
// bypassed by the other two workloads. 10^6 flows keep the 1024-counter
// summaries evicting. The trace length is a multiple of the checkpoint
// cadence, so the last snapshot lands on the last item and the final view
// is the quiescent state.
WorkloadSpec TcpServeCached(bool small) {
  WorkloadSpec w;
  w.name = "tcp_serve_cached";
  w.flows = 1000000;
  w.items = small ? 131072 : 524288;
  w.shards = 1;
  w.roster = {"misra_gries", "space_saving", "count_min"};
  w.tcp = true;
  w.serve = true;
  w.cache = true;
  w.policy = CheckpointPolicy::EveryItems(small ? 16384 : 65536,
                                          CheckpointPolicy::Snapshot::kDelta);
  w.recover_sketch = "count_min";
  w.recover_tail = small ? 4096 : 32768;
  w.ledger_items = small ? 32768 : 262144;
  return w;
}

}  // namespace

const WorkloadSpec& FindWorkload(const std::string& name, bool small) {
  static const std::vector<WorkloadSpec> full = {
      GridNvmCkpt(false), FrugalNvm(false), TcpServeCached(false)};
  static const std::vector<WorkloadSpec> reduced = {
      GridNvmCkpt(true), FrugalNvm(true), TcpServeCached(true)};
  for (const WorkloadSpec& w : small ? reduced : full) {
    if (w.name == name) return w;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

const std::vector<std::string>& AllSketches() {
  static const std::vector<std::string> names = {
      "count_min",    "count_sketch", "misra_gries", "space_saving",
      "stable_morris", "full_sample_and_hold", "fp_estimator"};
  return names;
}

uint64_t KernelPrefix(const std::string& name, bool small) {
  if (name == "stable_morris") return small ? 1024 : 8192;
  if (name == "full_sample_and_hold" || name == "fp_estimator") {
    return small ? 4096 : 32768;
  }
  return small ? 16384 : 262144;
}

SketchFactory MakeFactory(const std::string& name, uint64_t universe,
                          uint64_t length_hint) {
  using namespace fewstate;
  if (name == "count_min") {
    return SketchFactory::Of<CountMin>(name, size_t{4}, size_t{2048},
                                       uint64_t{7}, false);
  }
  if (name == "count_sketch") {
    return SketchFactory::Of<CountSketch>(name, size_t{5}, size_t{2048},
                                          uint64_t{11});
  }
  if (name == "misra_gries") {
    return SketchFactory::Of<MisraGries>(name, size_t{1024});
  }
  if (name == "space_saving") {
    return SketchFactory::Of<SpaceSaving>(name, size_t{1024});
  }
  if (name == "stable_morris") {
    return SketchFactory::Of<StableSketch>(name, 0.5, size_t{32}, uint64_t{31},
                                           StableSketch::CounterMode::kMorris,
                                           0.2);
  }
  if (name == "full_sample_and_hold") {
    FullSampleAndHoldOptions o;
    o.universe = universe;
    o.stream_length_hint = length_hint;
    o.p = 2.0;
    o.seed = 5;
    return SketchFactory(name, [o] {
      return std::unique_ptr<Sketch>(new FullSampleAndHold(o));
    });
  }
  if (name == "fp_estimator") {
    FpEstimatorOptions o;
    o.universe = universe;
    o.stream_length_hint = length_hint;
    o.p = 2.0;
    o.seed = 9;
    return SketchFactory(
        name, [o] { return std::unique_ptr<Sketch>(new FpEstimator(o)); });
  }
  std::fprintf(stderr, "unknown sketch '%s'\n", name.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Engine assembly and source decorators
// ---------------------------------------------------------------------------

Layers WorkloadLayers(const WorkloadSpec& spec) {
  Layers layers;
  layers.metrics = spec.metrics;
  layers.nvm = true;
  layers.checkpoints = true;
  layers.serve = spec.serve;
  return layers;
}

fewstate::NvmSpec WorkloadNvm(const WorkloadSpec& spec) {
  fewstate::NvmSpec nvm;
  nvm.config.num_cells = 1 << 16;
  nvm.leveling = fewstate::NvmSpec::Leveling::kDirect;
  if (spec.cache) nvm.cache = DramCache();
  return nvm;
}

fewstate::CacheSpec DramCache() {
  fewstate::CacheSpec cache;
  cache.sets = 16;  // 16 sets x 4 ways x 8 words = 512 words
  cache.ways = 4;
  cache.line_words = 8;
  // The reuse-distance histogram is a diagnostic that costs O(stack depth)
  // per write; left on, it alone would set the cached workload's speed.
  cache.reuse_stack_max = 0;
  return cache;
}

std::unique_ptr<ShardedEngine> BuildEngine(const WorkloadSpec& spec,
                                           const Layers& layers,
                                           fewstate::MetricsRegistry* registry) {
  fewstate::ShardedEngineOptions options;
  options.shards = spec.shards;
  options.metrics = layers.metrics ? registry : nullptr;
  if (layers.checkpoints) {
    options.checkpoint_policy = spec.policy;
    options.checkpoint_nvm = WorkloadNvm(spec);
  }
  options.serve_snapshots = layers.serve;
  auto engine = std::make_unique<ShardedEngine>(options);
  for (const std::string& name : spec.roster) {
    SketchFactory factory = MakeFactory(name, spec.flows, spec.items);
    const fewstate::Status status =
        layers.nvm ? engine->AddSketch(std::move(factory), WorkloadNvm(spec))
                   : engine->AddSketch(std::move(factory));
    Gate(status.ok(), "AddSketch(" + name + "): " + status.ToString());
  }
  return engine;
}

void Feed(Sketch* sketch, const Stream& items, uint64_t from, uint64_t to) {
  for (uint64_t i = from; i < to;) {
    const uint64_t n =
        std::min<uint64_t>(fewstate::kDefaultDrainBatchItems, to - i);
    sketch->UpdateBatch(items.data() + i, static_cast<size_t>(n));
    i += n;
  }
}

fewstate::SocketSourceOptions LoopbackOptions() {
  fewstate::SocketSourceOptions o;
  o.transport = fewstate::NetTransport::kTcp;
  o.idle_timeout_ms = 10000;
  return o;
}

size_t LimitSource::NextBatch(Item* out, size_t cap) {
  const size_t want = static_cast<size_t>(std::min<uint64_t>(cap, left_));
  if (want == 0) return 0;
  const size_t got = inner_->NextBatch(out, want);
  left_ -= got;
  return got;
}

size_t TimedSource::NextBatch(Item* out, size_t cap) {
  if (!pulled_->load(std::memory_order_relaxed)) {
    pulled_->store(true, std::memory_order_release);
  }
  if (tracer_ == nullptr) return inner_->NextBatch(out, cap);
  Span span(tracer_, "api.ItemSource.NextBatch");
  const size_t got = inner_->NextBatch(out, cap);
  ns_ += span.Stop();
  return got;
}

namespace {

// ---------------------------------------------------------------------------
// Deployment: what set-up builds and every run reuses
// ---------------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<fewstate::MetricsRegistry> registry;
  std::unique_ptr<ShardedEngine> engine;
  std::vector<fewstate::ServingHandle> handles;  // space_saving, count_min
};

Deployment Deploy(const WorkloadSpec& spec) {
  Deployment d;
  if (spec.metrics) d.registry = std::make_unique<fewstate::MetricsRegistry>();
  d.engine = BuildEngine(spec, WorkloadLayers(spec), d.registry.get());
  if (spec.serve) {
    for (const char* name : {"space_saving", "count_min"}) {
      d.handles.push_back(d.engine->Serving(name));
      Gate(d.handles.back().ok(), std::string("no serving handle for ") + name);
    }
  }
  return d;
}

std::unique_ptr<fewstate::ItemSource> OpenSource(const WorkloadSpec& spec,
                                                 const Inputs& in) {
  if (spec.tcp) {
    auto socket = std::make_unique<fewstate::SocketSource>(LoopbackOptions());
    Gate(socket->ok(), "SocketSource: " + socket->status().ToString());
    return socket;
  }
  auto file = std::make_unique<fewstate::FileSource>(in.trace_path);
  Gate(file->ok(), "FileSource: " + file->status().ToString());
  return file;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

struct QueryOutcome {
  bool counted = false;  // false during a run's warm-up (no complete view yet)
  bool ok = false;       // answered from a consistent, complete view
  double acquire_ns = 0.0;
  double topk_ns = 0.0;
  double attempts = 1.0;
  double staleness = 0.0;
};

/// Open-loop query generator: query i is due at start + i / rate whatever
/// happened to earlier queries, and is timed from its due time. With
/// `spin` the generator sleeps until shortly before each due time and
/// spins the rest, so timer wake-up jitter stays out of the latencies of
/// queries that run alone on an idle machine.
class QueryLog {
 public:
  template <typename Fn>
  void RunOpenLoop(double rate_hz, const std::atomic<bool>& stop,
                   double max_seconds, bool spin, Fn&& query) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // tight wake-ups
    const int64_t period = static_cast<int64_t>(1e9 / rate_hz);
    const int64_t wake_early = spin ? 100000 : 0;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(max_seconds * 1e9);
    for (int64_t i = 0;; ++i) {
      const int64_t due = start + i * period;
      if (due >= end || stop.load(std::memory_order_acquire)) break;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due - wake_early)));
      while (NowNs() < due) {
      }
      const int64_t issued = NowNs();
      const QueryOutcome o = query();
      const int64_t done = NowNs();
      if (!o.counted) continue;
      ++attempted;
      if (!o.ok) {
        ++bad;
        continue;
      }
      latency_us.push_back(static_cast<double>(done - due) / 1e3);
      lateness_us.push_back(static_cast<double>(issued - due) / 1e3);
      acquire_us.push_back(o.acquire_ns / 1e3);
      topk_us.push_back(o.topk_ns / 1e3);
      attempts.push_back(o.attempts);
      staleness.push_back(o.staleness);
    }
  }

  std::vector<double> latency_us, lateness_us, acquire_us, topk_us, attempts,
      staleness;
  uint64_t attempted = 0;
  uint64_t bad = 0;
};

bool ByEstimate(const HeavyHitter& a, const HeavyHitter& b) {
  if (a.estimate != b.estimate) return a.estimate > b.estimate;
  return a.item < b.item;
}

template <typename Estimate>
std::vector<HeavyHitter> Rank(const std::vector<Item>& candidates,
                              Estimate&& estimate, size_t k) {
  std::vector<HeavyHitter> out;
  out.reserve(candidates.size());
  for (Item item : candidates) {
    const double est = estimate(item);
    if (est > 0.0) out.push_back(HeavyHitter{item, est});
  }
  std::sort(out.begin(), out.end(), ByEstimate);
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<Item> ItemsOf(const std::vector<HeavyHitter>& hitters) {
  std::vector<Item> items;
  for (const HeavyHitter& h : hitters) items.push_back(h.item);
  return items;
}

// The serving query: SpaceSaving's shortlist from one consistent cut,
// scored on the CountMin view of the same cut.
std::vector<HeavyHitter> ServedTopK(const fewstate::SnapshotView& space_saving,
                                    const fewstate::SnapshotView& count_min) {
  const std::vector<Item> shortlist =
      ItemsOf(fewstate::TopK(space_saving, kCandidates));
  return Rank(shortlist,
              [&](Item item) { return count_min.EstimateFrequency(item); },
              kTopK);
}

// The same query answered straight from the quiescent sketches.
std::vector<HeavyHitter> QuiescentTopK(const Sketch& space_saving,
                                       const Sketch& count_min) {
  std::vector<Item> candidates;
  dynamic_cast<const fewstate::CandidateEnumerable&>(space_saving)
      .AppendCandidates(&candidates);
  std::unordered_set<Item> seen(candidates.begin(), candidates.end());
  candidates.assign(seen.begin(), seen.end());
  const std::vector<Item> shortlist = ItemsOf(Rank(
      candidates,
      [&](Item item) { return space_saving.EstimateFrequency(item); },
      kCandidates));
  return Rank(shortlist,
              [&](Item item) { return count_min.EstimateFrequency(item); },
              kTopK);
}

// Top-k recall against the exact counts, averaged over k = 1..kTopK. The
// average weighs the heaviest flows most and moves in steps of about 1 %,
// where recall at k = 10 alone moves in steps of 10 %.
double Recall(const std::vector<HeavyHitter>& found, const Inputs& in) {
  double sum = 0.0;
  for (size_t k = 1; k <= kTopK; ++k) {
    std::unordered_set<Item> truth;
    for (size_t i = 0; i < k && i < in.top.size(); ++i) {
      truth.insert(in.top[i].first);
    }
    size_t hits = 0;
    for (size_t i = 0; i < k && i < found.size(); ++i) {
      hits += truth.count(found[i].item);
    }
    sum += static_cast<double>(hits) / static_cast<double>(k);
  }
  return sum / static_cast<double>(kTopK);
}

// ---------------------------------------------------------------------------
// One ingest run
// ---------------------------------------------------------------------------

struct RunSample {
  double wall_s = 0.0;
  ShardedRunReport report;
  double source_ns = 0.0;
  double stream_s = 0.0;
  uint64_t net_bytes = 0;
  uint64_t net_items = 0;
};

/// Deterministic outputs of a run; identical on every run of one input.
struct Signature {
  uint64_t device_writes = 0;
  uint64_t max_cell_wear = 0;
  uint64_t state_changes = 0;
  uint64_t checkpoint_words = 0;
  uint64_t checkpoints = 0;

  bool operator==(const Signature& o) const {
    return device_writes == o.device_writes &&
           max_cell_wear == o.max_cell_wear &&
           state_changes == o.state_changes &&
           checkpoint_words == o.checkpoint_words &&
           checkpoints == o.checkpoints;
  }
};

Signature SignatureOf(const ShardedRunReport& report) {
  Signature sig;
  for (const fewstate::ShardedSketchReport& sk : report.sketches) {
    sig.device_writes += sk.total.nvm.writes_replayed;
    sig.max_cell_wear = std::max(sig.max_cell_wear, sk.total.nvm.max_cell_wear);
    for (const fewstate::SketchRunReport& shard : sk.per_shard) {
      sig.state_changes += shard.state_changes;
    }
    sig.checkpoint_words += sk.checkpoint.word_writes;
    sig.checkpoints += sk.checkpoints_taken;
  }
  return sig;
}

/// One pass of the trace through the deployed engine. `live` runs the
/// serving query client beside ingest (workloads that serve).
RunSample RunOnce(const WorkloadSpec& spec, const Inputs& in, Deployment& dep,
                  Tracer* tracer, QueryLog* live) {
  RunSample sample;
  std::unique_ptr<fewstate::ItemSource> source = OpenSource(spec, in);
  std::atomic<bool> pulled{false};
  TimedSource timed(source.get(), tracer, &pulled);

  std::thread streamer;
  fewstate::TraceStreamerReport sent;
  if (spec.tcp) {
    const uint16_t port =
        static_cast<fewstate::SocketSource*>(source.get())->port();
    streamer = std::thread([&sent, &sample, &in, tracer, port] {
      fewstate::TraceStreamerOptions o;
      o.transport = fewstate::NetTransport::kTcp;
      o.port = port;
      fewstate::FileSource file(in.trace_path);
      Span span(tracer, "net.TraceStreamer.Stream");
      sent = fewstate::TraceStreamer(o).Stream(file);
      sample.stream_s = static_cast<double>(span.Stop()) / 1e9;
    });
  }

  std::atomic<bool> stop{false};
  std::thread queries;
  if (live != nullptr) {
    queries = std::thread([&] {
      // Warm-up lasts until this run's first complete view: the engine
      // clears the previous run's snapshots before its first pull.
      bool warm = false;
      live->RunOpenLoop(kQueryRateHz, stop, 1e9, false, [&] {
        QueryOutcome o;
        if (!pulled.load(std::memory_order_acquire)) return o;
        Span query(tracer, "serving.query");
        fewstate::ConsistentViews cut;
        {
          Span acquire(tracer, "serving.AcquireAll");
          cut = fewstate::AcquireAll(dep.handles, kAcquireAttempts);
          o.acquire_ns = static_cast<double>(acquire.Stop());
        }
        const bool complete = cut.views[0].complete() && cut.views[1].complete();
        if (!complete && !warm) return o;
        warm = true;
        o.counted = true;
        o.ok = complete && cut.consistent;
        o.attempts = cut.attempts;
        o.staleness = static_cast<double>(cut.views[1].items_behind());
        Span topk(tracer, "serving.TopK");
        ServedTopK(cut.views[0], cut.views[1]);
        o.topk_ns = static_cast<double>(topk.Stop());
        return o;
      });
    });
  }

  {
    Span run(tracer, "shard.ShardedEngine.Run");
    sample.report = dep.engine->Run(timed);
    sample.wall_s = static_cast<double>(run.Stop()) / 1e9;
  }
  stop.store(true, std::memory_order_release);
  if (queries.joinable()) queries.join();
  if (streamer.joinable()) streamer.join();
  sample.source_ns = static_cast<double>(timed.ns());

  Gate(source->status().ok(), "source: " + source->status().ToString());
  Gate(sample.report.items_ingested == in.items,
       "ingested " + std::to_string(sample.report.items_ingested) + " of " +
           std::to_string(in.items) + " items");
  if (spec.tcp) {
    const auto* socket = static_cast<fewstate::SocketSource*>(source.get());
    const fewstate::SocketSourceStats& stats = socket->stats();
    Gate(sent.status.ok(), "TraceStreamer: " + sent.status.ToString());
    Gate(stats.frames_dropped == 0 && stats.frames_truncated == 0,
         "loopback stream lost frames");
    Gate(stats.items_received == in.items && sent.items_sent == in.items,
         "loopback stream delivered a different item count");
    sample.net_bytes = stats.bytes_received;
    sample.net_items = stats.items_received;
  }
  return sample;
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

std::unique_ptr<Sketch> Clone(const SketchFactory& factory, const Sketch& of) {
  std::unique_ptr<Sketch> copy = factory.Make();
  Gate(fewstate::AsRestorable(copy.get())->RestoreFrom(of).ok(),
       "cannot clone " + factory.name());
  return copy;
}

// Word-for-word state equality: restoring `b` over a copy of `a` writes
// nothing iff every state word already matches (restores suppress
// unchanged words). Continuing both copies over the same items then also
// compares the pseudo-random cursors.
bool SameState(const SketchFactory& factory, const Sketch& a, const Sketch& b,
               const Stream& more) {
  std::unique_ptr<Sketch> x = Clone(factory, a);
  const uint64_t before = x->accountant().word_writes();
  Gate(fewstate::AsRestorable(x.get())->RestoreFrom(b).ok(), "restore failed");
  if (x->accountant().word_writes() != before) return false;
  std::unique_ptr<Sketch> ca = Clone(factory, a);
  std::unique_ptr<Sketch> cb = Clone(factory, b);
  Feed(ca.get(), more, 0, more.size());
  Feed(cb.get(), more, 0, more.size());
  std::unique_ptr<Sketch> y = Clone(factory, *ca);
  const uint64_t mark = y->accountant().word_writes();
  Gate(fewstate::AsRestorable(y.get())->RestoreFrom(*cb).ok(), "restore failed");
  return y->accountant().word_writes() == mark;
}


/// A crash of shard 0's replica of `spec.recover_sketch`, `recover_tail`
/// shard items after its last snapshot: the tail to replay and the replica
/// an uninterrupted run would hold at the crash point.
struct RecoveryCase {
  SketchFactory factory;
  Stream tail;
  std::unique_ptr<Sketch> reference;
  bool verified = false;  // the first rebuild was compared word for word
};

/// Builds the crash case from the engine's last run. The single-pass
/// reference is fed the same shard prefix as the crashed replica; with one
/// shard the engine's own (never merged) replica must equal it too.
RecoveryCase PrepareRecovery(const WorkloadSpec& spec, const Inputs& in,
                             const ShardedEngine& engine) {
  const std::string& name = spec.recover_sketch;
  RecoveryCase rc{MakeFactory(name, spec.flows, spec.items), {}, nullptr};
  const fewstate::ShardedSketchReport* report =
      engine.last_report().Find(name);
  Gate(report != nullptr && engine.Snapshot(0, name) != nullptr,
       "no snapshot of " + name + " on shard 0");
  const uint64_t cut = report->last_checkpoint_items[0];
  const uint64_t shard_items = engine.last_report().shard_items[0];
  Gate(cut > 0 && cut <= shard_items, "bad checkpoint cut");

  Stream shard;
  for (const std::string& path : {in.trace_path, in.tail_path}) {
    for (Item item : ReadItems(path)) {
      if (engine.ShardOf(item) == 0) shard.push_back(item);
    }
  }
  const uint64_t crash = cut + spec.recover_tail;
  Gate(shard.size() >= crash && shard.size() >= shard_items,
       "trace continuation too short for the recovery tail");
  rc.tail.assign(shard.begin() + cut, shard.begin() + crash);

  rc.reference = rc.factory.Make();
  const uint64_t first = std::min(crash, shard_items);
  Feed(rc.reference.get(), shard, 0, first);
  std::unique_ptr<Sketch> at_end;
  if (crash < shard_items) {
    at_end = Clone(rc.factory, *rc.reference);
    Feed(at_end.get(), shard, first, shard_items);
  } else {
    if (spec.shards == 1) at_end = Clone(rc.factory, *rc.reference);
    Feed(rc.reference.get(), shard, first, crash);
  }
  if (spec.shards == 1) {
    Gate(SameState(rc.factory, *at_end, *engine.Replica(0, name), rc.tail),
         "engine replica of " + name + " differs from a single-pass replica");
  }
  return rc;
}

struct RecoverySamples {
  std::vector<double> total;    // RecoverReplica wall time
  std::vector<double> restore;  // traced: snapshot restore phase
  std::vector<double> replay;   // traced: tail replay phase
};

/// Rebuilds the crashed replica once from the engine's current snapshot,
/// priced on a fresh NVM device. Traced runs time the two phases through
/// the same public calls `RecoverReplica` makes.
void RecoverOnce(const WorkloadSpec& spec, const ShardedEngine& engine,
                 bool traced, Tracer* tracer, RecoveryCase* rc,
                 RecoverySamples* out) {
  const std::string& name = spec.recover_sketch;
  const Sketch* snapshot = engine.Snapshot(0, name);
  fewstate::LiveNvmSink* checkpoint_device = engine.CheckpointSink(0, name);
  Gate(snapshot != nullptr && checkpoint_device != nullptr,
       "no checkpoint of " + name);
  const fewstate::NvmSpec nvm = WorkloadNvm(spec);
  std::unique_ptr<Sketch> rebuilt;
  std::unique_ptr<fewstate::LiveNvmSink> device;
  if (traced) {
    rebuilt = rc->factory.Make();
    device = std::make_unique<fewstate::LiveNvmSink>(nvm);
    rebuilt->mutable_accountant()->set_write_sink(device.get());
    checkpoint_device->OnBulkReads(snapshot->accountant().allocated_words());
    {
      Span restore(tracer, "recover.RestoreFrom");
      Gate(fewstate::AsRestorable(rebuilt.get())->RestoreFrom(*snapshot).ok(),
           "restore failed");
      out->restore.push_back(static_cast<double>(restore.Stop()) / 1e9);
    }
    {
      Span replay(tracer, "recover.Drain");
      rebuilt->Drain(fewstate::VectorSource(rc->tail));
      device->Flush();
      out->replay.push_back(static_cast<double>(replay.Stop()) / 1e9);
    }
  } else {
    fewstate::RecoveryOptions options;
    options.price_replica_nvm = true;
    options.replica_nvm = nvm;
    options.checkpoint_sink = checkpoint_device;
    fewstate::RecoveredReplica recovered;
    Span span(tracer, "recover.RecoverReplica");
    const fewstate::Status status = fewstate::RecoverReplica(
        rc->factory, *snapshot, fewstate::VectorSource(rc->tail), options,
        &recovered);
    out->total.push_back(static_cast<double>(span.Stop()) / 1e9);
    Gate(status.ok(), "RecoverReplica: " + status.ToString());
    Gate(recovered.report.tail_items == spec.recover_tail, "short tail replay");
    rebuilt = std::move(recovered.sketch);
    device = std::move(recovered.nvm);
  }
  rebuilt->mutable_accountant()->set_write_sink(nullptr);
  if (!rc->verified) {
    Gate(SameState(rc->factory, *rebuilt, *rc->reference, rc->tail),
         "rebuilt replica of " + name + " differs from the uninterrupted one");
    rc->verified = true;
  }
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// One invocation
// ---------------------------------------------------------------------------

int RunWorkload(const RunArgs& args) {
  const WorkloadSpec& spec = FindWorkload(args.workload, args.small);
  std::printf("provenance %s\n",
              ProvenanceJson(spec.name, args.seed, args.traced).c_str());
  std::fflush(stdout);
  const Inputs in = LoadInputs(args.data_dir);
  Gate(in.items == spec.items, "inputs were generated for another size");
  Tracer tracer;
  Tracer* const tr = args.traced ? &tracer : nullptr;

  // Untimed warm-up pass. Runs are deterministic, so its final state also
  // fixes the recovery case and the quiescent query's watch list.
  Deployment dep = Deploy(spec);
  QueryLog warmup_queries;
  RunOnce(spec, in, dep, nullptr, spec.serve ? &warmup_queries : nullptr);
  RecoveryCase recovery = PrepareRecovery(spec, in, *dep.engine);

  // Workloads without serving query the quiescent engine between runs: a
  // watch list of heavy candidates (CountMin over the flow universe, or
  // the flows FullSampleAndHold tracks), re-ranked by every query.
  const char* queried = spec.shards > 1 ? "count_min" : "full_sample_and_hold";
  std::vector<Item> watch;
  if (!spec.serve) {
    const Sketch* sketch = dep.engine->Merged(queried);
    std::vector<Item> universe;
    if (spec.shards > 1) {
      for (Item item = 0; item < spec.flows; ++item) universe.push_back(item);
    } else {
      universe = ItemsOf(static_cast<const fewstate::FullSampleAndHold*>(sketch)
                             ->TrackedItems());
    }
    watch = ItemsOf(Rank(
        universe, [&](Item item) { return sketch->EstimateFrequency(item); },
        kCandidates));
  }
  const auto quiescent_query = [&] {
    QueryOutcome o;
    o.counted = o.ok = true;
    Span query(tr, "serving.query");
    const Sketch* current = nullptr;
    {
      Span acquire(tr, "serving.Merged");
      current = dep.engine->Merged(queried);
      o.acquire_ns = static_cast<double>(acquire.Stop());
    }
    Span topk(tr, "serving.TopK");
    Rank(watch, [&](Item item) { return current->EstimateFrequency(item); },
         kTopK);
    o.topk_ns = static_cast<double>(topk.Stop());
    return o;
  };

  // Rounds until the time budget is spent. Each round ingests the trace
  // once, then times one crash recovery, a burst of set-ups and (without
  // serving) a burst of quiescent queries, so the samples of every metric
  // spread over the whole window. Traced invocations alternate untraced
  // and traced ingest, so the tracing overhead is measured against runs
  // made under the same conditions.
  QueryLog queries;
  RecoverySamples recovered;
  std::vector<double> setup_s, walls, traced_walls;
  std::vector<RunSample> traced_runs;
  Signature signature;
  uint64_t runs = 0;
  const int64_t loop_start = NowNs();
  for (;;) {
    const bool traced_run = args.traced && runs % 2 == 1;
    RunSample s = RunOnce(spec, in, dep, traced_run ? tr : nullptr,
                          spec.serve ? &queries : nullptr);
    const Signature sig = SignatureOf(s.report);
    if (runs++ == 0) signature = sig;
    Gate(sig == signature, "run outputs differ between runs of one input");
    (traced_run ? traced_walls : walls).push_back(s.wall_s);
    if (traced_run) traced_runs.push_back(std::move(s));

    // Recoveries fill a fifth of the run's time, at least one per round.
    const int64_t recover_until =
        NowNs() + static_cast<int64_t>(walls.back() * 0.2e9);
    do {
      RecoverOnce(spec, *dep.engine, args.traced, tr, &recovery, &recovered);
    } while (NowNs() < recover_until);
    // Set-up: engine construction, registration and source open (socket
    // bind/listen for TCP).
    for (int k = 0; k < kSetupsPerRound; ++k) {
      const int64_t t0 = NowNs();
      Deployment fresh = Deploy(spec);
      std::unique_ptr<fewstate::ItemSource> source = OpenSource(spec, in);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    if (!spec.serve) {
      std::atomic<bool> never{false};
      queries.RunOpenLoop(kQueryRateHz, never, walls.back() / 3, true,
                          quiescent_query);
    }
    const double elapsed = static_cast<double>(NowNs() - loop_start) / 1e9;
    if (elapsed >= args.seconds && walls.size() >= 3 &&
        (!args.traced || traced_walls.size() >= 3)) {
      break;
    }
  }
  const double peak_rss_mib = PeakRssMib();
  std::printf("runs: %llu, wall_s:", static_cast<unsigned long long>(runs));
  for (double w : walls) std::printf(" %.4f", w);
  std::printf("\nsetups: %zu, p10/p50/p90 s: %.3g %.3g %.3g\n", setup_s.size(),
              Quantile(setup_s, 0.1), Quantile(setup_s, 0.5),
              Quantile(setup_s, 0.9));
  Gate(!queries.latency_us.empty(), "no query was answered");

  // Heavy hitters: serving workloads check the final view against the
  // quiescent sketches; the others rank their watch list once more.
  std::vector<HeavyHitter> found;
  if (spec.serve) {
    const fewstate::ConsistentViews cut = fewstate::AcquireAll(dep.handles);
    Gate(cut.consistent && cut.views[0].complete() && cut.views[1].complete() &&
             cut.views[1].items_behind() == 0,
         "final serving view is not the quiescent state");
    found = ServedTopK(cut.views[0], cut.views[1]);
    Gate(found == QuiescentTopK(*dep.engine->Replica(0, "space_saving"),
                                *dep.engine->Replica(0, "count_min")),
         "final-view TopK differs from TopK over the quiescent sketches");
  } else {
    const Sketch* sketch = dep.engine->Merged(queried);
    found = Rank(watch,
                 [&](Item item) { return sketch->EstimateFrequency(item); },
                 kTopK);
  }

  if (spec.shards > 1) {
    // Merged grid sketches are linear: they must equal one-pass replicas.
    const Stream trace = ReadItems(in.trace_path);
    for (const std::string& name : spec.roster) {
      std::unique_ptr<Sketch> single =
          MakeFactory(name, spec.flows, spec.items).Make();
      Feed(single.get(), trace, 0, trace.size());
      const Sketch* merged = dep.engine->Merged(name);
      for (Item item = 0; item < spec.flows; ++item) {
        Gate(merged->EstimateFrequency(item) == single->EstimateFrequency(item),
             "merged " + name + " differs from a single-pass reference");
      }
    }
  }

  const double items = static_cast<double>(in.items);
  Result result;
  if (!args.traced) {
    result.Add("throughput_items_per_s", items / Median(walls), "items/s");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mib", peak_rss_mib, "MiB");
    result.Add("device_writes_per_kitem",
               static_cast<double>(signature.device_writes) / items * 1e3,
               "words/kitem");
    result.Add("max_cell_wear", static_cast<double>(signature.max_cell_wear),
               "writes");
    result.Add("state_changes_per_kitem",
               static_cast<double>(signature.state_changes) / items * 1e3,
               "changes/kitem");
    result.Add("recovery_s", Median(recovered.total), "s");
    result.Add("query_p50_us", Quantile(queries.latency_us, 0.5), "us");
    result.Add("hh_recall", Recall(found, in), "frac");
  } else {
    std::vector<double> source_ns, ingest_s, outside_s, update_ns, ckpt_s,
        stream_s;
    for (const RunSample& s : traced_runs) {
      source_ns.push_back(s.source_ns / items);
      ingest_s.push_back(s.report.ingest_seconds);
      outside_s.push_back(s.report.wall_seconds - s.report.ingest_seconds);
      stream_s.push_back(s.stream_s);
      double update = 0.0, ckpt = 0.0;
      for (const fewstate::ShardedSketchReport& sk : s.report.sketches) {
        for (const fewstate::SketchRunReport& shard : sk.per_shard) {
          update += shard.wall_seconds;
        }
        ckpt += sk.checkpoint.wall_seconds;
      }
      update_ns.push_back(update * 1e9 / items);
      ckpt_s.push_back(ckpt);
    }
    uint64_t max_shard = 0;
    for (uint64_t n : dep.engine->last_report().shard_items) {
      max_shard = std::max(max_shard, n);
    }
    NetCost net;
    if (spec.tcp) {
      net.send_s = Median(stream_s);
      net.bytes_per_item = static_cast<double>(traced_runs.back().net_bytes) /
                           static_cast<double>(traced_runs.back().net_items);
    } else {
      net = ProbeNet(in, tr);
    }
    double f2_rel_err = 0.0;
    const std::map<std::string, KernelCost> kernels =
        ProbeKernels(spec, in, args.small, tr, &f2_rel_err);
    const SinkCost sinks = ProbeSinks(spec, in, args.small, tr);
    const LedgerCost ledger = ProbeLedger(spec, in, tr);

    result.Add("api.source_ns_per_item", Median(source_ns), "ns/item");
    result.Add("net.send_s", net.send_s, "s");
    result.Add("net.bytes_per_item", net.bytes_per_item, "bytes/item");
    result.Add("shard.ingest_s", Median(ingest_s), "s");
    result.Add("shard.outside_ingest_s", Median(outside_s), "s");
    result.Add("shard.skew",
               static_cast<double>(max_shard) * static_cast<double>(spec.shards) /
                   items,
               "ratio");
    result.Add("shard.backpressure_waits", ledger.backpressure_waits, "count");
    result.Add("shard.queue_peak_depth", ledger.queue_peak_depth, "batches");
    for (const std::string& name : AllSketches()) {
      result.Add("kernel." + name + ".ns_per_item",
                 kernels.at(name).ns_per_item, "ns/item");
    }
    result.Add("kernel.fp_estimator.f2_rel_err", f2_rel_err, "frac");
    result.Add("engine.update_ns_per_item", Median(update_ns), "ns/item");
    for (const std::string& name : AllSketches()) {
      result.Add("state." + name + ".words_per_item",
                 kernels.at(name).words_per_item, "words/item");
      result.Add("state." + name + ".reads_per_item",
                 kernels.at(name).reads_per_item, "words/item");
    }
    result.Add("state.dirty_ns_per_word", sinks.dirty_ns_per_word, "ns/word");
    result.Add("nvm.price_ns_per_word", sinks.price_ns_per_word, "ns/word");
    result.Add("nvm.cached_price_ns_per_word", sinks.cached_price_ns_per_word,
               "ns/word");
    result.Add("nvm.cache_absorbed_frac", sinks.cache_absorbed_frac, "frac");
    result.Add("nvm.cache_writebacks_per_kitem",
               sinks.cache_writebacks_per_kitem, "words/kitem");
    result.Add("recover.ckpt_s", Median(ckpt_s), "s");
    result.Add("recover.ckpt_count", static_cast<double>(signature.checkpoints),
               "count");
    result.Add("recover.ckpt_words_per_kitem",
               static_cast<double>(signature.checkpoint_words) / items * 1e3,
               "words/kitem");
    result.Add("recover.restore_s", Median(recovered.restore), "s");
    result.Add("recover.replay_s", Median(recovered.replay), "s");
    result.Add("serving.acquire_us_mean", Mean(queries.acquire_us), "us");
    result.Add("serving.acquire_attempts_mean", Mean(queries.attempts),
               "attempts");
    result.Add("serving.topk_us_p50", Median(queries.topk_us), "us");
    result.Add("serving.staleness_items_p50", Median(queries.staleness),
               "items");
    result.Add("serving.lateness_us_p99", Quantile(queries.lateness_us, 0.99),
               "us");
    // Under ingest on four shared CPUs the p99 does not repeat within any
    // end-to-end bound, so it is reported here rather than end to end.
    result.Add("serving.query_p99_us", Quantile(queries.latency_us, 0.99),
               "us");
    result.Add("ledger.bare_ns_per_item", ledger.bare_ns_per_item, "ns/item");
    result.Add("ledger.metrics_dns_per_item", ledger.metrics_dns_per_item,
               "ns/item");
    result.Add("ledger.live_nvm_dns_per_item", ledger.live_nvm_dns_per_item,
               "ns/item");
    result.Add("ledger.delta_ckpt_dns_per_item", ledger.delta_ckpt_dns_per_item,
               "ns/item");
    result.Add("ledger.tracing_overhead_frac",
               Median(traced_walls) / Median(walls) - 1.0, "frac");
    if (!args.trace_out.empty()) {
      Gate(tracer.WriteChromeJson(args.trace_out),
           "cannot write trace " + args.trace_out);
      std::printf("trace: %zu spans -> %s\n", tracer.size(),
                  args.trace_out.c_str());
    }
  }

  const uint64_t attempted = runs * in.items + queries.attempted;
  std::printf("%s\n", result.Json(true, attempted, queries.bad).c_str());
  return 0;
}

}  // namespace perfbench
