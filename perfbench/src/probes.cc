// Per-layer probes of a traced run. Each one drives a single layer's public
// functions on the workload's own items, from outside the library, inside
// a benchmark span.

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/fp_estimator.h"
#include "layers.h"
#include "net/trace_streamer.h"
#include "state/dirty_tracker.h"
#include "state/write_log.h"

namespace perfbench {

std::map<std::string, KernelCost> ProbeKernels(const WorkloadSpec& spec,
                                               const Inputs& in, bool small,
                                               Tracer* tracer,
                                               double* f2_rel_err) {
  uint64_t longest = 0;
  for (const std::string& name : AllSketches()) {
    longest = std::max(longest, KernelPrefix(name, small));
  }
  const Stream items = ReadItems(in.trace_path, longest);
  std::map<std::string, KernelCost> costs;
  for (const std::string& name : AllSketches()) {
    const uint64_t n = std::min<uint64_t>(KernelPrefix(name, small), items.size());
    const fewstate::SketchFactory factory = MakeFactory(name, spec.flows, n);
    std::vector<double> ns_per_item;
    KernelCost& cost = costs[name];
    for (int rep = 0; rep < 3; ++rep) {
      std::unique_ptr<fewstate::Sketch> sketch = factory.Make();
      Span span(tracer, "kernel.UpdateBatch");
      Feed(sketch.get(), items, 0, n);
      ns_per_item.push_back(static_cast<double>(span.Stop()) /
                            static_cast<double>(n));
      if (rep > 0) continue;
      const fewstate::StateAccountant& a = sketch->accountant();
      cost.words_per_item =
          static_cast<double>(a.word_writes()) / static_cast<double>(n);
      cost.reads_per_item =
          static_cast<double>(a.word_reads()) / static_cast<double>(n);
      if (name == "fp_estimator") {
        Gate(n == in.fp_prefix, "F_2 oracle was computed for another prefix");
        const double estimate =
            static_cast<const fewstate::FpEstimator&>(*sketch).EstimateFp();
        *f2_rel_err = std::fabs(estimate - in.f2_prefix) / in.f2_prefix;
      }
    }
    cost.ns_per_item = Median(ns_per_item);
  }
  return costs;
}

SinkCost ProbeSinks(const WorkloadSpec& spec, const Inputs& in, bool small,
                    Tracer* tracer) {
  fewstate::NvmSpec plain = WorkloadNvm(spec);
  plain.cache = fewstate::CacheSpec{};
  fewstate::NvmSpec cached = plain;
  cached.cache = DramCache();

  double dirty_ns = 0.0, price_ns = 0.0, cached_ns = 0.0;
  uint64_t words = 0, absorbed = 0, offered = 0;
  double writebacks_per_kitem = 0.0;
  uint64_t scanned = 0;  // keeps the dirty-set scans observable
  for (const std::string& name : spec.roster) {
    const uint64_t n = std::min<uint64_t>(
        std::min<uint64_t>(KernelPrefix(name, small), 131072), in.items);
    const Stream items = ReadItems(in.trace_path, n);
    std::unique_ptr<fewstate::Sketch> sketch =
        MakeFactory(name, spec.flows, n).Make();
    fewstate::WriteLog log(uint64_t{1} << 26);
    sketch->mutable_accountant()->set_write_sink(&log);
    Feed(sketch.get(), items, 0, n);
    sketch->mutable_accountant()->set_write_sink(nullptr);
    Gate(log.dropped() == 0, "write capture overflowed");
    const std::vector<fewstate::WriteRecord>& records = log.records();
    words += records.size();
    {
      // Dirty-set upkeep between checkpoints: every word marks the set, and
      // each interval of the workload's checkpoint trigger (items, or word
      // writes under a write budget) ends with the sorted scan.
      const bool by_items =
          spec.policy.trigger == fewstate::CheckpointPolicy::Trigger::kEveryItems;
      const uint64_t interval =
          by_items ? spec.policy.every_items : spec.policy.write_budget;
      fewstate::DirtyTracker dirty;
      Span span(tracer, "state.DirtyTracker");
      uint64_t next_scan = interval;
      for (uint64_t i = 0; i < records.size(); ++i) {
        if ((by_items ? records[i].epoch : i) >= next_scan) {
          scanned += dirty.SortedCells().size();
          dirty.ClearDirty();
          next_scan += interval;
        }
        dirty.OnWrite(records[i].epoch, records[i].cell);
      }
      scanned += dirty.SortedCells().size();
      dirty_ns += static_cast<double>(span.Stop());
    }
    {
      fewstate::LiveNvmSink sink(plain);
      Span span(tracer, "nvm.LiveNvmSink.OnWrite");
      for (const fewstate::WriteRecord& r : records) sink.OnWrite(r.epoch, r.cell);
      sink.Flush();
      price_ns += static_cast<double>(span.Stop());
    }
    {
      fewstate::LiveNvmSink sink(cached);
      Span span(tracer, "nvm.LiveNvmSink.OnWrite.cached");
      for (const fewstate::WriteRecord& r : records) sink.OnWrite(r.epoch, r.cell);
      sink.Flush();
      cached_ns += static_cast<double>(span.Stop());
      const fewstate::NvmReplayReport report = sink.Report();
      absorbed += report.cache.absorbed_writes;
      offered += report.cache.total_writes;
      writebacks_per_kitem += static_cast<double>(report.cache.writebacks) /
                              static_cast<double>(n) * 1e3;
    }
  }
  Gate(words > 0 && scanned > 0, "the roster wrote nothing to capture");
  SinkCost cost;
  cost.dirty_ns_per_word = dirty_ns / static_cast<double>(words);
  cost.price_ns_per_word = price_ns / static_cast<double>(words);
  cost.cached_price_ns_per_word = cached_ns / static_cast<double>(words);
  cost.cache_absorbed_frac =
      static_cast<double>(absorbed) / static_cast<double>(offered);
  cost.cache_writebacks_per_kitem = writebacks_per_kitem;
  return cost;
}

NetCost ProbeNet(const Inputs& in, Tracer* tracer) {
  fewstate::SocketSource socket(LoopbackOptions());
  Gate(socket.ok(), "SocketSource: " + socket.status().ToString());
  NetCost cost;
  fewstate::TraceStreamerReport sent;
  std::thread streamer([&] {
    fewstate::TraceStreamerOptions o;
    o.transport = fewstate::NetTransport::kTcp;
    o.port = socket.port();
    fewstate::FileSource file(in.trace_path);
    Span span(tracer, "net.TraceStreamer.Stream");
    sent = fewstate::TraceStreamer(o).Stream(file);
    cost.send_s = static_cast<double>(span.Stop()) / 1e9;
  });
  std::vector<Item> buf(fewstate::kDefaultDrainBatchItems);
  {
    Span span(tracer, "net.SocketSource.NextBatch");
    while (socket.NextBatch(buf.data(), buf.size()) > 0) {
    }
  }
  streamer.join();
  const fewstate::SocketSourceStats& stats = socket.stats();
  Gate(sent.status.ok() && socket.status().ok() && stats.frames_dropped == 0 &&
           stats.items_received == in.items,
       "loopback probe did not deliver the trace intact");
  cost.bytes_per_item = static_cast<double>(stats.bytes_received) /
                        static_cast<double>(stats.items_received);
  return cost;
}

LedgerCost ProbeLedger(const WorkloadSpec& spec, const Inputs& in,
                       Tracer* tracer) {
  std::vector<Layers> steps(4);
  steps[1].metrics = true;
  steps[2] = steps[1];
  steps[2].nvm = true;
  steps[3] = steps[2];
  steps[3].checkpoints = true;
  const uint64_t items = std::min(spec.ledger_items, in.items);
  constexpr int kRounds = 3;
  std::vector<std::vector<double>> ns(steps.size());
  LedgerCost cost;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t step = 0; step < steps.size(); ++step) {
      fewstate::MetricsRegistry registry;
      std::unique_ptr<fewstate::ShardedEngine> engine =
          BuildEngine(spec, steps[step], &registry);
      fewstate::FileSource file(in.trace_path);
      LimitSource limited(&file, items);
      Span span(tracer, "ledger.ShardedEngine.Run");
      const fewstate::ShardedRunReport report = engine->Run(limited);
      span.Stop();
      Gate(report.items_ingested == items && file.status().ok(),
           "ledger run ingested a short trace");
      ns[step].push_back(report.ingest_seconds * 1e9 /
                         static_cast<double>(items));
      if (step + 1 == steps.size() && round + 1 == kRounds) {
        const fewstate::MetricsSnapshot snap = registry.Snapshot();
        cost.backpressure_waits = static_cast<double>(
            snap.CounterTotal("fewstate_backpressure_waits_total"));
        for (const fewstate::GaugeSample& g : snap.gauges()) {
          if (g.id.name == "fewstate_shard_queue_peak_depth") {
            cost.queue_peak_depth = std::max(cost.queue_peak_depth, g.value);
          }
        }
      }
    }
  }
  cost.bare_ns_per_item = Median(ns[0]);
  cost.metrics_dns_per_item = Median(ns[1]) - Median(ns[0]);
  cost.live_nvm_dns_per_item = Median(ns[2]) - Median(ns[1]);
  cost.delta_ckpt_dns_per_item = Median(ns[3]) - Median(ns[2]);
  return cost;
}

}  // namespace perfbench
