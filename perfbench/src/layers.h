#ifndef FEWSTATE_PERFBENCH_LAYERS_H_
#define FEWSTATE_PERFBENCH_LAYERS_H_

// Engine assembly shared by the end-to-end runs and the per-layer probes,
// plus the probes themselves. Every probe times calls into one layer's
// public functions from outside the library.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "api/item_source.h"
#include "api/sketch.h"
#include "harness.h"
#include "net/socket_source.h"
#include "nvm/live_sink.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"

namespace perfbench {

/// Which optional layers an engine is assembled with.
struct Layers {
  bool metrics = false;
  bool nvm = false;
  bool checkpoints = false;
  bool serve = false;
};

/// The layers a workload runs with.
Layers WorkloadLayers(const WorkloadSpec& spec);

/// The workload's NVM device spec (PCM-like, direct leveling; with the
/// DRAM cache tier when the workload asks for it).
fewstate::NvmSpec WorkloadNvm(const WorkloadSpec& spec);

/// The 512-word DRAM write-back cache tier of the cached workload.
fewstate::CacheSpec DramCache();

/// Constructs the engine and registers the workload's roster. `registry`
/// is attached only when `layers.metrics`.
std::unique_ptr<fewstate::ShardedEngine> BuildEngine(
    const WorkloadSpec& spec, const Layers& layers,
    fewstate::MetricsRegistry* registry);

/// Feeds `items[from, to)` to `sketch` in engine-sized `UpdateBatch` calls.
void Feed(fewstate::Sketch* sketch, const Stream& items, uint64_t from,
          uint64_t to);

/// Loopback TCP listener options shared by the runs and the net probe.
fewstate::SocketSourceOptions LoopbackOptions();

/// Forwards at most `limit` items of a borrowed source.
class LimitSource : public fewstate::ItemSource {
 public:
  LimitSource(fewstate::ItemSource* inner, uint64_t limit)
      : inner_(inner), left_(limit) {}
  size_t NextBatch(Item* out, size_t cap) override;
  fewstate::Status status() const override { return inner_->status(); }

 private:
  fewstate::ItemSource* inner_;
  uint64_t left_;
};

/// Decorator between the engine and its source. It raises `pulled` on the
/// first `NextBatch` (the engine has started this run) and, with a tracer,
/// records a span around every `NextBatch` and accumulates their time.
class TimedSource : public fewstate::ItemSource {
 public:
  TimedSource(fewstate::ItemSource* inner, Tracer* tracer,
              std::atomic<bool>* pulled)
      : inner_(inner), tracer_(tracer), pulled_(pulled) {}
  size_t NextBatch(Item* out, size_t cap) override;
  std::optional<uint64_t> SizeHint() const override {
    return inner_->SizeHint();
  }
  fewstate::Status status() const override { return inner_->status(); }
  int64_t ns() const { return ns_; }

 private:
  fewstate::ItemSource* inner_;
  Tracer* tracer_;
  std::atomic<bool>* pulled_;
  int64_t ns_ = 0;
};

/// Direct `UpdateBatch` cost of one sketch on the workload's items, with no
/// sink attached, and its accountant's word traffic.
struct KernelCost {
  double ns_per_item = 0.0;
  double words_per_item = 0.0;
  double reads_per_item = 0.0;
};

/// Runs every sketch of `AllSketches()` over its kernel prefix of the
/// trace. `f2_rel_err` receives the F_2 estimator's relative error on its
/// prefix.
std::map<std::string, KernelCost> ProbeKernels(const WorkloadSpec& spec,
                                               const Inputs& in, bool small,
                                               Tracer* tracer,
                                               double* f2_rel_err);

/// Sink-layer costs over a `WriteLog` capture of the workload's roster.
struct SinkCost {
  double dirty_ns_per_word = 0.0;
  double price_ns_per_word = 0.0;
  double cached_price_ns_per_word = 0.0;
  double cache_absorbed_frac = 0.0;
  double cache_writebacks_per_kitem = 0.0;
};
SinkCost ProbeSinks(const WorkloadSpec& spec, const Inputs& in, bool small,
                    Tracer* tracer);

/// Loopback TCP transport of the trace, drained with no engine behind it.
struct NetCost {
  double send_s = 0.0;
  double bytes_per_item = 0.0;
};
NetCost ProbeNet(const Inputs& in, Tracer* tracer);

/// The workload's roster rerun with layers added one at a time (bare,
/// + metrics, + live NVM, + delta checkpoints), interleaved round-robin.
struct LedgerCost {
  double bare_ns_per_item = 0.0;
  double metrics_dns_per_item = 0.0;
  double live_nvm_dns_per_item = 0.0;
  double delta_ckpt_dns_per_item = 0.0;
  double backpressure_waits = 0.0;  ///< all-layers step, fewstate_* gauges
  double queue_peak_depth = 0.0;
};
LedgerCost ProbeLedger(const WorkloadSpec& spec, const Inputs& in,
                       Tracer* tracer);

}  // namespace perfbench

#endif  // FEWSTATE_PERFBENCH_LAYERS_H_
