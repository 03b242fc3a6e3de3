#ifndef FEWSTATE_API_STREAM_ENGINE_H_
#define FEWSTATE_API_STREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/item_source.h"
#include "api/replica_pipeline.h"
#include "api/sketch.h"
#include "common/status.h"
#include "nvm/live_sink.h"

namespace fewstate {

/// \brief Outcome of one `StreamEngine::Run`: one entry per registered
/// sketch, in registration order.
struct RunReport {
  /// Items pulled from the source during the run — counted at the ingest
  /// boundary, not read off a container, so it is exact for unsized
  /// sources too.
  uint64_t items_ingested = 0;
  double wall_seconds = 0.0;
  std::vector<SketchRunReport> sketches;

  /// \brief The entry for `name`, or nullptr if no such sketch ran.
  const SketchRunReport* Find(const std::string& name) const;

  /// \brief Human-readable table (one line per sketch), for examples and
  /// benchmark logs.
  std::string ToString() const;

  /// \brief Column header shared by all report CSV emitters:
  /// `label,sketch,updates,state_changes,word_writes,suppressed_writes,
  /// word_reads,peak_words,wall_seconds,nvm_writes,nvm_max_wear,
  /// nvm_energy_nj,nvm_replays_to_eol,nvm_dropped,ckpt_full,ckpt_delta,
  /// ckpt_published,cache_hits,absorbed_writes,dirty_evictions,writebacks,
  /// cache_reuse_p50`
  /// (the nvm columns are 0 for rows without an attached device; the ckpt
  /// columns are 0 outside `[checkpoint]` rows; the cache columns are 0
  /// without a DRAM cache tier on the device, and `nvm_writes` counts
  /// post-cache device writes when one is attached).
  static std::string CsvHeader();

  /// \brief One CSV row per sketch under `CsvHeader()` columns, each
  /// prefixed with `label` (e.g. the stream length or sweep point, so
  /// whole trajectories can be scraped from bench output).
  std::string ToCsv(const std::string& label) const;
};

/// \brief One `CsvHeader()`-shaped CSV row (used by both engines' report
/// emitters). The `label` and `sketch` fields are sanitized: any comma,
/// quote or line break becomes `_`, so a caller-supplied label can never
/// shift or split downstream columns.
std::string SketchReportCsvRow(const std::string& label,
                               const std::string& sketch,
                               const SketchRunReport& row);

/// \brief Drives N registered sketches over one pass of a stream.
///
/// Every registered sketch keeps its own `StateAccountant` (construction
/// wires one up internally in all library sketches), so the per-sketch
/// state-change and word-write totals in the `RunReport` are isolated from
/// each other. Registration order is preserved in reports; names must be
/// unique.
///
/// The engine is how the repo expresses the paper's experimental shape —
/// "run algorithm X and baselines Y, Z over the same stream and compare
/// state changes" — without N separate stream passes. It is one
/// persistent `ReplicaPipeline` driven inline, the same drain core each
/// `ShardedEngine` shard runs. Destruction detaches engine-owned sinks, so
/// a borrowed sketch outliving the engine is not left pointing at a freed
/// `LiveNvmSink`.
class StreamEngine {
 public:
  StreamEngine() = default;
  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// \brief Registers an engine-owned sketch under `name`. Dies if `name`
  /// is already taken or `sketch` is null. Returns the sketch for queries.
  Sketch* Register(std::string name, std::unique_ptr<Sketch> sketch);

  /// \brief Registers a caller-owned sketch (must outlive the engine).
  Sketch* RegisterBorrowed(std::string name, Sketch* sketch);

  /// \brief Attaches a live NVM pipeline to `name`'s accountant: every
  /// state write is priced on a fresh simulated device *as it happens*
  /// (O(device) memory — exact wear at any stream length, where a bounded
  /// `WriteLog` would truncate). The engine owns the sink; subsequent
  /// `RunReport` rows for this sketch carry the device's cumulative
  /// wear/energy/lifetime. Replaces any sink previously attached to the
  /// sketch's accountant. Fails on unknown names and invalid specs.
  /// A spec with `cache.sets > 0` puts a DRAM write-back cache tier in
  /// front of the device: the run report then also carries cache
  /// hit/absorption/write-back counters, and the engine's end-of-run
  /// `Flush()` prices the residual dirty words before reporting.
  Status AttachNvm(const std::string& name, const NvmSpec& spec);

  /// \brief The live sink attached to `name` (for direct device queries),
  /// or nullptr if none.
  const LiveNvmSink* NvmSink(const std::string& name) const;

  /// \brief Attaches opt-in live telemetry (both borrowed; must outlive
  /// the engine). With a registry, every subsequent `Run` feeds
  /// `fewstate_items_ingested_total` and the pipeline series of
  /// `docs/OBSERVABILITY.md` without the `shard` label: batch counters,
  /// per-sketch state-change / word-write counters and change-rate /
  /// wear-rate gauges (labelled `{sketch=...}`), published at batch
  /// boundaries from the accountants, plus NVM wear gauges for sketches
  /// with `AttachNvm`. A `MetricsRegistry::Snapshot()` polled from another
  /// thread mid-run sees live values, and end-of-run totals reconcile
  /// exactly with the `RunReport`. With a tracer, `Run` emits batch-drain
  /// and per-sketch update spans plus source-error instants. Null detaches
  /// either.
  void AttachMetrics(MetricsRegistry* metrics, TraceRecorder* trace = nullptr);

  /// \brief Number of registered sketches.
  size_t size() const { return pipeline_.size(); }

  /// \brief Registered names, in registration order.
  std::vector<std::string> names() const;

  /// \brief The sketch registered under `name`, or nullptr.
  Sketch* Find(const std::string& name) const;

  /// \brief Pulls `source` to end-of-stream in batches, feeding every item
  /// to every registered sketch, and reports per-sketch accountant deltas
  /// and wall time. Memory is O(batch) regardless of stream length — the
  /// source need not (and for generators/sockets cannot) be materialized.
  /// Can be called repeatedly with fresh sources; each call reports only
  /// its own deltas (sketch state carries over, as in a continuous
  /// stream).
  RunReport Run(ItemSource& source);

  /// \brief Rvalue convenience, e.g. `engine.Run(ZipfSource(...))`.
  RunReport Run(ItemSource&& source) { return Run(source); }

  /// \brief The report of the most recent `Run` (empty before the first).
  const RunReport& last_report() const { return last_report_; }

  /// \brief Escape hatch for A/B benchmarking: when true, `Run` feeds
  /// sketches item by item through the virtual `Update` path instead of
  /// `UpdateBatch`. Results are bitwise identical either way (the batch
  /// kernels' contract); only throughput differs.
  void set_force_scalar(bool force) { force_scalar_ = force; }

  /// \brief Whether the scalar update path is forced.
  bool force_scalar() const { return force_scalar_; }

 private:
  // Index of `name` in the pipeline, or size() if unregistered.
  size_t IndexOf(const std::string& name) const;
  Sketch* RegisterEntry(std::string name, Sketch* sketch,
                        std::unique_ptr<Sketch> owned);

  ReplicaPipeline pipeline_;
  MetricsRegistry* metrics_ = nullptr;  // borrowed; null = telemetry off
  TraceRecorder* trace_ = nullptr;      // borrowed; null = tracing off
  bool force_scalar_ = false;
  RunReport last_report_;
};

}  // namespace fewstate

#endif  // FEWSTATE_API_STREAM_ENGINE_H_
