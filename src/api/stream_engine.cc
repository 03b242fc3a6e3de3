#include "api/stream_engine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/metrics.h"

namespace fewstate {

const SketchRunReport* RunReport::Find(const std::string& name) const {
  for (const SketchRunReport& s : sketches) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string RunReport::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "items_ingested=%llu wall_seconds=%.6f\n",
                static_cast<unsigned long long>(items_ingested), wall_seconds);
  out += line;
  for (const SketchRunReport& s : sketches) {
    std::snprintf(
        line, sizeof(line),
        "  %-24s state_changes=%-10llu word_writes=%-10llu "
        "suppressed=%-8llu reads=%-10llu peak_words=%-8llu wall=%.6fs\n",
        s.name.c_str(), static_cast<unsigned long long>(s.state_changes),
        static_cast<unsigned long long>(s.word_writes),
        static_cast<unsigned long long>(s.suppressed_writes),
        static_cast<unsigned long long>(s.word_reads),
        static_cast<unsigned long long>(s.peak_allocated_words),
        s.wall_seconds);
    out += line;
    if (s.has_nvm) {
      std::snprintf(
          line, sizeof(line),
          "  %-24s   nvm: writes=%-10llu max_wear=%-8llu "
          "energy=%.3gnJ replays_to_eol=%.4g dropped=%llu\n",
          "", static_cast<unsigned long long>(s.nvm.writes_replayed),
          static_cast<unsigned long long>(s.nvm.max_cell_wear),
          s.nvm.energy_nj, s.nvm.projected_stream_replays_to_failure,
          static_cast<unsigned long long>(s.nvm.dropped_writes));
      out += line;
      if (s.nvm.cache_enabled) {
        const CacheStats& c = s.nvm.cache;
        std::snprintf(
            line, sizeof(line),
            "  %-24s   cache: writes=%-10llu hits=%-10llu "
            "absorbed=%-10llu evict_dirty=%-8llu writebacks=%-10llu "
            "reuse_p50<=%llu\n",
            "", static_cast<unsigned long long>(c.total_writes),
            static_cast<unsigned long long>(c.hits),
            static_cast<unsigned long long>(c.absorbed_writes),
            static_cast<unsigned long long>(c.dirty_evictions),
            static_cast<unsigned long long>(c.writebacks),
            static_cast<unsigned long long>(c.ReuseP50()));
        out += line;
      }
    }
  }
  return out;
}

std::string RunReport::CsvHeader() {
  return "label,sketch,updates,state_changes,word_writes,suppressed_writes,"
         "word_reads,peak_words,wall_seconds,nvm_writes,nvm_max_wear,"
         "nvm_energy_nj,nvm_replays_to_eol,nvm_dropped,ckpt_full,ckpt_delta,"
         "ckpt_published,cache_hits,absorbed_writes,dirty_evictions,"
         "writebacks,cache_reuse_p50";
}

namespace {

// A caller-supplied label (or a sketch name built from one) containing a
// comma, quote or line break would shift or split every downstream CSV
// column; neuter those characters rather than emit a malformed row.
std::string CsvSanitize(const std::string& field) {
  std::string out = field;
  for (char& c : out) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

}  // namespace

std::string SketchReportCsvRow(const std::string& label,
                               const std::string& sketch,
                               const SketchRunReport& row) {
  const std::string safe_label = CsvSanitize(label);
  const std::string safe_sketch = CsvSanitize(sketch);
  const bool cached = row.has_nvm && row.nvm.cache_enabled;
  char line[640];
  std::snprintf(line, sizeof(line),
                "%s,%s,%llu,%llu,%llu,%llu,%llu,%llu,%.6f,%llu,%llu,%.6g,"
                "%.6g,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
                safe_label.c_str(), safe_sketch.c_str(),
                static_cast<unsigned long long>(row.updates),
                static_cast<unsigned long long>(row.state_changes),
                static_cast<unsigned long long>(row.word_writes),
                static_cast<unsigned long long>(row.suppressed_writes),
                static_cast<unsigned long long>(row.word_reads),
                static_cast<unsigned long long>(row.peak_allocated_words),
                row.wall_seconds,
                static_cast<unsigned long long>(
                    row.has_nvm ? row.nvm.writes_replayed : 0),
                static_cast<unsigned long long>(
                    row.has_nvm ? row.nvm.max_cell_wear : 0),
                row.has_nvm ? row.nvm.energy_nj : 0.0,
                row.has_nvm ? row.nvm.projected_stream_replays_to_failure
                            : 0.0,
                static_cast<unsigned long long>(
                    row.has_nvm ? row.nvm.dropped_writes : 0),
                static_cast<unsigned long long>(row.full_checkpoints),
                static_cast<unsigned long long>(row.delta_checkpoints),
                static_cast<unsigned long long>(row.snapshots_published),
                static_cast<unsigned long long>(cached ? row.nvm.cache.hits
                                                       : 0),
                static_cast<unsigned long long>(
                    cached ? row.nvm.cache.absorbed_writes : 0),
                static_cast<unsigned long long>(
                    cached ? row.nvm.cache.dirty_evictions : 0),
                static_cast<unsigned long long>(
                    cached ? row.nvm.cache.writebacks : 0),
                static_cast<unsigned long long>(
                    cached ? row.nvm.cache.ReuseP50() : 0));
  return line;
}

std::string RunReport::ToCsv(const std::string& label) const {
  std::string out;
  for (const SketchRunReport& s : sketches) {
    out += SketchReportCsvRow(label, s.name, s);
    out += '\n';
  }
  return out;
}

Sketch* StreamEngine::Register(std::string name,
                               std::unique_ptr<Sketch> sketch) {
  Sketch* raw = sketch.get();
  return RegisterEntry(std::move(name), raw, std::move(sketch));
}

Sketch* StreamEngine::RegisterBorrowed(std::string name, Sketch* sketch) {
  return RegisterEntry(std::move(name), sketch, nullptr);
}

Sketch* StreamEngine::RegisterEntry(std::string name, Sketch* sketch,
                                    std::unique_ptr<Sketch> owned) {
  if (sketch == nullptr) {
    std::fprintf(stderr, "StreamEngine::Register: null sketch for '%s'\n",
                 name.c_str());
    std::abort();
  }
  if (IndexOf(name) != size()) {
    std::fprintf(stderr, "StreamEngine::Register: duplicate name '%s'\n",
                 name.c_str());
    std::abort();
  }
  pipeline_.Add(std::move(name), sketch, std::move(owned));
  return sketch;
}

Status StreamEngine::AttachNvm(const std::string& name, const NvmSpec& spec) {
  const Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  const size_t i = IndexOf(name);
  if (i == size()) {
    return Status::InvalidArgument(
        "StreamEngine::AttachNvm: no sketch named '" + name + "'");
  }
  pipeline_.AttachNvm(i, spec);
  return Status::OK();
}

const LiveNvmSink* StreamEngine::NvmSink(const std::string& name) const {
  const size_t i = IndexOf(name);
  return i == size() ? nullptr : pipeline_.nvm_sink(i);
}

void StreamEngine::AttachMetrics(MetricsRegistry* metrics,
                                 TraceRecorder* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

size_t StreamEngine::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < size(); ++i) {
    if (pipeline_.name(i) == name) return i;
  }
  return size();
}

std::vector<std::string> StreamEngine::names() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(pipeline_.name(i));
  return out;
}

Sketch* StreamEngine::Find(const std::string& name) const {
  const size_t i = IndexOf(name);
  return i == size() ? nullptr : pipeline_.sketch(i);
}

RunReport StreamEngine::Run(ItemSource& source) {
  using Clock = std::chrono::steady_clock;

  RunReport report;
  pipeline_.BeginRun(metrics_, trace_, force_scalar_);
  Counter* const items_counter =
      metrics_ != nullptr
          ? metrics_->GetCounter("fewstate_items_ingested_total")
          : nullptr;

  // The resident footprint stays one batch, however long the source runs.
  std::vector<Item> buffer(kDefaultDrainBatchItems);
  uint64_t processed = 0;
  const Clock::time_point run_start = Clock::now();
  report.items_ingested = ForEachBatch(
      source, buffer.data(), buffer.size(),
      [&](const Item* batch, size_t count) {
        pipeline_.Drain(batch, count);
        if (items_counter != nullptr) items_counter->Increment(count);
        processed += count;
        pipeline_.AtBatchBoundary(processed);
      });
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - run_start).count();

  PublishSourceStatus(source, metrics_, trace_);
  for (ReplicaSketchReport& row : pipeline_.Report()) {
    report.sketches.push_back(std::move(row.ingest));
  }
  last_report_ = report;
  return report;
}

}  // namespace fewstate
