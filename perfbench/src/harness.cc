#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

void Gate(bool ok, const std::string& what) {
  if (ok) return;
  std::fflush(stdout);
  std::fprintf(stderr, "correctness gate FAILED: %s\n", what.c_str());
  std::exit(3);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ProvenanceJson(const std::string& workload, uint64_t seed,
                           bool traced) {
#ifdef __OPTIMIZE__
  const bool optimize = true;
#else
  const bool optimize = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"compiler\": \"gcc %s\", \"build_type\": \"%s\", "
                "\"cxx_flags\": \"%s\", \"optimize\": %s, \"ndebug\": %s, "
                "\"nproc\": %ld, \"hardware_concurrency\": %u}",
                workload.c_str(), static_cast<unsigned long long>(seed),
                traced ? 1 : 0, __VERSION__, FSBENCH_BUILD_TYPE,
                FSBENCH_CXX_FLAGS, optimize ? "true" : "false",
                ndebug ? "true" : "false", online,
                std::thread::hardware_concurrency());
  return buf;
}

// ---------------------------------------------------------------------------
// Tracer / Span
// ---------------------------------------------------------------------------

namespace {

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

thread_local std::vector<int> open_spans;

}  // namespace

void Tracer::Record(const char* name, int id, int parent, int64_t start_ns,
                    int64_t end_ns) {
  const int tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, id, parent, tid, start_ns, end_ns});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t origin = events_.empty() ? 0 : events_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %d, \"parent\": %d}}",
                 i == 0 ? "" : ",", e.name, e.tid,
                 static_cast<double>(e.start_ns - origin) / 1e3,
                 static_cast<double>(e.end_ns - e.start_ns) / 1e3, e.id,
                 e.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name), start_ns_(NowNs()) {
  if (tracer_ != nullptr) {
    id_ = tracer_->NextId();
    parent_ = open_spans.empty() ? -1 : open_spans.back();
    open_spans.push_back(id_);
  }
}

int64_t Span::Stop() {
  if (elapsed_ns_ >= 0) return elapsed_ns_;
  const int64_t end = NowNs();
  elapsed_ns_ = end - start_ns_;
  if (tracer_ != nullptr) {
    if (!open_spans.empty() && open_spans.back() == id_) open_spans.pop_back();
    tracer_->Record(name_, id_, parent_, start_ns_, end);
  }
  return elapsed_ns_;
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  Gate(std::isfinite(value), "metric " + name + " is not a finite number");
  metrics_.push_back(Metric{name, value, unit});
}

std::string Result::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
