#ifndef FEWSTATE_PERFBENCH_HARNESS_H_
#define FEWSTATE_PERFBENCH_HARNESS_H_

// Shared pieces of the fewstate benchmark program: workload descriptions,
// seeded inputs with their exact oracle, the correctness gate, span
// recording for traced runs, and the result line.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stream_types.h"
#include "recover/checkpoint_policy.h"
#include "shard/sketch_factory.h"

namespace perfbench {

using fewstate::Item;
using fewstate::Stream;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One benchmark workload: the generated input, the engine configuration
/// and which replica is crashed for the recovery measurement.
struct WorkloadSpec {
  std::string name;
  uint64_t flows = 0;  ///< Zipf(1.1) universe
  uint64_t items = 0;  ///< trace length ingested by every run
  size_t shards = 1;
  std::vector<std::string> roster;  ///< sketches registered in the engine
  bool metrics = false;  ///< MetricsRegistry attached to the engine
  bool tcp = false;      ///< trace arrives over loopback TCP
  bool serve = false;    ///< serve_snapshots + live open-loop query client
  bool cache = false;    ///< 512-word DRAM cache tier on every NVM device
  fewstate::CheckpointPolicy policy;
  std::string recover_sketch;  ///< shard 0's replica of it is crashed
  uint64_t recover_tail = 0;   ///< shard items replayed after its snapshot
  uint64_t ledger_items = 0;   ///< trace prefix of the layer-by-layer ledger
};

/// The workload named `name` (full size, or the self-test's small inputs
/// when `small`); dies on an unknown name.
const WorkloadSpec& FindWorkload(const std::string& name, bool small);

/// Every sketch any workload uses, in a fixed order (the kernel probes run
/// all of them on every workload's items).
const std::vector<std::string>& AllSketches();

/// Factory for the benchmark's configuration of sketch `name`.
fewstate::SketchFactory MakeFactory(const std::string& name, uint64_t universe,
                                    uint64_t length_hint);

/// Items of the trace prefix the kernel probe feeds sketch `name`, sized so
/// each probe takes tens of milliseconds.
uint64_t KernelPrefix(const std::string& name, bool small);

// ---------------------------------------------------------------------------
// Inputs and oracle
// ---------------------------------------------------------------------------

/// A generated workload input: the trace every run ingests, its
/// continuation (the recovery tail may run past the ingested trace), and
/// the exact oracle computed once at generation time.
struct Inputs {
  std::string trace_path;
  std::string tail_path;
  uint64_t items = 0;
  uint64_t tail_items = 0;
  uint64_t checksum = 0;
  uint64_t tail_checksum = 0;
  /// Exact heaviest items of the trace: count descending, id ascending.
  std::vector<std::pair<Item, uint64_t>> top;
  uint64_t fp_prefix = 0;  ///< F_2 probe prefix length
  double f2_prefix = 0.0;  ///< exact F_2 of that prefix
};

/// Generates the inputs of `spec` for `seed` into `dir` (trace, tail and
/// oracle). Returns a process exit code.
int GenerateInputs(const WorkloadSpec& spec, bool small, uint64_t seed,
                   const std::string& dir);

/// Loads the inputs from `dir` and checks item counts and checksums of
/// both files; a mismatch trips the correctness gate.
Inputs LoadInputs(const std::string& dir);

/// Reads up to `limit` items of a trace file (all of them for 0).
Stream ReadItems(const std::string& path, uint64_t limit = 0);

// ---------------------------------------------------------------------------
// Correctness gate, statistics, clocks
// ---------------------------------------------------------------------------

/// Exits the process with code 3, without a result line, unless `ok`.
void Gate(bool ok, const std::string& what);

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

/// Peak resident set of this process so far, in MiB.
double PeakRssMib();

/// One-line JSON provenance of the build and host.
std::string ProvenanceJson(const std::string& workload, uint64_t seed,
                           bool traced);

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around calls into each layer
// ---------------------------------------------------------------------------

/// In-memory span store of a traced run, written out once at the end as
/// Chrome trace JSON. Thread-safe; spans nest per thread.
class Tracer {
 public:
  int NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const char* name, int id, int parent, int64_t start_ns,
              int64_t end_ns);
  bool WriteChromeJson(const std::string& path) const;
  size_t size() const;

 private:
  struct Event {
    const char* name;
    int id;
    int parent;
    int tid;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::atomic<int> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// RAII span: measures its own lifetime and, with a tracer, records it as a
/// child of the innermost open span on this thread. `name` must be a
/// string literal (stored by pointer).
class Span {
 public:
  Span(Tracer* tracer, const char* name);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its length in nanoseconds.
  int64_t Stop();

 private:
  Tracer* tracer_;
  const char* name_;
  int id_ = -1;
  int parent_ = -1;
  int64_t start_ns_;
  int64_t elapsed_ns_ = -1;
};

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool small = false;
  std::string data_dir;   ///< generated inputs
  std::string trace_out;  ///< Chrome trace of a traced run ("" = none)
};

/// Runs one workload and prints its result line. Returns the exit code.
int RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // FEWSTATE_PERFBENCH_HARNESS_H_
