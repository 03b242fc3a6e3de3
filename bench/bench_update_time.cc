// E11 — update-time sanity check: ns/update of every streaming structure
// in the library, on both ingest paths. The paper's metric is memory
// writes, not CPU time, but a reproduction should confirm the frugal
// structures are not pathologically slow per update — and, since the
// engines drain sources through `UpdateBatch`, that the batch kernels
// actually beat the item-at-a-time virtual `Update` path they replace.
//
// Output: a human table plus `CSV,` rows with schema
//   sketch,mode,items,ns_per_item,mitems_per_sec,speedup_vs_scalar
// where mode is `scalar` (per-item virtual Update) or `batch`
// (`UpdateBatch` in 4096-item chunks, the engines' drain shape), and
// speedup_vs_scalar is 1.0 on scalar rows by construction. Structures
// without a batch kernel ride the default per-item loop, so their batch
// rows measuring ~1.0x are the fallback's overhead, not a bug.
//
// Every row pair is also a batch ≡ scalar check: the two final states must
// agree on every accountant count, on EstimateFrequency(x) for every item
// of the universe (and, for the stable sketches, on EstimateLp and every
// tracked word; for FpEstimator, on EstimateFp). Counts alone would miss a
// kernel that writes the right number of words into the wrong counters. A
// mismatch is reported and makes the binary exit 1, so the timing smoke
// doubles as an equivalence gate.
//
// Usage: bench_update_time [stream_length]   (default 2000000)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/sketch.h"
#include "baselines/ams_sketch.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "bench_util.h"
#include "common/stream_types.h"
#include "core/fp_estimator.h"
#include "core/full_sample_and_hold.h"
#include "core/sample_and_hold.h"
#include "counters/morris_counter.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kUniverse = 10000;
constexpr size_t kBatchItems = 4096;  // the engines' drain-batch shape

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One structure under test: a fresh instance per timed pass, so the two
// modes ingest the identical stream from the identical initial state.
struct Case {
  const char* name;
  std::function<std::unique_ptr<Sketch>()> make;
};

// Names the first difference between the scalar and batch final states,
// or returns "" when they agree.
std::string StateMismatch(const Sketch& scalar, const Sketch& batch) {
  const StateAccountant& s = scalar.accountant();
  const StateAccountant& b = batch.accountant();
  if (s.updates() != b.updates()) return "updates";
  if (s.state_changes() != b.state_changes()) return "state_changes";
  if (s.word_writes() != b.word_writes()) return "word_writes";
  if (s.suppressed_writes() != b.suppressed_writes()) {
    return "suppressed_writes";
  }
  if (s.word_reads() != b.word_reads()) return "word_reads";
  if (s.peak_allocated_words() != b.peak_allocated_words()) {
    return "peak_allocated_words";
  }
  for (Item x = 0; x < kUniverse; ++x) {
    if (scalar.EstimateFrequency(x) != batch.EstimateFrequency(x)) {
      return "EstimateFrequency(" + std::to_string(x) + ")";
    }
  }
  const auto* fp_s = dynamic_cast<const FpEstimator*>(&scalar);
  const auto* fp_b = dynamic_cast<const FpEstimator*>(&batch);
  if (fp_s != nullptr && fp_b != nullptr &&
      fp_s->EstimateFp() != fp_b->EstimateFp()) {
    return "EstimateFp";
  }
  const auto* stable_s = dynamic_cast<const StableSketch*>(&scalar);
  const auto* stable_b = dynamic_cast<const StableSketch*>(&batch);
  if (stable_s != nullptr && stable_b != nullptr) {
    if (stable_s->EstimateLp() != stable_b->EstimateLp()) return "EstimateLp";
    if (stable_s->TrackedWords() != stable_b->TrackedWords()) {
      return "tracked words";
    }
  }
  return "";
}

double TimeScalarPass(StreamingAlgorithm& alg, const Stream& stream) {
  const Clock::time_point start = Clock::now();
  for (const Item item : stream) alg.Update(item);
  return SecondsSince(start);
}

double TimeBatchPass(StreamingAlgorithm& alg, const Stream& stream) {
  const Clock::time_point start = Clock::now();
  for (size_t off = 0; off < stream.size(); off += kBatchItems) {
    const size_t n = std::min(kBatchItems, stream.size() - off);
    alg.UpdateBatch(stream.data() + off, n);
  }
  return SecondsSince(start);
}

void EmitRow(const char* sketch, const char* mode, size_t items,
             double wall_seconds, double speedup) {
  const double ns_per_item = wall_seconds * 1e9 / static_cast<double>(items);
  const double mitems = static_cast<double>(items) / wall_seconds / 1e6;
  bench::Row("  %-22s %-7s %9.1f ns/item  %8.2f Mitems/s  %5.2fx", sketch,
             mode, ns_per_item, mitems, speedup);
  bench::CsvBlock(std::string(sketch) + "," + mode + "," +
                  std::to_string(items) + "," + std::to_string(ns_per_item) +
                  "," + std::to_string(mitems) + "," +
                  std::to_string(speedup) + "\n");
}

}  // namespace
}  // namespace fewstate

int main(int argc, char** argv) {
  using namespace fewstate;

  uint64_t length = 2000000;
  if (argc > 1) length = std::strtoull(argv[1], nullptr, 10);

  bench::Banner("E11: per-update CPU cost, scalar vs batch ingest",
                "library-wide sanity check (not a paper table)",
                "frugal state updates stay cheap per item; the UpdateBatch "
                "kernels beat the per-item virtual path");
  bench::Row("stream: Zipf(U=%llu, alpha=1.2), m=%llu, batch=%zu",
             static_cast<unsigned long long>(kUniverse),
             static_cast<unsigned long long>(length), kBatchItems);

  const Stream stream = ZipfStream(kUniverse, 1.2, length, 12345);

  const std::vector<Case> cases = {
      {"misra_gries", [] { return std::make_unique<MisraGries>(1000); }},
      {"count_min", [] { return std::make_unique<CountMin>(4, 2048, 7); }},
      {"count_min_conservative",
       [] { return std::make_unique<CountMin>(4, 2048, 7, true); }},
      {"count_sketch",
       [] { return std::make_unique<CountSketch>(4, 2048, 7); }},
      {"space_saving", [] { return std::make_unique<SpaceSaving>(1000); }},
      {"ams_sketch", [] { return std::make_unique<AmsSketch>(5, 16, 7); }},
      {"stable_sketch_exact",
       [] {
         return std::make_unique<StableSketch>(
             0.5, 50, 7, StableSketch::CounterMode::kExact);
       }},
      {"stable_sketch_morris",  // Morris mode: batched projection + Adds
       [] {
         return std::make_unique<StableSketch>(
             0.5, 50, 7, StableSketch::CounterMode::kMorris, 1e-3);
       }},
      {"sample_and_hold",
       [length] {
         SampleAndHoldOptions options;
         options.universe = kUniverse;
         options.stream_length_hint = length;
         options.p = 2.0;
         options.eps = 0.3;
         options.seed = 7;
         return std::make_unique<SampleAndHold>(options);
       }},
      {"full_sample_and_hold",
       [length] {
         FullSampleAndHoldOptions options;
         options.universe = kUniverse;
         options.stream_length_hint = length;
         options.p = 2.0;
         options.eps = 0.3;
         options.seed = 7;
         return std::make_unique<FullSampleAndHold>(options);
       }},
      {"fp_estimator",
       [length] {
         FpEstimatorOptions options;
         options.universe = kUniverse;
         options.stream_length_hint = length;
         options.p = 2.0;
         options.eps = 0.35;
         options.seed = 7;
         return std::make_unique<FpEstimator>(options);
       }},
  };

  bench::Section("ns per update (fresh instance per pass, same stream)");
  bench::CsvHeader(
      "sketch,mode,items,ns_per_item,mitems_per_sec,speedup_vs_scalar");
  int mismatches = 0;
  for (const Case& c : cases) {
    const std::unique_ptr<Sketch> scalar_alg = c.make();
    const double scalar_wall = TimeScalarPass(*scalar_alg, stream);
    const std::unique_ptr<Sketch> batch_alg = c.make();
    const double batch_wall = TimeBatchPass(*batch_alg, stream);
    EmitRow(c.name, "scalar", stream.size(), scalar_wall, 1.0);
    EmitRow(c.name, "batch", stream.size(), batch_wall,
            scalar_wall / batch_wall);
    const std::string mismatch = StateMismatch(*scalar_alg, *batch_alg);
    if (!mismatch.empty()) {
      bench::Row("  MISMATCH %s: batch and scalar final %s differ", c.name,
                 mismatch.c_str());
      ++mismatches;
    }
  }

  // MorrisCounter has no Item-keyed Update (it is a counter, not a
  // sketch), so it keeps a scalar-only row for continuity with the old
  // google-benchmark version of this file.
  {
    StateAccountant accountant;
    Rng rng(1);
    MorrisCounter counter(&accountant, &rng, 0.01);
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; i < length; ++i) counter.Increment();
    EmitRow("morris_counter", "scalar", length, SecondsSince(start), 1.0);
  }

  bench::Row("\npeak RSS: %.1f MiB", bench::PeakRssMiB());
  if (mismatches > 0) {
    bench::Row("%d row(s) with batch != scalar final state", mismatches);
    return 1;
  }
  return 0;
}
