// Differential verification of the DRAM write-back cache tier
// (src/nvm/cache_tier.h) against a brute-force oracle.
//
// The oracle models each set as an MRU-ordered list of lines with a
// std::set of dirty word offsets — the textbook stack formulation of LRU,
// with none of the implementation's stamp/bitmask machinery. With sets=1
// it is exactly the fully-associative stack model. Both are strict LRU,
// so every write must agree on hit/miss, on the evicted line, and on the
// written-back words; the differential runs on >= 10^5-write seeded
// random traces, and on the real write traces of every batch-capable
// sketch. Alongside: hand-built traces pinning eviction/LRU order, the
// flush-conservation invariant, and `CacheSpec{0}` == uncached bitwise
// (report-for-report, including live-vs-replay identity).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/sketch.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "nvm/cache_tier.h"
#include "nvm/live_sink.h"
#include "nvm/nvm_adapter.h"
#include "state/write_log.h"
#include "state/write_sink.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

// ---------------------------------------------------------------------------
// The brute-force oracle.
// ---------------------------------------------------------------------------

class CacheOracle {
 public:
  explicit CacheOracle(const CacheSpec& spec) : spec_(spec) {
    sets_.resize(spec.sets);
  }

  // Applies one write; returns the written-back cells of the evicted line
  // (ascending, matching the tier's canonical order), empty if none.
  std::vector<uint64_t> Write(uint64_t cell) {
    ++total_writes;
    const uint64_t tag = cell / spec_.line_words;
    const uint64_t offset = cell % spec_.line_words;
    std::list<Line>& set = sets_[tag % spec_.sets];

    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->tag != tag) continue;
      ++hits;
      if (it->dirty.count(offset) > 0) {
        ++absorbed_writes;
      } else {
        it->dirty.insert(offset);
        ++writebacks_pending;
      }
      set.splice(set.begin(), set, it);  // move to MRU
      return {};
    }

    ++misses;
    std::vector<uint64_t> evicted;
    if (set.size() == spec_.ways) {
      const Line& victim = set.back();  // LRU
      if (victim.dirty.empty()) {
        ++clean_evictions;
      } else {
        ++dirty_evictions;
        for (uint64_t w : victim.dirty) {
          evicted.push_back(victim.tag * spec_.line_words + w);
        }
        writebacks += victim.dirty.size();
        writebacks_pending -= victim.dirty.size();
      }
      set.pop_back();
    }
    set.push_front(Line{tag, {offset}});
    ++writebacks_pending;
    return evicted;
  }

  // Flushes every dirty word; returns the cells in ascending order (the
  // tier's flush order is set-major, so callers compare sorted).
  std::vector<uint64_t> Flush() {
    std::vector<uint64_t> out;
    for (std::list<Line>& set : sets_) {
      for (Line& line : set) {
        for (uint64_t w : line.dirty) {
          out.push_back(line.tag * spec_.line_words + w);
        }
        writebacks += line.dirty.size();
        writebacks_pending -= line.dirty.size();
        line.dirty.clear();
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  uint64_t total_writes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t absorbed_writes = 0;
  uint64_t dirty_evictions = 0;
  uint64_t clean_evictions = 0;
  uint64_t writebacks = 0;
  uint64_t writebacks_pending = 0;

 private:
  struct Line {
    uint64_t tag;
    std::set<uint64_t> dirty;  // word offsets
  };

  CacheSpec spec_;
  std::vector<std::list<Line>> sets_;
};

// An independent Mattson stack for reuse distances (MRU at the front;
// distance = #distinct lines touched since the line's last access).
class ReuseOracle {
 public:
  explicit ReuseOracle(uint64_t cap) : cap_(cap) {}

  void Access(uint64_t line_tag, std::array<uint64_t, 65>* hist,
              uint64_t* cold) {
    for (size_t i = 0; i < stack_.size(); ++i) {
      if (stack_[i] == line_tag) {
        ++(*hist)[static_cast<size_t>(
            CacheStats::ReuseBucketOf(static_cast<uint64_t>(i)))];
        stack_.erase(stack_.begin() + static_cast<long>(i));
        stack_.insert(stack_.begin(), line_tag);
        return;
      }
    }
    ++(*cold);
    stack_.insert(stack_.begin(), line_tag);
    if (stack_.size() > cap_) stack_.pop_back();
  }

 private:
  uint64_t cap_;
  std::vector<uint64_t> stack_;
};

void ExpectStatsMatchOracle(const CacheStats& stats, const CacheOracle& oracle,
                            const std::string& context) {
  EXPECT_EQ(stats.total_writes, oracle.total_writes) << context;
  EXPECT_EQ(stats.hits, oracle.hits) << context;
  EXPECT_EQ(stats.misses, oracle.misses) << context;
  EXPECT_EQ(stats.absorbed_writes, oracle.absorbed_writes) << context;
  EXPECT_EQ(stats.dirty_evictions, oracle.dirty_evictions) << context;
  EXPECT_EQ(stats.clean_evictions, oracle.clean_evictions) << context;
  EXPECT_EQ(stats.writebacks, oracle.writebacks) << context;
  EXPECT_EQ(stats.writebacks_pending, oracle.writebacks_pending) << context;
}

// Drives one trace through tier and oracle, comparing every per-write
// write-back list and the final counters + flush output.
void RunDifferential(const CacheSpec& spec, const std::vector<uint64_t>& trace,
                     const std::string& context) {
  CacheTier tier(spec);
  CacheOracle oracle(spec);

  size_t i = 0;
  for (uint64_t cell : trace) {
    std::vector<uint64_t> tier_wb;
    tier.Write(cell, [&](uint64_t victim) { tier_wb.push_back(victim); });
    const std::vector<uint64_t> oracle_wb = oracle.Write(cell);
    ASSERT_EQ(tier_wb, oracle_wb)
        << context << " diverged at write " << i << " (cell " << cell << ")";
    ++i;
  }
  ExpectStatsMatchOracle(tier.stats(), oracle, context + " pre-flush");

  std::vector<uint64_t> tier_flush;
  tier.Flush([&](uint64_t victim) { tier_flush.push_back(victim); });
  std::sort(tier_flush.begin(), tier_flush.end());
  EXPECT_EQ(tier_flush, oracle.Flush()) << context << " flush";
  ExpectStatsMatchOracle(tier.stats(), oracle, context + " post-flush");
  EXPECT_TRUE(tier.flushed()) << context;
}

std::vector<uint64_t> RandomTrace(uint64_t writes, uint64_t universe,
                                  uint32_t seed) {
  // A mix of a hot region (dense reuse) and a uniform tail (thrash), so
  // both the hit path and the eviction path run hot.
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint64_t> uniform(0, universe - 1);
  std::uniform_int_distribution<uint64_t> hot(0, universe / 64);
  std::bernoulli_distribution pick_hot(0.6);
  std::vector<uint64_t> trace;
  trace.reserve(writes);
  for (uint64_t i = 0; i < writes; ++i) {
    trace.push_back(pick_hot(rng) ? hot(rng) : uniform(rng));
  }
  return trace;
}

std::vector<CacheSpec> DifferentialGeometries() {
  std::vector<CacheSpec> specs;
  {
    CacheSpec s;  // fully associative: the classic stack model
    s.sets = 1;
    s.ways = 8;
    s.line_words = 8;
    specs.push_back(s);
  }
  {
    CacheSpec s;  // direct-mapped, single-word lines
    s.sets = 64;
    s.ways = 1;
    s.line_words = 1;
    specs.push_back(s);
  }
  {
    CacheSpec s;  // set-associative middle ground
    s.sets = 16;
    s.ways = 4;
    s.line_words = 4;
    specs.push_back(s);
  }
  {
    CacheSpec s;  // wide lines, max dirty-mask width
    s.sets = 4;
    s.ways = 2;
    s.line_words = 64;
    specs.push_back(s);
  }
  return specs;
}

TEST(CacheTierDifferential, MatchesOracleOnSeededRandomTraces) {
  // >= 10^5 writes per geometry (the acceptance floor for the oracle
  // differential), three seeds each.
  for (const CacheSpec& spec : DifferentialGeometries()) {
    for (uint32_t seed : {11u, 12u, 13u}) {
      const std::vector<uint64_t> trace =
          RandomTrace(/*writes=*/100000, /*universe=*/4096, seed);
      RunDifferential(
          spec, trace,
          "sets=" + std::to_string(spec.sets) + " ways=" +
              std::to_string(spec.ways) + " line=" +
              std::to_string(spec.line_words) + " seed=" +
              std::to_string(seed));
    }
  }
}

struct Maker {
  const char* name;
  std::function<std::unique_ptr<Sketch>()> make;
};

// The batch-capable roster (mirrors tests/batch_update_test.cc): every
// sketch family's real write trace, captured through a WriteLog.
std::vector<Maker> SketchRoster() {
  return {
      {"misra_gries", [] { return std::make_unique<MisraGries>(64); }},
      {"count_min",
       [] { return std::make_unique<CountMin>(4, 256, 7, false); }},
      {"count_min_conservative",
       [] { return std::make_unique<CountMin>(4, 256, 7, true); }},
      {"count_sketch",
       [] { return std::make_unique<CountSketch>(4, 256, 9); }},
      {"space_saving", [] { return std::make_unique<SpaceSaving>(64); }},
      {"stable_exact",
       [] {
         return std::make_unique<StableSketch>(
             0.5, 16, 11, StableSketch::CounterMode::kExact);
       }},
      {"stable_morris",
       [] {
         return std::make_unique<StableSketch>(
             0.5, 16, 11, StableSketch::CounterMode::kMorris, 0.2);
       }},
  };
}

std::vector<uint64_t> SketchWriteTrace(const Maker& maker) {
  const std::unique_ptr<Sketch> sketch = maker.make();
  WriteLog log;
  sketch->mutable_accountant()->set_write_sink(&log);
  for (const Item item : ZipfStream(5000, 1.2, 30000, /*seed=*/321)) {
    sketch->Update(item);
  }
  sketch->mutable_accountant()->set_write_sink(nullptr);
  EXPECT_EQ(log.dropped(), 0u) << maker.name;
  std::vector<uint64_t> trace;
  trace.reserve(log.records().size());
  for (const WriteRecord& record : log.records()) {
    trace.push_back(record.cell);
  }
  return trace;
}

TEST(CacheTierDifferential, MatchesOracleOnEverySketchTrace) {
  for (const Maker& maker : SketchRoster()) {
    const std::vector<uint64_t> trace = SketchWriteTrace(maker);
    ASSERT_FALSE(trace.empty()) << maker.name;
    for (const CacheSpec& spec : DifferentialGeometries()) {
      RunDifferential(spec, trace,
                      std::string(maker.name) + " sets=" +
                          std::to_string(spec.sets) + " ways=" +
                          std::to_string(spec.ways));
    }
  }
}

TEST(CacheTierDifferential, ReuseHistogramMatchesIndependentStack) {
  CacheSpec spec;
  spec.sets = 8;
  spec.ways = 4;
  spec.line_words = 4;
  spec.reuse_stack_max = 128;  // exercise the capped-stack (cold) path

  CacheTier tier(spec);
  ReuseOracle oracle(spec.reuse_stack_max);
  std::array<uint64_t, 65> expect_hist{};
  uint64_t expect_cold = 0;

  for (uint64_t cell : RandomTrace(/*writes=*/100000, /*universe=*/2048,
                                   /*seed=*/77)) {
    tier.Write(cell, [](uint64_t) {});
    oracle.Access(cell / spec.line_words, &expect_hist, &expect_cold);
  }
  EXPECT_EQ(tier.stats().reuse_cold, expect_cold);
  for (size_t b = 0; b < expect_hist.size(); ++b) {
    EXPECT_EQ(tier.stats().reuse_hist[b], expect_hist[b]) << "bucket " << b;
  }
}

// ---------------------------------------------------------------------------
// Hand-built traces: LRU and eviction order pinned exactly.
// ---------------------------------------------------------------------------

std::vector<uint64_t> Writebacks(CacheTier* tier,
                                 std::initializer_list<uint64_t> cells) {
  std::vector<uint64_t> out;
  for (uint64_t cell : cells) {
    tier->Write(cell, [&](uint64_t victim) { out.push_back(victim); });
  }
  return out;
}

TEST(CacheTierLru, EvictsLeastRecentlyUsedNotLeastRecentlyInstalled) {
  CacheSpec spec;
  spec.sets = 1;
  spec.ways = 2;
  spec.line_words = 1;
  CacheTier tier(spec);

  // A, B fill the set; re-touching A makes B the LRU line; C must evict
  // B (dirty, one word) — not A, the older *install*.
  EXPECT_TRUE(Writebacks(&tier, {0, 1, 0}).empty());
  EXPECT_EQ(Writebacks(&tier, {2}), (std::vector<uint64_t>{1}));
  EXPECT_EQ(tier.stats().dirty_evictions, 1u);

  // The set now holds {A, C}; touching neither, D evicts A (LRU again).
  EXPECT_EQ(Writebacks(&tier, {3}), (std::vector<uint64_t>{0}));
}

TEST(CacheTierLru, WritebackCoversExactlyTheDirtyWordsAscending) {
  CacheSpec spec;
  spec.sets = 1;
  spec.ways = 1;
  spec.line_words = 8;
  CacheTier tier(spec);

  // Dirty words 6, 2, 2, 4 of line 0 (the repeat is absorbed), then touch
  // line 1: the eviction writes back exactly {2, 4, 6}, ascending.
  EXPECT_EQ(Writebacks(&tier, {6, 2, 2, 4, 8}),
            (std::vector<uint64_t>{2, 4, 6}));
  EXPECT_EQ(tier.stats().absorbed_writes, 1u);
  EXPECT_EQ(tier.stats().writebacks, 3u);
  EXPECT_EQ(tier.stats().writebacks_pending, 1u);  // cell 8

  // Flush retires the remaining dirty word; a second flush emits nothing.
  std::vector<uint64_t> flushed;
  tier.Flush([&](uint64_t victim) { flushed.push_back(victim); });
  EXPECT_EQ(flushed, (std::vector<uint64_t>{8}));
  tier.Flush([&](uint64_t victim) { flushed.push_back(victim); });
  EXPECT_EQ(flushed, (std::vector<uint64_t>{8}));
  EXPECT_TRUE(tier.flushed());
}

TEST(CacheTierLru, SetsPartitionTheLineSpace) {
  CacheSpec spec;
  spec.sets = 2;
  spec.ways = 1;
  spec.line_words = 1;
  CacheTier tier(spec);

  // Lines 0 and 2 map to set 0, line 1 to set 1: writing 0 then 1 evicts
  // nothing (different sets), writing 2 evicts line 0 only.
  EXPECT_TRUE(Writebacks(&tier, {0, 1}).empty());
  EXPECT_EQ(Writebacks(&tier, {2}), (std::vector<uint64_t>{0}));
  EXPECT_EQ(tier.stats().clean_evictions, 0u);
  EXPECT_EQ(tier.stats().dirty_evictions, 1u);
}

// ---------------------------------------------------------------------------
// Conservation: absorbed + pending + writebacks == total, at every step.
// ---------------------------------------------------------------------------

TEST(CacheTierConservation, HoldsAtEveryWriteAndThroughFlush) {
  CacheSpec spec;
  spec.sets = 4;
  spec.ways = 2;
  spec.line_words = 8;
  CacheTier tier(spec);

  uint64_t device_writes = 0;
  const auto writeback = [&](uint64_t) { ++device_writes; };
  for (uint64_t cell : RandomTrace(/*writes=*/100000, /*universe=*/1024,
                                   /*seed=*/5)) {
    tier.Write(cell, writeback);
    const CacheStats& s = tier.stats();
    ASSERT_EQ(s.absorbed_writes + s.writebacks_pending + s.writebacks,
              s.total_writes);
    ASSERT_EQ(s.writebacks, device_writes);  // every write-back was emitted
    ASSERT_EQ(s.hits + s.misses, s.total_writes);
  }
  tier.Flush(writeback);
  const CacheStats& s = tier.stats();
  EXPECT_EQ(s.writebacks_pending, 0u);
  EXPECT_EQ(s.absorbed_writes + s.writebacks, s.total_writes);
  EXPECT_EQ(s.writebacks, device_writes);
}

// ---------------------------------------------------------------------------
// CacheSpec{0} == uncached, bitwise — report for report, live and replay.
// ---------------------------------------------------------------------------

void ExpectReportsIdentical(const NvmReplayReport& a, const NvmReplayReport& b,
                            const std::string& context) {
  EXPECT_EQ(a.writes_replayed, b.writes_replayed) << context;
  EXPECT_EQ(a.reads_replayed, b.reads_replayed) << context;
  EXPECT_EQ(a.max_cell_wear, b.max_cell_wear) << context;
  EXPECT_EQ(a.wear_imbalance, b.wear_imbalance) << context;
  EXPECT_EQ(a.energy_nj, b.energy_nj) << context;
  EXPECT_EQ(a.latency_ns, b.latency_ns) << context;
  EXPECT_EQ(a.projected_stream_replays_to_failure,
            b.projected_stream_replays_to_failure)
      << context;
  EXPECT_EQ(a.dropped_writes, b.dropped_writes) << context;
  EXPECT_EQ(a.cache_enabled, b.cache_enabled) << context;
  EXPECT_EQ(a.cache.total_writes, b.cache.total_writes) << context;
  EXPECT_EQ(a.cache.hits, b.cache.hits) << context;
  EXPECT_EQ(a.cache.absorbed_writes, b.cache.absorbed_writes) << context;
  EXPECT_EQ(a.cache.dirty_evictions, b.cache.dirty_evictions) << context;
  EXPECT_EQ(a.cache.writebacks, b.cache.writebacks) << context;
}

NvmSpec SmallSpec() {
  NvmSpec spec;
  spec.config.num_cells = 1 << 12;
  spec.config.endurance = 1000;
  return spec;
}

TEST(CacheDisabled, LivePathIsBitwiseIdenticalToUncachedAndToReplay) {
  for (const Maker& maker : SketchRoster()) {
    // One stream pass, three sinks: a disabled-cache live sink, a plain
    // live sink, and a log for the replay cross-checks.
    NvmSpec disabled_spec = SmallSpec();
    disabled_spec.cache = CacheSpec{};  // sets == 0: no tier
    LiveNvmSink with_disabled(disabled_spec);
    LiveNvmSink plain(SmallSpec());
    WriteLog log;
    TeeSink tee({&with_disabled, &plain, &log});

    const std::unique_ptr<Sketch> sketch = maker.make();
    sketch->mutable_accountant()->set_write_sink(&tee);
    for (const Item item : ZipfStream(5000, 1.2, 30000, /*seed=*/321)) {
      sketch->Update(item);
    }
    tee.Flush();
    ASSERT_EQ(log.dropped(), 0u) << maker.name;

    EXPECT_EQ(with_disabled.cache(), nullptr) << maker.name;
    ExpectReportsIdentical(with_disabled.Report(), plain.Report(),
                           std::string(maker.name) + " live disabled==plain");

    // Replay identity with a disabled spec.
    const NvmReplayReport replayed =
        ReplayOnNvm(log, sketch->accountant(), disabled_spec);
    ExpectReportsIdentical(with_disabled.Report(), replayed,
                           std::string(maker.name) + " live==replay");
    sketch->mutable_accountant()->set_write_sink(nullptr);
  }
}

TEST(CacheEnabled, LiveAndReplayAgreeReportForReport) {
  CacheSpec cache;
  cache.sets = 8;
  cache.ways = 4;
  cache.line_words = 8;
  for (const Maker& maker : SketchRoster()) {
    NvmSpec cached_spec = SmallSpec();
    cached_spec.cache = cache;
    LiveNvmSink live(cached_spec);
    WriteLog log;
    TeeSink tee({&live, &log});

    const std::unique_ptr<Sketch> sketch = maker.make();
    sketch->mutable_accountant()->set_write_sink(&tee);
    for (const Item item : ZipfStream(5000, 1.2, 30000, /*seed=*/321)) {
      sketch->Update(item);
    }
    tee.Flush();
    ASSERT_EQ(log.dropped(), 0u) << maker.name;

    const NvmReplayReport replayed =
        ReplayOnNvm(log, sketch->accountant(), cached_spec);
    ExpectReportsIdentical(live.Report(), replayed,
                           std::string(maker.name) + " cached live==replay");
    // The devices behind the two paths agree cell for cell, too: a sink
    // fed from the log after the fact ends on the live sink's device.
    LiveNvmSink replay(cached_spec);
    for (const WriteRecord& record : log.records()) {
      replay.OnWrite(record.epoch, record.cell);
    }
    replay.Flush();
    EXPECT_EQ(live.device().cell_wear(), replay.device().cell_wear())
        << maker.name;
    sketch->mutable_accountant()->set_write_sink(nullptr);
  }
}

TEST(CacheSpecValidation, RejectsBadGeometriesAcceptsDisabled) {
  EXPECT_TRUE(CacheSpec{}.Validate().ok());  // disabled needs no checks

  CacheSpec no_ways;
  no_ways.sets = 4;
  no_ways.ways = 0;
  EXPECT_FALSE(no_ways.Validate().ok());

  CacheSpec wide;
  wide.sets = 4;
  wide.line_words = 65;  // would overflow the 64-bit dirty mask
  EXPECT_FALSE(wide.Validate().ok());

  CacheSpec ok;
  ok.sets = 4;
  EXPECT_TRUE(ok.Validate().ok());
  NvmSpec nvm;
  nvm.cache = wide;
  EXPECT_FALSE(nvm.Validate().ok());  // NvmSpec validation covers the cache
  nvm.cache = ok;
  EXPECT_TRUE(nvm.Validate().ok());
}

}  // namespace
}  // namespace fewstate
