// Unit tests for the Table 1 baselines: Misra-Gries, CountMin,
// CountSketch, SpaceSaving, plus the AMS F2 sketch. Each test pins the
// structure's classic guarantee and its Theta(m) state-change behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "baselines/ams_sketch.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "state/write_log.h"
#include "stream/generators.h"
#include "stream/stream_stats.h"

namespace fewstate {
namespace {

Stream TestStream(uint64_t n = 2000, uint64_t m = 40000, uint64_t seed = 3) {
  return ZipfStream(n, 1.3, m, seed);
}

// ---------- Misra-Gries ----------

TEST(MisraGries, EstimatesAreUnderestimatesWithBoundedError) {
  const Stream stream = TestStream();
  const StreamStats oracle(stream);
  const size_t k = 200;
  MisraGries mg(k);
  mg.Consume(stream);
  for (const auto& [item, f] : oracle.frequencies()) {
    const double est = mg.EstimateFrequency(item);
    EXPECT_LE(est, static_cast<double>(f));
    EXPECT_GE(est, static_cast<double>(f) -
                       static_cast<double>(stream.size()) / (k + 1));
  }
}

TEST(MisraGries, FindsAllTrueL1HeavyHitters) {
  const Stream stream = TestStream();
  const StreamStats oracle(stream);
  const double eps = 0.02;
  const double threshold = eps * static_cast<double>(stream.size());
  MisraGries mg(static_cast<size_t>(4.0 / eps));
  mg.Consume(stream);
  for (Item item : oracle.ItemsAbove(threshold)) {
    EXPECT_GE(mg.EstimateFrequency(item), 0.5 * threshold) << item;
  }
}

TEST(MisraGries, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 4);
  MisraGries mg(50);
  mg.Consume(stream);
  EXPECT_EQ(mg.accountant().state_changes(), stream.size());
}

TEST(MisraGries, CapacityIsRespected) {
  MisraGries mg(10);
  mg.Consume(PermutationStream(1000, 5));
  EXPECT_LE(mg.size(), 10u);
}

TEST(MisraGries, SingleItemStreamIsExact) {
  MisraGries mg(4);
  for (int i = 0; i < 100; ++i) mg.Update(7);
  EXPECT_DOUBLE_EQ(mg.EstimateFrequency(7), 100.0);
}

// ---------- CountMin ----------

TEST(CountMin, EstimatesAreOverestimatesWithBoundedError) {
  const Stream stream = TestStream();
  const StreamStats oracle(stream);
  CountMin cm(5, 1024, 11);
  cm.Consume(stream);
  const double slack =
      2.0 * static_cast<double>(stream.size()) / 1024.0 * 5;  // generous
  for (const auto& [item, f] : oracle.frequencies()) {
    const double est = cm.EstimateFrequency(item);
    EXPECT_GE(est, static_cast<double>(f));
    EXPECT_LE(est, static_cast<double>(f) + slack);
  }
}

TEST(CountMin, ConservativeUpdateIsTighter) {
  const Stream stream = TestStream(1000, 30000, 12);
  const StreamStats oracle(stream);
  CountMin plain(4, 256, 13, /*conservative=*/false);
  CountMin conservative(4, 256, 13, /*conservative=*/true);
  plain.Consume(stream);
  conservative.Consume(stream);
  double plain_err = 0, cons_err = 0;
  for (const auto& [item, f] : oracle.frequencies()) {
    plain_err += plain.EstimateFrequency(item) - static_cast<double>(f);
    cons_err += conservative.EstimateFrequency(item) - static_cast<double>(f);
    // Conservative update never underestimates either.
    EXPECT_GE(conservative.EstimateFrequency(item), static_cast<double>(f));
  }
  EXPECT_LE(cons_err, plain_err);
}

TEST(CountMin, ConservativeUpdateCoversRowsPast64) {
  // The estimate is the min over every row, so a row the update skipped
  // (index 64 and up) would pin every estimate at 0. Both update paths:
  // scalar `Update` and the `UpdateBatch` kernel behind `Consume`.
  const Stream stream = TestStream(1000, 20000, 17);
  const StreamStats oracle(stream);
  CountMin scalar(65, 256, 18, /*conservative=*/true);
  for (const Item item : stream) scalar.Update(item);
  CountMin batched(65, 256, 18, /*conservative=*/true);
  batched.Consume(stream);
  for (const auto& [item, f] : oracle.frequencies()) {
    EXPECT_GE(scalar.EstimateFrequency(item), static_cast<double>(f));
    EXPECT_GE(batched.EstimateFrequency(item), static_cast<double>(f));
  }
}

TEST(CountMin, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 14);
  CountMin cm(4, 512, 15);
  cm.Consume(stream);
  EXPECT_EQ(cm.accountant().state_changes(), stream.size());
}

TEST(CountMin, HeavyHittersByScanFindsPlantedItem) {
  Stream stream = PlantedHeavyHitterStream(5000, 20000, 42, 4000, 16);
  CountMin cm(4, 2048, 17);
  cm.Consume(stream);
  auto hh = cm.HeavyHittersByScan(5000, 2000.0);
  bool found = false;
  for (const auto& h : hh) found |= (h.item == 42);
  EXPECT_TRUE(found);
}

// ---------- CountSketch ----------

TEST(CountSketch, MedianEstimateIsAccurateForHeavyItems) {
  Stream stream = PlantedHeavyHitterStream(5000, 20000, 99, 5000, 18);
  CountSketch cs(5, 1024, 19);
  cs.Consume(stream);
  EXPECT_NEAR(cs.EstimateFrequency(99), 5000.0, 500.0);
}

TEST(CountSketch, F2EstimateIsAccurate) {
  const Stream stream = TestStream(2000, 40000, 20);
  const StreamStats oracle(stream);
  CountSketch cs(5, 2048, 21);
  cs.Consume(stream);
  EXPECT_NEAR(cs.EstimateF2() / oracle.Fp(2.0), 1.0, 0.15);
}

TEST(CountSketch, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 22);
  CountSketch cs(4, 512, 23);
  cs.Consume(stream);
  EXPECT_EQ(cs.accountant().state_changes(), stream.size());
}

// ---------- SpaceSaving ----------

TEST(SpaceSaving, EstimatesAreOverestimatesWithBoundedError) {
  const Stream stream = TestStream();
  const StreamStats oracle(stream);
  const size_t k = 400;
  SpaceSaving ss(k);
  ss.Consume(stream);
  for (const auto& [item, f] : oracle.frequencies()) {
    const double est = ss.EstimateFrequency(item);
    EXPECT_GE(est, static_cast<double>(f));
    EXPECT_LE(est,
              static_cast<double>(f) + static_cast<double>(stream.size()) / k);
  }
}

TEST(SpaceSaving, HoldsExactlyKEntriesOnceSaturated) {
  SpaceSaving ss(16);
  ss.Consume(PermutationStream(1000, 24));
  EXPECT_EQ(ss.size(), 16u);
  EXPECT_GT(ss.min_count(), 0u);
}

TEST(SpaceSaving, TopItemSurvivesReplacementPressure) {
  Stream stream = PlantedHeavyHitterStream(20000, 40000, 7, 8000, 25);
  SpaceSaving ss(64);
  ss.Consume(stream);
  EXPECT_GE(ss.EstimateFrequency(7), 8000.0);
  auto hh = ss.HeavyHitters(7000.0);
  bool found = false;
  for (const auto& h : hh) found |= (h.item == 7);
  EXPECT_TRUE(found);
}

TEST(SpaceSaving, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 26);
  SpaceSaving ss(64);
  ss.Consume(stream);
  EXPECT_EQ(ss.accountant().state_changes(), stream.size());
}

TEST(SpaceSaving, MinCountIsZeroWhileNotFull) {
  SpaceSaving ss(100);
  ss.Update(1);
  ss.Update(2);
  EXPECT_EQ(ss.min_count(), 0u);
}

// Brute-force SpaceSaving: a vector of entries, a linear scan for the
// minimum, and ties going to the entry whose count was reached earliest.
// It keeps its own accountant figures and per-cell write counts, charged
// as the summary charges them (every write to the first slot's words).
class SpaceSavingOracle {
 public:
  struct Entry {
    Item item;
    uint64_t count;
    uint64_t error;
    uint64_t reached;  // clock tick at which `count` was reached
  };

  explicit SpaceSavingOracle(size_t k) : k_(k) {}

  void Update(Item item) {
    ++updates;
    ++reads;
    ++changes;
    if (Entry* entry = Find(item)) {
      ++entry->count;
      entry->reached = ++clock_;
      Write(1, 1);
      return;
    }
    Write(0, 3);
    if (entries_.size() < k_) {
      entries_.push_back(Entry{item, 1, 0, ++clock_});
      return;
    }
    Entry& victim = entries_[Victim()];
    const uint64_t min = victim.count;
    victim = Entry{item, min + 1, min, ++clock_};
  }

  // Source entries in eviction order (ascending count, earliest first),
  // then the union pruned back to k by the same tie rule.
  void Merge(const SpaceSavingOracle& src) {
    ++updates;
    const uint64_t words_before = writes;
    std::vector<Entry> incoming = src.entries_;
    std::sort(incoming.begin(), incoming.end(),
              [](const Entry& a, const Entry& b) {
                if (a.count != b.count) return a.count < b.count;
                return a.reached < b.reached;
              });
    for (const Entry& in : incoming) {
      ++reads;
      if (Entry* mine = Find(in.item)) {
        mine->count += in.count;
        mine->error += in.error;
        mine->reached = ++clock_;
        Write(1, 2);
      } else {
        entries_.push_back(Entry{in.item, in.count, in.error, ++clock_});
        Write(0, 3);
      }
    }
    while (entries_.size() > k_) {
      entries_.erase(entries_.begin() + static_cast<long>(Victim()));
      Write(0, 3);
    }
    if (writes != words_before) ++changes;
  }

  uint64_t min_count() const {
    return entries_.size() < k_ ? 0 : entries_[Victim()].count;
  }
  const std::vector<Entry>& entries() const { return entries_; }

  uint64_t updates = 0;
  uint64_t changes = 0;
  uint64_t writes = 0;
  uint64_t reads = 0;
  std::map<uint64_t, uint64_t> cell_writes;  // offset from base -> writes

 private:
  Entry* Find(Item item) {
    for (Entry& entry : entries_) {
      if (entry.item == item) return &entry;
    }
    return nullptr;
  }

  size_t Victim() const {
    size_t victim = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      const Entry& a = entries_[i];
      const Entry& b = entries_[victim];
      if (a.count < b.count || (a.count == b.count && a.reached < b.reached)) {
        victim = i;
      }
    }
    return victim;
  }

  void Write(uint64_t offset, uint64_t words) {
    writes += words;
    for (uint64_t w = 0; w < words; ++w) ++cell_writes[offset + w];
  }

  size_t k_;
  std::vector<Entry> entries_;
  uint64_t clock_ = 0;
};

// The oracle's top `n` with ties: every entry whose count reaches the
// n-th largest count (all entries when there are fewer than n), by item.
std::vector<Item> OracleTopWithTies(const SpaceSavingOracle& oracle,
                                    size_t n) {
  std::vector<Item> top;
  if (n == 0) return top;
  std::vector<uint64_t> counts;
  for (const SpaceSavingOracle::Entry& entry : oracle.entries()) {
    counts.push_back(entry.count);
  }
  uint64_t floor = 0;
  if (counts.size() >= n) {
    std::sort(counts.rbegin(), counts.rend());
    floor = counts[n - 1];
  }
  for (const SpaceSavingOracle::Entry& entry : oracle.entries()) {
    if (entry.count >= floor) top.push_back(entry.item);
  }
  std::sort(top.begin(), top.end());
  return top;
}

void ExpectMatchesOracle(const SpaceSaving& ss, const SpaceSavingOracle& oracle,
                         const std::string& where) {
  ASSERT_EQ(ss.size(), oracle.entries().size()) << where;
  ASSERT_EQ(ss.min_count(), oracle.min_count()) << where;
  std::vector<Item> expected;
  for (const SpaceSavingOracle::Entry& entry : oracle.entries()) {
    ASSERT_EQ(ss.EstimateFrequency(entry.item),
              static_cast<double>(entry.count))
        << where << " item " << entry.item;
    expected.push_back(entry.item);
  }
  std::vector<Item> candidates;
  ss.AppendCandidates(&candidates);
  std::sort(candidates.begin(), candidates.end());
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(candidates, expected) << where;
  // The top-bucket walk takes whole buckets from the highest count down,
  // so it returns exactly the top n with ties, each item once.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                         ss.capacity() + 1}) {
    std::vector<Item> top;
    ss.AppendTopCandidates(n, &top);
    std::sort(top.begin(), top.end());
    ASSERT_EQ(top, OracleTopWithTies(oracle, n)) << where << " top " << n;
  }
  const StateAccountant& acc = ss.accountant();
  ASSERT_EQ(acc.updates(), oracle.updates) << where;
  ASSERT_EQ(acc.state_changes(), oracle.changes) << where;
  ASSERT_EQ(acc.word_writes(), oracle.writes) << where;
  ASSERT_EQ(acc.word_reads(), oracle.reads) << where;
}

// Per-cell write counts the log saw, as offsets from the summary's base.
std::map<uint64_t, uint64_t> CellWrites(const WriteLog& log) {
  std::map<uint64_t, uint64_t> cells;
  for (const WriteRecord& record : log.records()) ++cells[record.cell];
  return cells;
}

// Steps `ss` and `oracle` through `stream`, comparing after every update.
void StepBoth(SpaceSaving* ss, SpaceSavingOracle* oracle,
              const Stream& stream, const std::string& where) {
  for (size_t t = 0; t < stream.size(); ++t) {
    ss->Update(stream[t]);
    oracle->Update(stream[t]);
    ExpectMatchesOracle(*ss, *oracle, where + " t=" + std::to_string(t));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SpaceSaving, MatchesBruteForceOracleStepByStep) {
  for (const size_t k : {size_t{1}, size_t{2}, size_t{16}, size_t{64}}) {
    for (const bool zipf : {true, false}) {
      // A uniform stream over a few times k items keeps many entries tied
      // at the minimum, so the tie rule decides most evictions.
      const Stream stream = zipf ? ZipfStream(4 * k + 200, 1.1, 6000, 40 + k)
                                 : UniformStream(3 * k + 2, 6000, 50 + k);
      const std::string where =
          std::string(zipf ? "zipf" : "uniform") + " k=" + std::to_string(k);
      SpaceSaving ss(k);
      WriteLog log;
      ss.mutable_accountant()->set_write_sink(&log);
      SpaceSavingOracle oracle(k);
      StepBoth(&ss, &oracle, stream, where);
      if (HasFatalFailure()) return;
      // Every write lands on the first slot's three words.
      EXPECT_EQ(CellWrites(log), oracle.cell_writes) << where;
      ss.mutable_accountant()->set_write_sink(nullptr);
    }
  }
}

TEST(SpaceSaving, MergeMatchesBruteForceOracle) {
  for (const size_t k : {size_t{1}, size_t{2}, size_t{16}, size_t{64}}) {
    // Item-disjoint halves (even / odd identities) whose union exceeds k.
    Stream even = ZipfStream(4 * k + 100, 1.1, 3000, 60 + k);
    Stream odd = UniformStream(3 * k + 2, 3000, 70 + k);
    for (Item& item : even) item *= 2;
    for (Item& item : odd) item = 2 * item + 1;
    const std::string where = "k=" + std::to_string(k);
    SpaceSaving a(k), b(k);
    SpaceSavingOracle oracle_a(k), oracle_b(k);
    StepBoth(&a, &oracle_a, even, where + " a");
    StepBoth(&b, &oracle_b, odd, where + " b");
    if (HasFatalFailure()) return;
    ASSERT_GT(a.size() + b.size(), k) << where;

    ASSERT_TRUE(a.MergeFrom(b).ok()) << where;
    oracle_a.Merge(oracle_b);
    ExpectMatchesOracle(a, oracle_a, where + " merged");
    if (HasFatalFailure()) return;
    // The merged summary's tie order drives its later evictions.
    StepBoth(&a, &oracle_a, UniformStream(4 * k + 8, 2000, 80 + k),
             where + " after merge");
    if (HasFatalFailure()) return;

    // A fresh summary merged from a populated one (a checkpoint capture)
    // tracks exactly the same entries.
    SpaceSaving fresh(k);
    SpaceSavingOracle oracle_fresh(k);
    ASSERT_TRUE(fresh.MergeFrom(a).ok()) << where;
    oracle_fresh.Merge(oracle_a);
    ExpectMatchesOracle(fresh, oracle_fresh, where + " fresh");
    if (HasFatalFailure()) return;
    StepBoth(&fresh, &oracle_fresh, even, where + " fresh after merge");
  }
}

// ---------- AMS ----------

TEST(AmsSketch, F2EstimateWithinTolerance) {
  const Stream stream = TestStream(2000, 40000, 27);
  const StreamStats oracle(stream);
  AmsSketch ams(5, 64, 28);
  ams.Consume(stream);
  EXPECT_NEAR(ams.EstimateF2() / oracle.Fp(2.0), 1.0, 0.2);
}

TEST(AmsSketch, ChangesStateOnEveryUpdate) {
  const Stream stream = TestStream(500, 5000, 29);
  AmsSketch ams(3, 8, 30);
  ams.Consume(stream);
  EXPECT_EQ(ams.accountant().state_changes(), stream.size());
}

TEST(AmsSketch, SingleItemStreamGivesSquaredCount) {
  AmsSketch ams(5, 32, 31);
  for (int i = 0; i < 500; ++i) ams.Update(3);
  // One item of frequency 500: F2 = 250000 exactly (signs square away).
  EXPECT_NEAR(ams.EstimateF2(), 250000.0, 1.0);
}

}  // namespace
}  // namespace fewstate
