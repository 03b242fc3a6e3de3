// Seeded workload inputs: a Zipf trace written with `WriteTrace`, its
// continuation, and the exact oracle (heaviest items, F_2), all computed
// once per seed and never timed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "api/item_source.h"
#include "common/random.h"
#include "harness.h"
#include "shard/sharded_engine.h"
#include "stream/generators.h"

namespace perfbench {

namespace {

constexpr double kZipfSkew = 1.1;
constexpr size_t kOracleTop = 64;

uint64_t NameSalt(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : name) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

double ExactF2(const Stream& items, uint64_t limit) {
  std::unordered_map<Item, uint64_t> counts;
  const uint64_t n = std::min<uint64_t>(limit, items.size());
  for (uint64_t i = 0; i < n; ++i) ++counts[items[i]];
  double f2 = 0.0;
  for (const auto& kv : counts) {
    f2 += static_cast<double>(kv.second) * static_cast<double>(kv.second);
  }
  return f2;
}

// Order-sensitive checksum of a trace.
uint64_t TraceChecksum(const Stream& items) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ items.size();
  for (Item item : items) h = fewstate::Mix64(h ^ item) + 0x632be59bd9b4e019ULL;
  return h;
}

}  // namespace

Stream ReadItems(const std::string& path, uint64_t limit) {
  fewstate::FileSource source(path);
  Gate(source.ok(), "cannot open trace " + path + ": " +
                        source.status().ToString());
  Stream out;
  if (source.SizeHint().has_value()) {
    const uint64_t hint = *source.SizeHint();
    out.reserve(limit == 0 ? hint : std::min(limit, hint));
  }
  std::vector<Item> buf(fewstate::kDefaultDrainBatchItems);
  while (limit == 0 || out.size() < limit) {
    size_t want = buf.size();
    if (limit != 0) want = std::min<uint64_t>(want, limit - out.size());
    const size_t got = source.NextBatch(buf.data(), want);
    if (got == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + got);
  }
  Gate(source.status().ok(),
       "trace " + path + " did not read cleanly: " + source.status().ToString());
  return out;
}

int GenerateInputs(const WorkloadSpec& spec, bool small, uint64_t seed,
                   const std::string& dir) {
  const uint64_t trace_seed = fewstate::Mix64(seed ^ NameSalt(spec.name));
  // The recovery tail replays `recover_tail` items of shard 0 past its last
  // snapshot, which may lie at the very end of the trace; the continuation
  // must hold at least that many shard-0 items.
  fewstate::ShardedEngineOptions options;
  options.shards = spec.shards;
  const fewstate::ShardedEngine partitioner(options);
  uint64_t extra = spec.shards == 1 ? spec.recover_tail : 4 * spec.recover_tail;
  Stream all;
  for (;;) {
    all = fewstate::ZipfStream(spec.flows, kZipfSkew, spec.items + extra,
                               trace_seed);
    uint64_t shard0 = 0;
    for (uint64_t i = spec.items; i < all.size(); ++i) {
      shard0 += partitioner.ShardOf(all[i]) == 0 ? 1 : 0;
    }
    if (shard0 >= spec.recover_tail) break;
    extra *= 2;
  }
  const Stream trace(all.begin(), all.begin() + spec.items);
  const Stream tail(all.begin() + spec.items, all.end());

  std::unordered_map<Item, uint64_t> counts;
  counts.reserve(spec.flows);
  for (Item item : trace) ++counts[item];
  std::vector<std::pair<Item, uint64_t>> ranked(counts.begin(), counts.end());
  const size_t keep = std::min(kOracleTop, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  ranked.resize(keep);
  const uint64_t fp_prefix =
      std::min<uint64_t>(KernelPrefix("fp_estimator", small), trace.size());

  const std::string trace_path = dir + "/trace.u64";
  const std::string tail_path = dir + "/tail.u64";
  if (!fewstate::WriteTrace(trace_path, trace).ok() ||
      !fewstate::WriteTrace(tail_path, tail).ok()) {
    std::fprintf(stderr, "cannot write traces under %s\n", dir.c_str());
    return 1;
  }
  // The oracle file is written last: its presence marks complete inputs.
  std::ofstream meta(dir + "/oracle.txt");
  char line[128];
  std::snprintf(line, sizeof(line), "items %llu\ntail_items %llu\n",
                static_cast<unsigned long long>(trace.size()),
                static_cast<unsigned long long>(tail.size()));
  meta << line;
  std::snprintf(line, sizeof(line), "checksum %llu\ntail_checksum %llu\n",
                static_cast<unsigned long long>(TraceChecksum(trace)),
                static_cast<unsigned long long>(TraceChecksum(tail)));
  meta << line;
  std::snprintf(line, sizeof(line), "fp_prefix %llu\nf2_prefix %.17g\n",
                static_cast<unsigned long long>(fp_prefix),
                ExactF2(trace, fp_prefix));
  meta << line;
  for (const auto& [item, count] : ranked) {
    meta << "top " << item << " " << count << "\n";
  }
  meta.close();
  if (!meta) {
    std::fprintf(stderr, "cannot write oracle under %s\n", dir.c_str());
    return 1;
  }
  return 0;
}

Inputs LoadInputs(const std::string& dir) {
  Inputs in;
  in.trace_path = dir + "/trace.u64";
  in.tail_path = dir + "/tail.u64";
  std::ifstream meta(dir + "/oracle.txt");
  Gate(static_cast<bool>(meta), "missing oracle in " + dir);
  std::string key;
  while (meta >> key) {
    if (key == "items") meta >> in.items;
    else if (key == "tail_items") meta >> in.tail_items;
    else if (key == "checksum") meta >> in.checksum;
    else if (key == "tail_checksum") meta >> in.tail_checksum;
    else if (key == "fp_prefix") meta >> in.fp_prefix;
    else if (key == "f2_prefix") meta >> in.f2_prefix;
    else if (key == "top") {
      Item item = 0;
      uint64_t count = 0;
      meta >> item >> count;
      in.top.emplace_back(item, count);
    } else {
      Gate(false, "unknown oracle key '" + key + "' in " + dir);
    }
  }
  Gate(in.items > 0 && !in.top.empty(), "incomplete oracle in " + dir);

  // Every run re-checks both traces before ingesting them.
  const Stream trace = ReadItems(in.trace_path);
  Gate(trace.size() == in.items,
       "trace holds " + std::to_string(trace.size()) + " items, oracle says " +
           std::to_string(in.items));
  Gate(TraceChecksum(trace) == in.checksum, "trace checksum mismatch");
  const Stream tail = ReadItems(in.tail_path);
  Gate(tail.size() == in.tail_items && TraceChecksum(tail) == in.tail_checksum,
       "trace continuation does not match its oracle");
  return in;
}

}  // namespace perfbench
