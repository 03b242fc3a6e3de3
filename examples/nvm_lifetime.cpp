// The paper's §1.1 motivation, end to end — on the live WriteSink
// pipeline: run heavy-hitter summaries on a stream with a simulated
// phase-change-memory device attached, so every state write is priced as
// it happens (no recorded trace, no capacity cap), and report energy and
// device lifetime under different wear-leveling policies.
//
// Then the deployment angle: a sharded engine with periodic durability
// checkpointing, where each shard's replica is snapshotted onto an
// NVM-backed snapshot sketch through the same pipeline — so the wear
// model covers durability traffic, not just update traffic.
//
// The punchline: wear leveling spreads writes but cannot reduce them; a
// write-frugal algorithm (this paper) attacks the total directly, and the
// two compose. Checkpointing adds a durability wear floor that both pay.

#include <algorithm>
#include <cstdio>

#include "api/item_source.h"
#include "baselines/count_min.h"
#include "core/full_sample_and_hold.h"
#include "nvm/live_sink.h"
#include "recover/checkpoint_policy.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"

using namespace fewstate;

namespace {

NvmSpec PcmSpec(NvmSpec::Leveling leveling) {
  NvmSpec spec;
  spec.config.num_cells = 1 << 16;
  spec.config.endurance = 10000000;  // PCM-like (low end of [MSCT14])
  spec.leveling = leveling;
  spec.rotate_period = 64;
  spec.hash_seed = 1;
  return spec;
}

template <typename Alg>
void PriceLive(const char* algorithm, Alg& alg, const Stream& stream) {
  // Three live devices behind one tee: each policy prices the same write
  // stream as it happens — no trace is ever recorded.
  LiveNvmSink direct(PcmSpec(NvmSpec::Leveling::kDirect));
  LiveNvmSink rotate(PcmSpec(NvmSpec::Leveling::kRotating));
  LiveNvmSink hashed(PcmSpec(NvmSpec::Leveling::kHashed));
  TeeSink tee({&direct, &rotate, &hashed});
  alg.mutable_accountant()->set_write_sink(&tee);
  alg.Drain(VectorSource(stream));

  struct Row {
    const char* name;
    const LiveNvmSink* sink;
  };
  for (const Row& row : {Row{"direct", &direct}, Row{"rotate", &rotate},
                         Row{"hashed", &hashed}}) {
    const NvmReplayReport report = row.sink->Report();
    std::printf("%-20s %-8s %12llu %11.2fmJ %12llu %15.0f\n", algorithm,
                row.name, (unsigned long long)report.writes_replayed,
                report.energy_nj * 1e-6,
                (unsigned long long)report.max_cell_wear,
                report.projected_stream_replays_to_failure);
  }
}

}  // namespace

int main() {
  const uint64_t n = 20000, m = 500000;
  std::printf("workload: %llu updates over %llu items (Zipf 1.3)\n",
              (unsigned long long)m, (unsigned long long)n);
  std::printf("device: 64k words PCM, endurance 1e7 writes/cell, write "
              "energy 10x read; writes priced live, as they happen\n\n");
  std::printf("%-20s %-8s %12s %13s %12s %15s\n", "algorithm", "leveling",
              "writes", "energy", "max_wear", "replays_to_eol");

  const Stream stream = ZipfStream(n, 1.3, m, /*seed=*/31337);

  {
    CountMin alg(4, 4096, 5);
    PriceLive("CountMin[CM05]", alg, stream);
  }
  {
    FullSampleAndHoldOptions options;
    options.universe = n;
    options.stream_length_hint = m;
    options.p = 2.0;
    options.eps = 0.25;
    options.seed = 6;
    FullSampleAndHold alg(options);
    PriceLive("FullSampleAndHold", alg, stream);
  }

  std::printf("\nreading: leveling equalises wear (max_wear falls, lifetime "
              "rises); the write-frugal summary multiplies lifetime again "
              "by writing less in total.\n");

  // ---- Durability wear: a sharded deployment that checkpoints. --------
  //
  // Two shards ingest the same workload; every 50k items per shard, the
  // live replica is serialized into an NVM-backed snapshot sketch, so
  // checkpoint traffic wears a snapshot device exactly like update
  // traffic wears the update devices — one pipeline prices both.
  // (`CheckpointPolicy` also offers wear-budget/dirty-set triggers and
  // delta snapshots; examples/crash_recovery.cpp closes the loop with
  // priced recovery from these checkpoints.)
  std::printf("\n=== sharded run with durability checkpointing ===\n");
  ShardedEngineOptions options;
  options.shards = 2;
  options.checkpoint_policy = CheckpointPolicy::EveryItems(50000);
  options.checkpoint_nvm = PcmSpec(NvmSpec::Leveling::kDirect);
  ShardedEngine engine(options);
  if (!engine
           .AddSketch(SketchFactory::Of<CountMin>("count_min", size_t{4},
                                                  size_t{4096}, uint64_t{5},
                                                  false),
                      PcmSpec(NvmSpec::Leveling::kDirect))
           .ok()) {
    std::fprintf(stderr, "AddSketch failed\n");
    return 1;
  }
  const ShardedRunReport report =
      engine.Run(ZipfSource(n, 1.3, m, /*seed=*/31337));
  const ShardedSketchReport* cm = report.Find("count_min");
  const SketchRunReport& s0 = cm->per_shard[0];
  const SketchRunReport& s1 = cm->per_shard[1];
  std::printf("shards=2 checkpoint_every=50k items/shard\n");
  std::printf("%-24s %14s %14s %12s %15s\n", "traffic", "word_writes",
              "nvm_writes", "max_wear", "replays_to_eol");
  std::printf("%-24s %14llu %14llu %12llu %15.0f\n", "updates (2 devices)",
              (unsigned long long)(s0.word_writes + s1.word_writes),
              (unsigned long long)(s0.nvm.writes_replayed +
                                   s1.nvm.writes_replayed),
              (unsigned long long)std::max(s0.nvm.max_cell_wear,
                                           s1.nvm.max_cell_wear),
              std::min(s0.nvm.projected_stream_replays_to_failure,
                       s1.nvm.projected_stream_replays_to_failure));
  std::printf("%-24s %14llu %14llu %12llu %15.0f  (%llu checkpoints)\n",
              "checkpoints (2 devices)",
              (unsigned long long)cm->checkpoint.word_writes,
              (unsigned long long)cm->checkpoint.nvm.writes_replayed,
              (unsigned long long)cm->checkpoint.nvm.max_cell_wear,
              cm->checkpoint.nvm.projected_stream_replays_to_failure,
              (unsigned long long)cm->checkpoints_taken);
  std::printf("%-24s %14llu %14llu %12llu %15.0f\n", "total (all devices)",
              (unsigned long long)cm->total.word_writes,
              (unsigned long long)cm->total.nvm.writes_replayed,
              (unsigned long long)cm->total.nvm.max_cell_wear,
              cm->total.nvm.projected_stream_replays_to_failure);

  std::printf("\nreading: durability adds a periodic full-state write whose "
              "wear the same sink prices; the first device to wear out "
              "(update or snapshot) bounds deployment lifetime.\n");
  return 0;
}
