// Live transport ingest throughput — socket vs. direct, UDP vs. TCP.
//
// The network-monitoring story stands on a real socket path now
// (`src/net`): a `TraceStreamer` replays a workload over localhost into a
// `SocketSource`, which feeds the sharded engine exactly like any other
// `ItemSource`. This bench prices that path: it runs the same Zipf
// workload (a) straight from the generator (the no-transport upper
// bound), (b) over a TCP stream and (c) over UDP datagrams, and reports
// sustained items/sec, wire throughput, and the receiver's loss/timeout
// tallies. The engine's partitioner pulls the socket while its shard
// workers ingest, so receive already overlaps hashing.
//
// Expected shape: TCP lands within a small factor of direct ingest (one
// memcpy and a read(2) per 64 KiB chunk of frames); UDP pays one recvfrom
// per ~1000-item datagram and may drop under burst (drops are *counted*,
// never silent — the drops column is the point).
//
// Usage: bench_net_ingest [items] [mode_list]
// (defaults: 2000000, "direct,tcp,udp"). Modes: direct | tcp | udp; any
// other mode is a usage error (exit 2).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/count_min.h"
#include "baselines/space_saving.h"
#include "bench_util.h"
#include "net/socket_source.h"
#include "net/trace_streamer.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"

using namespace fewstate;

namespace {

constexpr uint64_t kFlows = 100000;
constexpr double kSkew = 1.1;
constexpr uint64_t kSeed = 7;
constexpr size_t kItemsPerFrame = 1024;

ShardedEngineOptions EngineOptions() {
  ShardedEngineOptions options;
  options.shards = 4;
  options.batch_items = 4096;
  return options;
}

void AddRoster(ShardedEngine* engine) {
  engine->AddSketch(SketchFactory::Of<CountMin>(
      "count_min", size_t{4}, size_t{2048}, uint64_t{21}, false));
  engine->AddSketch(
      SketchFactory::Of<SpaceSaving>("space_saving", size_t{256}));
}

struct ModeResult {
  std::string mode;
  uint64_t items_ingested = 0;
  double seconds = 0.0;
  double items_per_sec = 0.0;
  double wire_mib_per_sec = 0.0;
  SocketSourceStats net;  // zeroed in direct mode
  bool clean = true;
};

ModeResult RunMode(const std::string& mode, uint64_t items) {
  ModeResult result;
  result.mode = mode;

  ShardedEngine engine(EngineOptions());
  AddRoster(&engine);
  const auto start = std::chrono::steady_clock::now();

  if (mode == "direct") {
    result.items_ingested =
        engine.Run(ZipfSource(kFlows, kSkew, items, kSeed)).items_ingested;
  } else {
    const NetTransport transport = mode == "udp"
                                       ? NetTransport::kUdp
                                       : NetTransport::kTcp;
    SocketSourceOptions receiver_options;
    receiver_options.transport = transport;
    receiver_options.idle_timeout_ms = 10000;
    receiver_options.poll_interval_ms = 20;
    SocketSource socket(receiver_options);
    if (!socket.ok()) {
      std::fprintf(stderr, "socket setup failed: %s\n",
                   socket.status().ToString().c_str());
      result.clean = false;
      return result;
    }
    TraceStreamerOptions sender_options;
    sender_options.transport = transport;
    sender_options.port = socket.port();
    sender_options.items_per_frame = kItemsPerFrame;
    std::thread sender([&] {
      TraceStreamer(sender_options)
          .Stream(ZipfSource(kFlows, kSkew, items, kSeed));
    });
    result.items_ingested = engine.Run(socket).items_ingested;
    sender.join();
    result.net = socket.stats();
    // A lossy UDP run is a *reported* short stream, never a silent one.
    result.clean = socket.status().ok();
  }

  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.items_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(result.items_ingested) / result.seconds
          : 0.0;
  result.wire_mib_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(result.net.bytes_received) /
                (1024.0 * 1024.0) / result.seconds
          : 0.0;
  return result;
}

std::vector<std::string> SplitModes(const std::string& list) {
  std::vector<std::string> modes;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    if (end > begin) modes.push_back(list.substr(begin, end - begin));
    begin = end + 1;
  }
  return modes;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t items =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000000ULL;
  const std::string mode_list = argc > 2 ? argv[2] : "direct,tcp,udp";
  const std::vector<std::string> modes = SplitModes(mode_list);
  for (const std::string& mode : modes) {
    if (mode != "direct" && mode != "tcp" && mode != "udp") {
      std::fprintf(stderr, "bench_net_ingest: unknown mode '%s'\n",
                   mode.c_str());
      return 2;
    }
  }

  bench::Banner("bench_net_ingest",
                "the live-transport deployment shape (§1 motivation)",
                "a real socket feed sustains sharded ingest; every lost "
                "datagram is counted, never silent");
  bench::Row("items=%llu  modes=%s  frame=%zu items  shards=4",
             static_cast<unsigned long long>(items), mode_list.c_str(),
             kItemsPerFrame);

  bench::Section("ingest throughput by transport");
  bench::Row("%-14s %12s %10s %12s %10s %8s %8s %9s %6s", "mode", "items",
             "sec", "items/s", "wire MiB/s", "drops", "trunc", "timeouts",
             "clean");
  bench::CsvHeader(
      "net,mode,items,seconds,items_per_sec,wire_mib_per_sec,frames,"
      "frames_dropped,frames_truncated,poll_timeouts,clean,peak_rss_mib");
  for (const std::string& mode : modes) {
    const ModeResult r = RunMode(mode, items);
    bench::Row("%-14s %12llu %10.3f %12.0f %10.1f %8llu %8llu %9llu %6s",
               r.mode.c_str(), static_cast<unsigned long long>(r.items_ingested),
               r.seconds, r.items_per_sec, r.wire_mib_per_sec,
               static_cast<unsigned long long>(r.net.frames_dropped),
               static_cast<unsigned long long>(r.net.frames_truncated),
               static_cast<unsigned long long>(r.net.poll_timeouts),
               r.clean ? "yes" : "NO");
    char csv[512];
    std::snprintf(csv, sizeof(csv),
                  "net,%s,%llu,%.4f,%.0f,%.2f,%llu,%llu,%llu,%llu,%d,%.1f",
                  r.mode.c_str(),
                  static_cast<unsigned long long>(r.items_ingested), r.seconds,
                  r.items_per_sec, r.wire_mib_per_sec,
                  static_cast<unsigned long long>(r.net.frames_received),
                  static_cast<unsigned long long>(r.net.frames_dropped),
                  static_cast<unsigned long long>(r.net.frames_truncated),
                  static_cast<unsigned long long>(r.net.poll_timeouts),
                  r.clean ? 1 : 0, bench::PeakRssMiB());
    bench::CsvBlock(std::string(csv) + "\n");
  }
  bench::Row("\npeak RSS %.1f MiB — transport adds O(frame) buffers, not "
             "O(stream)",
             bench::PeakRssMiB());
  return 0;
}
