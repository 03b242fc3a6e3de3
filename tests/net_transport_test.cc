// The live transport subsystem: a SocketSource-fed engine must be
// bitwise-equivalent to a file-fed one on a reliable (TCP) stream, and a
// lossy (UDP) stream must account for every missing frame through
// stats()/status()/metrics — never a silent short stream. End-of-stream
// has two clean forms (sentinel frame, idle timeout), both with OK
// status; truncation and mid-frame disconnects are errors.

#include "net/socket_source.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "baselines/count_min.h"
#include "baselines/space_saving.h"
#include "net/trace_streamer.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

constexpr uint64_t kUniverse = 300;
constexpr uint64_t kSeed = 99;

SocketSourceOptions ReceiverOptions(NetTransport transport) {
  SocketSourceOptions options;
  options.transport = transport;
  options.port = 0;  // ephemeral; the sender reads port() back
  options.idle_timeout_ms = 5000;
  options.poll_interval_ms = 5;
  return options;
}

TraceStreamerOptions SenderOptions(NetTransport transport, uint16_t port,
                                   size_t items_per_frame) {
  TraceStreamerOptions options;
  options.transport = transport;
  options.port = port;
  options.items_per_frame = items_per_frame;
  return options;
}

ShardedEngineOptions EngineOptions() {
  ShardedEngineOptions options;
  options.shards = 2;
  options.batch_items = 512;
  return options;
}

Status AddSketches(ShardedEngine* engine) {
  Status status = engine->AddSketch(
      SketchFactory::Of<SpaceSaving>("space_saving", size_t{48}));
  if (!status.ok()) return status;
  return engine->AddSketch(SketchFactory::Of<CountMin>(
      "count_min", size_t{4}, size_t{128}, uint64_t{21}, false));
}

// The acceptance-criteria pin: the same trace through a TCP socket and
// through a VectorSource produces bitwise-identical merged estimates and
// accountant totals — the transport adds no noise on a reliable stream.
TEST(NetTransport, TcpSocketFedEngineMatchesDirectIngestBitwise) {
  const Stream stream = ZipfStream(kUniverse, 1.2, 60000, kSeed);

  ShardedEngine direct(EngineOptions());
  ASSERT_TRUE(AddSketches(&direct).ok());
  const ShardedRunReport direct_report = direct.Run(VectorSource(stream));

  SocketSource socket(ReceiverOptions(NetTransport::kTcp));
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  TraceStreamerReport sent;
  std::thread sender([&] {
    const TraceStreamer streamer(
        SenderOptions(NetTransport::kTcp, socket.port(), 256));
    sent = streamer.Stream(VectorSource(stream));
  });
  ShardedEngine via_socket(EngineOptions());
  ASSERT_TRUE(AddSketches(&via_socket).ok());
  const ShardedRunReport socket_report = via_socket.Run(socket);
  sender.join();

  ASSERT_TRUE(sent.status.ok()) << sent.status.ToString();
  ASSERT_TRUE(socket.status().ok()) << socket.status().ToString();
  EXPECT_TRUE(socket.stats().sentinel_seen);
  EXPECT_EQ(socket.stats().items_received, stream.size());
  EXPECT_EQ(sent.items_sent, stream.size());

  ASSERT_EQ(socket_report.items_ingested, direct_report.items_ingested);
  EXPECT_EQ(socket_report.shard_items, direct_report.shard_items);
  for (const char* name : {"space_saving", "count_min"}) {
    const Sketch* a = direct.Merged(name);
    const Sketch* b = via_socket.Merged(name);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    for (Item item = 0; item < kUniverse; ++item) {
      ASSERT_EQ(a->EstimateFrequency(item), b->EstimateFrequency(item))
          << name << " diverged at item " << item;
    }
    // Accountant totals: identical per-shard item sequences mean identical
    // wear, to the word.
    EXPECT_EQ(a->accountant().updates(), b->accountant().updates()) << name;
    EXPECT_EQ(a->accountant().state_changes(), b->accountant().state_changes())
        << name;
    EXPECT_EQ(a->accountant().word_writes(), b->accountant().word_writes())
        << name;
  }
}

// Loss accounting on a deliberately lossy UDP replay: every data frame is
// full (stream length is a multiple of items_per_frame), so the identity
//   items_received + frames_dropped * items_per_frame == total_items
// holds exactly — whether a frame was withheld by the streamer or dropped
// by the kernel — and the loss is loud in stats(), status(), and metrics.
TEST(NetTransport, LossyUdpAccountsForEveryDroppedFrame) {
  constexpr size_t kItemsPerFrame = 64;
  constexpr uint64_t kFrames = 200;
  constexpr uint64_t kDropEvery = 5;
  const Stream stream =
      ZipfStream(kUniverse, 1.1, kFrames * kItemsPerFrame, kSeed);

  MetricsRegistry metrics;
  SocketSourceOptions receiver_options = ReceiverOptions(NetTransport::kUdp);
  receiver_options.metrics = &metrics;
  SocketSource socket(receiver_options);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();

  TraceStreamerReport sent;
  std::thread sender([&] {
    TraceStreamerOptions options =
        SenderOptions(NetTransport::kUdp, socket.port(), kItemsPerFrame);
    options.drop_every_frames = kDropEvery;
    sent = TraceStreamer(options).Stream(VectorSource(stream));
  });
  const Stream received = Materialize(socket);
  sender.join();

  ASSERT_TRUE(sent.status.ok()) << sent.status.ToString();
  EXPECT_EQ(sent.frames_withheld, kFrames / kDropEvery);
  EXPECT_EQ(sent.items_withheld, sent.frames_withheld * kItemsPerFrame);
  EXPECT_EQ(sent.items_sent + sent.items_withheld, stream.size());

  const SocketSourceStats& stats = socket.stats();
  EXPECT_EQ(received.size(), stats.items_received);
  // The identity: every missing item is attributed to a counted drop.
  EXPECT_EQ(stats.items_received + stats.frames_dropped * kItemsPerFrame,
            stream.size());
  // At least the injected loss (the kernel may add real drops on top).
  EXPECT_GE(stats.frames_dropped, sent.frames_withheld);
  // A lossy stream must never read as clean.
  EXPECT_FALSE(socket.status().ok());
  EXPECT_NE(socket.status().ToString().find("dropped"), std::string::npos);

  const MetricLabels udp{{"transport", "udp"}};
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("fewstate_net_frames_received_total", udp),
            stats.frames_received);
  EXPECT_EQ(snap.CounterValue("fewstate_net_items_received_total", udp),
            stats.items_received);
  EXPECT_EQ(snap.CounterValue("fewstate_net_frames_dropped_total", udp),
            stats.frames_dropped);
  EXPECT_EQ(snap.CounterValue("fewstate_net_bytes_received_total", udp),
            stats.bytes_received);
}

// A lossy source behind the full sharded engine: the end-of-drain status
// check must fire (counter + non-OK source), so an operator can tell a
// lossy live run from a clean one without trusting item counts.
TEST(NetTransport, EngineSurfacesLossySocketThroughStatusAndMetrics) {
  constexpr size_t kItemsPerFrame = 32;
  const Stream stream = ZipfStream(kUniverse, 1.1, 320 * kItemsPerFrame, kSeed);

  MetricsRegistry metrics;
  SocketSource socket(ReceiverOptions(NetTransport::kUdp));
  ASSERT_TRUE(socket.ok());
  std::thread sender([&] {
    TraceStreamerOptions options =
        SenderOptions(NetTransport::kUdp, socket.port(), kItemsPerFrame);
    options.drop_every_frames = 4;
    TraceStreamer(options).Stream(VectorSource(stream));
  });
  ShardedEngineOptions engine_options = EngineOptions();
  engine_options.metrics = &metrics;
  ShardedEngine engine(engine_options);
  ASSERT_TRUE(AddSketches(&engine).ok());
  const ShardedRunReport report = engine.Run(socket);
  sender.join();

  EXPECT_LT(report.items_ingested, stream.size());
  EXPECT_EQ(report.items_ingested, socket.stats().items_received);
  EXPECT_FALSE(socket.status().ok());
  EXPECT_GE(metrics.Snapshot().CounterValue("fewstate_source_errors_total"),
            1u);
}

// Clean end-of-stream, form 1: the explicit sentinel frame. The idle
// timeout is set far beyond the test's patience, so only the sentinel can
// end the drain this fast — and it must, with OK status.
TEST(NetTransport, SentinelEndsStreamBeforeIdleTimeout) {
  for (const NetTransport transport :
       {NetTransport::kUdp, NetTransport::kTcp}) {
    const Stream stream = ZipfStream(kUniverse, 1.1, 4096, kSeed);
    SocketSourceOptions options = ReceiverOptions(transport);
    options.idle_timeout_ms = 120000;  // only the sentinel ends this drain
    SocketSource socket(options);
    ASSERT_TRUE(socket.ok());
    std::thread sender([&] {
      TraceStreamer(SenderOptions(transport, socket.port(), 128))
          .Stream(VectorSource(stream));
    });
    const Stream received = Materialize(socket);
    sender.join();
    EXPECT_TRUE(socket.status().ok()) << socket.status().ToString();
    EXPECT_TRUE(socket.stats().sentinel_seen);
    EXPECT_EQ(received.size(), stream.size());
    if (transport == NetTransport::kTcp) {
      EXPECT_EQ(received, stream);  // reliable + ordered: bitwise equal
    }
  }
}

// Clean end-of-stream, form 2: a feed that never speaks. The idle timeout
// must end the drain with zero items, OK status, counted poll timeouts,
// and no sentinel.
TEST(NetTransport, IdleTimeoutIsCleanEndOfStream) {
  for (const NetTransport transport :
       {NetTransport::kUdp, NetTransport::kTcp}) {
    SocketSourceOptions options = ReceiverOptions(transport);
    options.idle_timeout_ms = 60;
    options.poll_interval_ms = 10;
    SocketSource socket(options);
    ASSERT_TRUE(socket.ok());
    Item buffer[16];
    EXPECT_EQ(socket.NextBatch(buffer, 16), 0u);
    EXPECT_TRUE(socket.status().ok()) << socket.status().ToString();
    EXPECT_FALSE(socket.stats().sentinel_seen);
    EXPECT_EQ(socket.stats().items_received, 0u);
    EXPECT_GE(socket.stats().poll_timeouts, 1u);
  }
}

// Raw client socket for the malformed-input tests below (the
// TraceStreamer refuses to produce broken frames, so these speak to the
// port directly).
int RawClient(NetTransport transport, uint16_t port) {
  const int fd = ::socket(
      AF_INET,
      transport == NetTransport::kUdp ? SOCK_DGRAM : SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

// A datagram whose byte length disagrees with its own header is
// truncated: its items are discarded whole and the stream goes non-OK,
// while well-formed neighbours still deliver.
TEST(NetTransport, TruncatedDatagramIsCountedAndPoisonsStatus) {
  SocketSource socket(ReceiverOptions(NetTransport::kUdp));
  ASSERT_TRUE(socket.ok());
  std::thread sender([&] {
    const int fd = RawClient(NetTransport::kUdp, socket.port());
    uint8_t frame[NetFrameBytes(3)];
    // Frame 0 claims 3 items but ships only 1: truncated, discarded.
    NetFrameHeader header;
    header.sequence = 0;
    header.count = 3;
    EncodeNetFrameHeader(header, frame);
    const uint64_t items[3] = {7, 8, 9};
    std::memcpy(frame + kNetFrameHeaderBytes, items, sizeof(items));
    send(fd, frame, NetFrameBytes(1), 0);
    // Frame 0 again, well-formed this time, then the sentinel.
    header.count = 2;
    EncodeNetFrameHeader(header, frame);
    send(fd, frame, NetFrameBytes(2), 0);
    header.sequence = 1;
    header.count = 0;
    EncodeNetFrameHeader(header, frame);
    send(fd, frame, kNetFrameHeaderBytes, 0);
    close(fd);
  });
  const Stream received = Materialize(socket);
  sender.join();
  EXPECT_EQ(received, (Stream{7, 8}));
  EXPECT_EQ(socket.stats().frames_truncated, 1u);
  EXPECT_FALSE(socket.status().ok());
  EXPECT_NE(socket.status().ToString().find("truncated"), std::string::npos);
}

// A TCP peer that disappears mid-frame cut the stream, it didn't end it:
// the partial frame's items are never delivered and status() says so.
TEST(NetTransport, PartialTcpFrameOnDisconnectIsAnError) {
  SocketSource socket(ReceiverOptions(NetTransport::kTcp));
  ASSERT_TRUE(socket.ok());
  std::thread sender([&] {
    const int fd = RawClient(NetTransport::kTcp, socket.port());
    // One complete frame of 2 items...
    uint8_t frame[NetFrameBytes(5)];
    NetFrameHeader header;
    header.sequence = 0;
    header.count = 2;
    EncodeNetFrameHeader(header, frame);
    const uint64_t items[5] = {1, 2, 3, 4, 5};
    std::memcpy(frame + kNetFrameHeaderBytes, items, sizeof(items));
    send(fd, frame, NetFrameBytes(2), MSG_NOSIGNAL);
    // ...then a header promising 5 items, two of them, and a vanished
    // peer.
    header.sequence = 1;
    header.count = 5;
    EncodeNetFrameHeader(header, frame);
    send(fd, frame, NetFrameBytes(2), MSG_NOSIGNAL);
    close(fd);
  });
  const Stream received = Materialize(socket);
  sender.join();
  EXPECT_EQ(received, (Stream{1, 2}));
  EXPECT_FALSE(socket.status().ok());
  EXPECT_NE(socket.status().ToString().find("mid-frame"), std::string::npos);
}

// Paced replay: the streamer's deadline pacing must not lose or reorder
// anything (TCP), and the receiver's poll loop must tolerate a sender
// slower than its poll interval without declaring a premature EOS.
TEST(NetTransport, PacedTcpReplayIsStillLossless) {
  const Stream stream = ZipfStream(kUniverse, 1.1, 2000, kSeed);
  SocketSourceOptions options = ReceiverOptions(NetTransport::kTcp);
  options.idle_timeout_ms = 5000;
  options.poll_interval_ms = 2;
  SocketSource socket(options);
  ASSERT_TRUE(socket.ok());
  std::thread sender([&] {
    TraceStreamerOptions sender_options =
        SenderOptions(NetTransport::kTcp, socket.port(), 100);
    sender_options.pace_items_per_second = 40000;  // ~50ms total, ~2ms/frame
    TraceStreamer(sender_options).Stream(VectorSource(stream));
  });
  const Stream received = Materialize(socket);
  sender.join();
  EXPECT_EQ(received, stream);
  EXPECT_TRUE(socket.status().ok());
  // The paced sender was slower than the poll slice at least once.
  EXPECT_GE(socket.stats().poll_timeouts, 1u);
}

}  // namespace
}  // namespace fewstate
