#ifndef FEWSTATE_NET_SOCKET_SOURCE_H_
#define FEWSTATE_NET_SOCKET_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/item_source.h"
#include "common/status.h"
#include "common/stream_types.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace fewstate {

/// \brief Configuration of a `SocketSource`.
struct SocketSourceOptions {
  /// UDP datagrams (lossy; drops detected and reported) or one TCP stream
  /// (reliable; bitwise-faithful to the sent trace).
  NetTransport transport = NetTransport::kUdp;
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port — read the
  /// actual one back with `port()` and hand it to the sender.
  uint16_t port = 0;
  /// Consecutive quiet time (no datagrams, no connection activity) after
  /// which the source reports a *clean* end-of-stream with OK `status()`
  /// — a live feed that went silent has ended as far as ingest is
  /// concerned. Must be positive; it also bounds how long a run waits for
  /// a sender that never shows up.
  int idle_timeout_ms = 5000;
  /// `poll(2)` slice. Each slice that elapses with no data counts one
  /// `fewstate_net_poll_timeouts_total`; quiet slices accumulate toward
  /// `idle_timeout_ms`.
  int poll_interval_ms = 50;
  /// Requested kernel receive-buffer size (`SO_RCVBUF`). A UDP receiver
  /// that falls behind drops datagrams at this buffer — sizing it is the
  /// real-world knob against loss, so it is exposed here.
  int recv_buffer_bytes = 1 << 20;
  /// Opt-in `fewstate_net_*` telemetry (borrowed; must outlive the
  /// source). Null = off, zero overhead.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Receive-side tallies of one `SocketSource`, mirrored into the
/// `fewstate_net_*` metric families when a registry is attached. Written
/// by the draining thread; read them after the drain (or from the metrics
/// snapshot mid-run).
struct SocketSourceStats {
  /// Data frames whose items were delivered (UDP: datagrams; TCP: framed
  /// records on the stream).
  uint64_t frames_received = 0;
  /// Items delivered into `NextBatch` fills.
  uint64_t items_received = 0;
  /// Payload bytes received, frame headers included.
  uint64_t bytes_received = 0;
  /// Frames the sequence numbers prove were sent but never arrived (UDP
  /// receive-queue overflow, deliberate loss injection). Always 0 on a
  /// clean TCP stream.
  uint64_t frames_dropped = 0;
  /// Frames whose sequence was below the next expected one: duplicates,
  /// and reordered frames already counted in `frames_dropped`. Rejected,
  /// never ingested; always 0 on TCP and on loopback UDP.
  uint64_t frames_late = 0;
  /// Datagrams whose byte length disagreed with their header (truncated
  /// or malformed; their items are discarded, never half-ingested).
  uint64_t frames_truncated = 0;
  /// Poll slices that elapsed without data.
  uint64_t poll_timeouts = 0;
  /// True iff the explicit end-of-stream sentinel frame arrived (false
  /// when the stream ended by idle timeout instead).
  bool sentinel_seen = false;
};

/// \brief A live network feed as an `ItemSource`: binds a localhost
/// socket, turns received `wire.h` frames into `NextBatch` fills, and
/// makes every loss visible — the subsystem that replaces the lazy
/// generator stand-in in the network-monitoring demo with real packets.
///
/// `NextBatch` *blocks* until items are available or end-of-stream is
/// established (sentinel frame, idle timeout, or a fatal socket error),
/// which is exactly the contract `ForEachBatch` needs: returning 0 means
/// only end-of-stream, never "no items yet". End-of-stream by sentinel or
/// idle timeout keeps `status()` OK; dropped or truncated datagrams and
/// socket failures make it non-OK, so a lossy UDP run can never pose as a
/// clean short stream — the engine's end-of-drain status check (and the
/// `fewstate_source_errors_total` counter) will see it. A frame whose
/// sequence is below the next expected one (a duplicate or a reorder) is
/// rejected and counted in `frames_late`: its items are never ingested,
/// and a reorder's gap was already counted as dropped.
///
/// Single-stream, single-consumer: one sender session per source (TCP
/// accepts exactly one connection), and `NextBatch`/`stats()` belong to
/// the draining thread. `SizeHint()` is nullopt — a live feed has no
/// declared horizon. Construction failures (bind, listen) surface through
/// `ok()`/`status()` and make the source an immediate error EOS.
class SocketSource : public ItemSource {
 public:
  explicit SocketSource(const SocketSourceOptions& options);
  ~SocketSource() override;
  SocketSource(const SocketSource&) = delete;
  SocketSource& operator=(const SocketSource&) = delete;

  /// \brief False iff setup failed or the stream has seen any loss,
  /// truncation, or socket error.
  bool ok() const { return status().ok(); }

  /// \brief First socket failure, or a loss summary when frames were
  /// dropped/truncated, else OK. Clean sentinel and idle-timeout EOS are
  /// OK — check after the drain, like `FileSource`.
  Status status() const override;

  /// \brief The bound port on 127.0.0.1 (resolves option `port == 0` to
  /// the ephemeral port actually bound; 0 if setup failed).
  uint16_t port() const { return port_; }

  /// \brief Blocks until items arrive, then fills up to `cap`; returns 0
  /// only at end-of-stream (sentinel, idle timeout, or fatal error).
  size_t NextBatch(Item* out, size_t cap) override;

  /// \brief Always nullopt: a live feed has no declared horizon.
  std::optional<uint64_t> SizeHint() const override { return std::nullopt; }

  /// \brief Receive-side tallies so far (meaningful on the draining
  /// thread, or after the drain).
  const SocketSourceStats& stats() const { return stats_; }

 private:
  void Setup();
  void Fail(const char* what);
  // One poll slice: waits for readability, accepts the TCP peer, drains
  // ready data into pending_, and advances the idle clock. May set done_.
  void WaitAndReceive();
  void AcceptPeer();
  void ReceiveDatagrams();
  void ReceiveStream();
  // Handles one complete frame (header validated by the caller).
  void IngestFrame(const NetFrameHeader& header, const uint8_t* payload);
  size_t TakePending(Item* out, size_t cap);
  void PublishQueueDepth();

  SocketSourceOptions options_;
  uint16_t port_ = 0;
  int fd_ = -1;         // UDP socket, or TCP listener
  int conn_fd_ = -1;    // accepted TCP stream (-1 until the peer connects)
  bool done_ = false;   // end-of-stream decided (pending_ may still hold)
  int idle_ms_ = 0;     // consecutive quiet time toward the idle timeout
  uint64_t next_sequence_ = 0;
  SocketSourceStats stats_;
  Status error_;  // first socket/framing failure; loss is derived in status()
  // Items received but not yet handed out (a datagram can out-size `cap`).
  std::vector<Item> pending_;
  size_t pending_pos_ = 0;
  std::vector<uint8_t> recv_buf_;    // one datagram / one read(2) chunk
  std::vector<uint8_t> stream_buf_;  // TCP bytes awaiting a complete frame
  // Telemetry (resolved once at construction; null when metrics are off).
  Counter* frames_ctr_ = nullptr;
  Counter* items_ctr_ = nullptr;
  Counter* bytes_ctr_ = nullptr;
  Counter* drops_ctr_ = nullptr;
  Counter* late_ctr_ = nullptr;
  Counter* trunc_ctr_ = nullptr;
  Counter* timeouts_ctr_ = nullptr;
  Gauge* queue_gauge_ = nullptr;
};

}  // namespace fewstate

#endif  // FEWSTATE_NET_SOCKET_SOURCE_H_
