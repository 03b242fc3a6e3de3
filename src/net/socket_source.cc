#include "net/socket_source.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

namespace fewstate {

namespace {

// Largest UDP datagram (and TCP read chunk) the receive path handles in
// one syscall.
constexpr size_t kRecvChunkBytes = 65536;

// Stop draining ready data once this many items sit undelivered — bounds
// the receive-side buffer however fast the sender bursts; backpressure
// past this point lives in the kernel socket buffer.
constexpr size_t kMaxPendingItems = 1 << 16;

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

SocketSource::SocketSource(const SocketSourceOptions& options)
    : options_(options), recv_buf_(kRecvChunkBytes) {
  if (options_.idle_timeout_ms <= 0) options_.idle_timeout_ms = 1;
  if (options_.poll_interval_ms <= 0) options_.poll_interval_ms = 1;
  if (options_.metrics != nullptr) {
    const MetricLabels labels{
        {"transport", NetTransportName(options_.transport)}};
    MetricsRegistry* m = options_.metrics;
    frames_ctr_ = m->GetCounter("fewstate_net_frames_received_total", labels);
    items_ctr_ = m->GetCounter("fewstate_net_items_received_total", labels);
    bytes_ctr_ = m->GetCounter("fewstate_net_bytes_received_total", labels);
    drops_ctr_ = m->GetCounter("fewstate_net_frames_dropped_total", labels);
    late_ctr_ = m->GetCounter("fewstate_net_frames_late_total", labels);
    trunc_ctr_ = m->GetCounter("fewstate_net_frames_truncated_total", labels);
    timeouts_ctr_ = m->GetCounter("fewstate_net_poll_timeouts_total", labels);
    queue_gauge_ = m->GetGauge("fewstate_net_recv_queue_bytes", labels);
  }
  Setup();
}

SocketSource::~SocketSource() {
  if (conn_fd_ >= 0) close(conn_fd_);
  if (fd_ >= 0) close(fd_);
}

void SocketSource::Setup() {
  const bool udp = options_.transport == NetTransport::kUdp;
  fd_ = socket(AF_INET, udp ? SOCK_DGRAM : SOCK_STREAM, 0);
  if (fd_ < 0) {
    Fail("socket");
    done_ = true;
    return;
  }
  const int one = 1;
  if (!udp) {
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (options_.recv_buffer_bytes > 0) {
    setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &options_.recv_buffer_bytes,
               sizeof(options_.recv_buffer_bytes));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail("bind");
    done_ = true;
    return;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (!udp && listen(fd_, 4) != 0) {
    Fail("listen");
    done_ = true;
    return;
  }
  if (!SetNonBlocking(fd_)) {
    Fail("fcntl(O_NONBLOCK)");
    done_ = true;
  }
}

void SocketSource::Fail(const char* what) {
  if (error_.ok()) {
    error_ = Status::Internal(
        std::string("SocketSource(") + NetTransportName(options_.transport) +
        "): " + what + ": " + std::strerror(errno));
  }
}

Status SocketSource::status() const {
  if (!error_.ok()) return error_;
  if (stats_.frames_dropped > 0 || stats_.frames_truncated > 0) {
    return Status::Internal(
        std::string("SocketSource(") + NetTransportName(options_.transport) +
        "): lossy stream: " + std::to_string(stats_.frames_dropped) +
        " frames dropped, " + std::to_string(stats_.frames_truncated) +
        " truncated (" + std::to_string(stats_.items_received) +
        " items delivered)");
  }
  return Status::OK();
}

size_t SocketSource::NextBatch(Item* out, size_t cap) {
  if (cap == 0) return 0;
  for (;;) {
    const size_t taken = TakePending(out, cap);
    if (taken > 0) {
      PublishQueueDepth();
      return taken;
    }
    if (done_) {
      PublishQueueDepth();
      return 0;
    }
    WaitAndReceive();
  }
}

size_t SocketSource::TakePending(Item* out, size_t cap) {
  const size_t available = pending_.size() - pending_pos_;
  const size_t n = std::min(cap, available);
  if (n > 0) {
    std::memcpy(out, pending_.data() + pending_pos_, n * sizeof(Item));
    pending_pos_ += n;
    if (pending_pos_ == pending_.size()) {
      pending_.clear();
      pending_pos_ = 0;
    }
  }
  return n;
}

void SocketSource::WaitAndReceive() {
  const bool tcp = options_.transport == NetTransport::kTcp;
  const int wait_fd = tcp && conn_fd_ >= 0 ? conn_fd_ : fd_;
  if (wait_fd < 0) {
    done_ = true;
    return;
  }
  // Poll in slices so quiet time is both counted (one timeout metric per
  // empty slice) and bounded (accumulates toward the idle timeout).
  const int slice = std::min(options_.poll_interval_ms,
                             std::max(1, options_.idle_timeout_ms - idle_ms_));
  pollfd pfd;
  pfd.fd = wait_fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int ready = poll(&pfd, 1, slice);
  if (ready < 0) {
    if (errno == EINTR) return;
    Fail("poll");
    done_ = true;
    return;
  }
  if (ready == 0) {
    ++stats_.poll_timeouts;
    if (timeouts_ctr_ != nullptr) timeouts_ctr_->Increment();
    idle_ms_ += slice;
    // A feed this quiet has ended: clean EOS, OK status.
    if (idle_ms_ >= options_.idle_timeout_ms) done_ = true;
    return;
  }
  idle_ms_ = 0;
  if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
    Fail("socket error (POLLERR)");
    done_ = true;
    return;
  }
  if (tcp && conn_fd_ < 0) {
    AcceptPeer();
    return;
  }
  if (tcp) {
    ReceiveStream();
  } else {
    ReceiveDatagrams();
  }
}

void SocketSource::AcceptPeer() {
  const int peer = accept(fd_, nullptr, nullptr);
  if (peer < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    Fail("accept");
    done_ = true;
    return;
  }
  if (!SetNonBlocking(peer)) {
    close(peer);
    Fail("fcntl(O_NONBLOCK) on accepted stream");
    done_ = true;
    return;
  }
  conn_fd_ = peer;
}

void SocketSource::ReceiveDatagrams() {
  // Drain everything already queued in the kernel, one datagram == one
  // frame; stop at EWOULDBLOCK, the sentinel, or the pending-items bound.
  while (!done_ && pending_.size() - pending_pos_ < kMaxPendingItems) {
    const ssize_t n =
        recvfrom(fd_, recv_buf_.data(), recv_buf_.size(), 0, nullptr, nullptr);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      Fail("recvfrom");
      done_ = true;
      return;
    }
    stats_.bytes_received += static_cast<uint64_t>(n);
    if (bytes_ctr_ != nullptr) bytes_ctr_->Increment(static_cast<uint64_t>(n));
    if (static_cast<size_t>(n) < kNetFrameHeaderBytes) {
      ++stats_.frames_truncated;
      if (trunc_ctr_ != nullptr) trunc_ctr_->Increment();
      continue;
    }
    const NetFrameHeader header = DecodeNetFrameHeader(recv_buf_.data());
    // A datagram is exactly one frame: any byte-length disagreement with
    // its own header means truncation in flight (or a foreign sender) —
    // its items are discarded whole, never half-ingested.
    if (header.count > kNetMaxFrameItems ||
        static_cast<size_t>(n) != NetFrameBytes(header.count)) {
      ++stats_.frames_truncated;
      if (trunc_ctr_ != nullptr) trunc_ctr_->Increment();
      continue;
    }
    IngestFrame(header, recv_buf_.data() + kNetFrameHeaderBytes);
  }
}

void SocketSource::ReceiveStream() {
  while (!done_ && pending_.size() - pending_pos_ < kMaxPendingItems) {
    const ssize_t n = read(conn_fd_, recv_buf_.data(), recv_buf_.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      Fail("read");
      done_ = true;
      return;
    }
    if (n == 0) {
      // Peer closed. Mid-frame bytes mean the stream was cut, not ended:
      // report it — the partial frame's items are never delivered.
      if (!stream_buf_.empty() && error_.ok()) {
        error_ = Status::Internal(
            "SocketSource(tcp): connection closed mid-frame (" +
            std::to_string(stream_buf_.size()) +
            " bytes of a partial frame) — the stream ended early, not "
            "cleanly");
        ++stats_.frames_truncated;
        if (trunc_ctr_ != nullptr) trunc_ctr_->Increment();
      }
      done_ = true;
      return;
    }
    stats_.bytes_received += static_cast<uint64_t>(n);
    if (bytes_ctr_ != nullptr) bytes_ctr_->Increment(static_cast<uint64_t>(n));
    stream_buf_.insert(stream_buf_.end(), recv_buf_.data(),
                       recv_buf_.data() + n);
    // Consume every complete frame in the buffer.
    size_t pos = 0;
    while (!done_ && stream_buf_.size() - pos >= kNetFrameHeaderBytes) {
      const NetFrameHeader header =
          DecodeNetFrameHeader(stream_buf_.data() + pos);
      if (header.count > kNetMaxFrameItems) {
        // A count no sender produces: the byte stream is desynchronized
        // (not a framing boundary) — fatal, nothing after it can be
        // trusted.
        Fail("framing desync on TCP stream (impossible frame count)");
        done_ = true;
        break;
      }
      const size_t need = NetFrameBytes(header.count);
      if (stream_buf_.size() - pos < need) break;
      IngestFrame(header, stream_buf_.data() + pos + kNetFrameHeaderBytes);
      pos += need;
    }
    if (pos > 0) {
      stream_buf_.erase(stream_buf_.begin(),
                        stream_buf_.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }
}

void SocketSource::IngestFrame(const NetFrameHeader& header,
                               const uint8_t* payload) {
  // Sequence accounting: a gap proves frames were sent that never
  // arrived. A sequence below the expected one is late: a duplicate of a
  // frame already ingested, or a reordered frame whose gap was already
  // counted as dropped. Either way its items are not ingested, so
  // items_received + frames_dropped × frame == items_sent still holds.
  if (header.sequence < next_sequence_) {
    ++stats_.frames_late;
    if (late_ctr_ != nullptr) late_ctr_->Increment();
    return;
  }
  if (header.sequence > next_sequence_) {
    const uint64_t gap = header.sequence - next_sequence_;
    stats_.frames_dropped += gap;
    if (drops_ctr_ != nullptr) drops_ctr_->Increment(gap);
  }
  next_sequence_ = header.sequence + 1;
  if (header.count == 0) {
    // The explicit end-of-stream sentinel (a repeat is late, rejected
    // above).
    stats_.sentinel_seen = true;
    done_ = true;
    return;
  }
  ++stats_.frames_received;
  stats_.items_received += header.count;
  if (frames_ctr_ != nullptr) frames_ctr_->Increment();
  if (items_ctr_ != nullptr) items_ctr_->Increment(header.count);
  const size_t old = pending_.size();
  pending_.resize(old + header.count);
  std::memcpy(pending_.data() + old, payload, header.count * sizeof(Item));
}

void SocketSource::PublishQueueDepth() {
  if (queue_gauge_ == nullptr) return;
  const bool tcp = options_.transport == NetTransport::kTcp;
  const int fd = tcp ? conn_fd_ : fd_;
  int queued = 0;
  if (fd >= 0 && ioctl(fd, FIONREAD, &queued) != 0) queued = 0;
  queue_gauge_->Set(static_cast<double>(queued));
}

}  // namespace fewstate
