#ifndef FEWSTATE_STATE_WRITE_SINK_H_
#define FEWSTATE_STATE_WRITE_SINK_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fewstate {

/// \brief One changed word of a batch span: in-batch update
/// `update_index` (0-based) wrote `cell`. Batch kernels collect these in
/// program order (`BatchUpdateScratch`) and the accountant hands the whole
/// batch to its sink as one `WriteSink::OnWriteSpan`.
struct BatchWrite {
  uint64_t cell = 0;
  uint32_t update_index = 0;
};

/// \brief Streaming consumer of an algorithm's state-write events — the
/// seam between state accounting and write pricing.
///
/// The paper's premise (§1.1) is that state *writes* are the expensive
/// resource on NVM. A `StateAccountant` counts them; a `WriteSink` attached
/// to the accountant *sees* them, one event per word written, in program
/// order, as they happen. That inversion is what lets wear be priced on
/// unbounded streams: a sink with O(device) state (`LiveNvmSink` in
/// `src/nvm/live_sink.h`) replaces an O(stream) recorded trace
/// (`WriteLog`, itself just one sink implementation now).
///
/// Contract:
///  * `OnWrite(epoch, cell)` fires once per word whose value actually
///    changed (suppressed writes never reach the sink — they are not state
///    changes and cost no wear), in the exact order the algorithm wrote.
///  * `OnWriteSpan(base_epoch, writes, n)` delivers one batch of such
///    events at once, still in program order: record i is the event
///    `OnWrite(base_epoch + writes[i].update_index + 1, writes[i].cell)`.
///    The default does exactly that loop; sinks on the hot path override
///    it to hoist per-event dispatch out of the loop. A span must leave a
///    sink bitwise as the equivalent per-word calls would.
///  * `OnBulkReads(count)` fires for aggregate read traffic (reads cost
///    energy/latency on asymmetric memories but never wear cells, so only
///    the count matters — no addresses).
///  * `Flush()` is an end-of-run barrier for buffering sinks; callers that
///    finish a measurement phase should invoke it before reading results.
///
/// Sinks are not thread-safe; like the accountant they belong to exactly
/// one algorithm instance (thread-confined in the sharded engine).
class WriteSink {
 public:
  virtual ~WriteSink() = default;

  /// \brief One word of state changed: `cell` was written during stream
  /// update `epoch` (0 = initialisation).
  virtual void OnWrite(uint64_t epoch, uint64_t cell) = 0;

  /// \brief A batch of `n` write events, in program order, whose epochs
  /// are `base_epoch + update_index + 1`.
  virtual void OnWriteSpan(uint64_t base_epoch, const BatchWrite* writes,
                           size_t n) {
    for (size_t i = 0; i < n; ++i) {
      OnWrite(base_epoch + writes[i].update_index + 1, writes[i].cell);
    }
  }

  /// \brief `count` words of state were read (aggregate; no addresses).
  virtual void OnBulkReads(uint64_t count) { (void)count; }

  /// \brief End-of-run barrier for buffering sinks.
  virtual void Flush() {}
};

/// \brief Fans every event out to several borrowed sinks, in order — e.g.
/// a bounded `WriteLog` for trace capture *and* a `LiveNvmSink` for exact
/// wear, in one pass. Sinks must outlive the tee.
class TeeSink : public WriteSink {
 public:
  /// \brief Borrows `sinks`; events fan out in the given order.
  explicit TeeSink(std::vector<WriteSink*> sinks)
      : sinks_(std::move(sinks)) {}

  /// \brief Forwards the write event to every sink, in order.
  void OnWrite(uint64_t epoch, uint64_t cell) override {
    for (WriteSink* sink : sinks_) sink->OnWrite(epoch, cell);
  }
  /// \brief Forwards the whole span to every sink, in order (each sink
  /// still sees its own events in program order).
  void OnWriteSpan(uint64_t base_epoch, const BatchWrite* writes,
                   size_t n) override {
    for (WriteSink* sink : sinks_) sink->OnWriteSpan(base_epoch, writes, n);
  }
  /// \brief Forwards the read count to every sink, in order.
  void OnBulkReads(uint64_t count) override {
    for (WriteSink* sink : sinks_) sink->OnBulkReads(count);
  }
  /// \brief Flushes every sink, in order.
  void Flush() override {
    for (WriteSink* sink : sinks_) sink->Flush();
  }

 private:
  std::vector<WriteSink*> sinks_;
};

}  // namespace fewstate

#endif  // FEWSTATE_STATE_WRITE_SINK_H_
