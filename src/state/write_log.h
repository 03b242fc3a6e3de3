#ifndef FEWSTATE_STATE_WRITE_LOG_H_
#define FEWSTATE_STATE_WRITE_LOG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "state/write_sink.h"

namespace fewstate {

/// \brief One recorded memory write: which logical cell was written during
/// which stream update.
struct WriteRecord {
  /// Stream update index (1-based) during which the write happened; 0 for
  /// writes made before the first update (initialisation).
  uint64_t epoch = 0;
  /// Logical cell (word) address within the algorithm's state.
  uint64_t cell = 0;
};

/// \brief Append-only trace of every state write an algorithm performs —
/// the recording `WriteSink`.
///
/// Attach one to a `StateAccountant` (via `set_write_sink`) to capture an
/// algorithm's write behaviour for offline replay onto the NVM simulator
/// (`ReplayOnNvm`). A configurable capacity guards against unbounded
/// growth; once full, further writes are counted but not stored — replay
/// surfaces the drop count, and for unbounded streams the non-recording
/// `LiveNvmSink` prices wear exactly instead.
class WriteLog : public WriteSink {
 public:
  /// \brief Creates a log holding at most `capacity` records.
  explicit WriteLog(uint64_t capacity = 1ULL << 22);

  /// \brief Appends a record (drops it, but counts, past capacity).
  void Append(uint64_t epoch, uint64_t cell);

  /// \brief Sink hook: every state-write event is appended.
  void OnWrite(uint64_t epoch, uint64_t cell) override {
    Append(epoch, cell);
  }

  /// \brief Stored records, in write order.
  const std::vector<WriteRecord>& records() const { return records_; }

  /// \brief Total appends attempted, including dropped ones.
  uint64_t total_appends() const { return total_appends_; }

  /// \brief Number of records dropped due to capacity.
  uint64_t dropped() const {
    return total_appends_ - static_cast<uint64_t>(records_.size());
  }

  /// \brief Removes all records and resets counts.
  void Clear();

 private:
  uint64_t capacity_;
  uint64_t total_appends_ = 0;
  std::vector<WriteRecord> records_;
};

}  // namespace fewstate

#endif  // FEWSTATE_STATE_WRITE_LOG_H_
