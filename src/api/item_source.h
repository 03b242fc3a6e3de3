#ifndef FEWSTATE_API_ITEM_SOURCE_H_
#define FEWSTATE_API_ITEM_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stream_types.h"

namespace fewstate {

/// \brief Pull-based stream of items — the library's ingestion boundary.
///
/// The paper's model (§1.5) is an *unbounded* stream observed one update at
/// a time; a `std::vector<Item>` entry point caps stream length at RAM and
/// rules out live ingest. An `ItemSource` inverts that: consumers
/// (`ShardedEngine::Run`, `StreamingAlgorithm::Drain`)
/// pull batches until the source reports end-of-stream, so a run needs
/// O(batch) memory regardless of stream length, and a generator or socket
/// can stand behind the same interface as a prebuilt vector.
///
/// Sources are single-pass: once `NextBatch` returns 0 the stream is over.
/// To replay a workload, construct a fresh source (cheap for all adapters
/// in this header).
class ItemSource {
 public:
  virtual ~ItemSource() = default;

  /// \brief Fills `out[0..cap)` with up to `cap` items, in stream order,
  /// and returns the number written. Returns 0 (with `cap` > 0) exactly at
  /// end-of-stream; a call with `cap` == 0 returns 0 without consuming.
  ///
  /// A live adapter (`SocketSource`) *may block* until
  /// items are available or end-of-stream is established — 0 still means
  /// only end-of-stream, never "no items yet". That is what lets
  /// `ForEachBatch` treat the first zero-length batch as the end of the
  /// drain for every source, file-backed or live.
  virtual size_t NextBatch(Item* out, size_t cap) = 0;

  /// \brief Number of items remaining ahead of the cursor, when known.
  /// `nullopt` means unsized (a live feed with no declared horizon) —
  /// consumers must not require it for correctness or termination.
  virtual std::optional<uint64_t> SizeHint() const { return std::nullopt; }

  /// \brief The source's error state. `NextBatch` returning 0 means only
  /// "no more items" — it cannot distinguish a clean end-of-stream from an
  /// unopenable file or a mid-stream read failure, so a consumer that
  /// cares whether the stream it drained was the *whole* stream must
  /// check `status()` after the drain (and before trusting a zero-item
  /// run). OK for in-memory and generator sources; adapters report the
  /// first failure they saw and composites propagate their children's.
  virtual Status status() const { return Status::OK(); }
};

/// \brief Default pull granularity of the library's drains
/// (`StreamingAlgorithm::Drain`, `Materialize`, the `StreamStats`
/// source oracle): big enough to amortise the per-batch `UpdateBatch`
/// dispatch and give the batch hash kernels full-width runs, small enough
/// (32 KiB of items) that an unsized drain stays O(batch) resident.
constexpr size_t kDefaultDrainBatchItems = 4096;

/// \brief The library's single ingest loop: pulls batches from `source`
/// into `buffer` (capacity `cap` items) until end-of-stream, handing each
/// batch to `fn(const Item* batch, size_t count)`. Returns the total item
/// count. Every drain in the library — `ShardedEngine`,
/// `StreamingAlgorithm::Drain`/`Consume` — routes through this helper.
template <typename Fn>
uint64_t ForEachBatch(ItemSource& source, Item* buffer, size_t cap, Fn&& fn) {
  uint64_t total = 0;
  for (;;) {
    const size_t got = source.NextBatch(buffer, cap);
    if (got == 0) break;
    fn(static_cast<const Item*>(buffer), got);
    total += got;
  }
  return total;
}

/// \brief Drains `source` into a vector (reserving `SizeHint()` when
/// given). The bridge back from lazy to materialized — for oracles and
/// tests, not for ingest paths.
Stream Materialize(ItemSource& source);
Stream Materialize(ItemSource&& source);

/// \brief Zero-copy view over an existing `Stream` (borrowed; the vector
/// must outlive the source), or an owning variant for temporaries — how a
/// materialized vector reaches an engine (`Run(VectorSource(stream))`),
/// and the shim behind `Consume(const Stream&)`.
class VectorSource : public ItemSource {
 public:
  /// \brief Borrows `stream`; no copy is made.
  explicit VectorSource(const Stream& stream) : view_(&stream) {}

  /// \brief Takes ownership of `stream` (e.g. a materialized adversarial
  /// instance handed straight to an engine).
  explicit VectorSource(Stream&& stream)
      : owned_(std::move(stream)), view_(nullptr) {}

  /// \brief Copies the next `cap` items out of the vector, no allocation.
  size_t NextBatch(Item* out, size_t cap) override;

  /// \brief Exact: items remaining ahead of the cursor.
  std::optional<uint64_t> SizeHint() const override;

 private:
  const Stream& stream() const { return view_ != nullptr ? *view_ : owned_; }

  Stream owned_;
  const Stream* view_;  // nullptr => owned_
  size_t pos_ = 0;
};

/// \brief Lazily emits `length` draws of a stateful draw function —
/// distributions stream in O(1) memory instead of materializing
/// (`ZipfSource` / `UniformSource` / `PermutationSource` in
/// `stream/generators.h` and `LowerBoundSource` in `stream/adversarial.h`
/// build on this). For an *actual* live feed use `SocketSource` in
/// `net/socket_source.h`; a generator is the deterministic, loss-free
/// workload driver in examples and benches.
class GeneratorSource : public ItemSource {
 public:
  /// \brief Stateful draw function producing the next item each call.
  using DrawFn = std::function<Item()>;

  /// \brief Emits `draw()` exactly `length` times.
  GeneratorSource(uint64_t length, DrawFn draw)
      : remaining_(length), draw_(std::move(draw)) {}

  /// \brief Fills the batch by calling `draw()` up to `cap` times.
  size_t NextBatch(Item* out, size_t cap) override;

  /// \brief Exact: draws remaining.
  std::optional<uint64_t> SizeHint() const override { return remaining_; }

 private:
  uint64_t remaining_;
  DrawFn draw_;
};

/// \brief Replays a binary trace of host-endian u64 item records, batch by
/// batch — captured workloads re-ingest without loading the file into RAM.
/// Write traces with `WriteTrace` below.
class FileSource : public ItemSource {
 public:
  /// \brief Opens the trace at `path`; check `ok()` before relying on
  /// any items. An unopenable path, a trace whose byte length is not a
  /// whole number of records, or a read failure mid-replay all surface
  /// through `ok()`/`status()` — never as a silent short or empty stream.
  explicit FileSource(const std::string& path);
  ~FileSource() override;
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  /// \brief False iff the source has seen any failure: unopenable path,
  /// truncated trace (trailing partial record), or stream read error.
  bool ok() const { return status_.ok(); }

  /// \brief The first failure seen, with the path and cause; OK while the
  /// replay is clean.
  Status status() const override { return status_; }

  /// \brief Reads up to `cap` u64 records from the file. A truncated
  /// trailing record or `std::ferror` on the stream sets `status()` — EOF
  /// and failure are not conflated.
  size_t NextBatch(Item* out, size_t cap) override;

  /// \brief Records remaining when the file is seekable; nullopt for
  /// pipes/fifos and for unopenable paths (unknown, not "0 left" — a bad
  /// path must not masquerade as a known-empty stream).
  std::optional<uint64_t> SizeHint() const override;

 private:
  std::FILE* file_ = nullptr;
  uint64_t remaining_ = 0;
  // False when the record count could not be determined up front (e.g. a
  // non-seekable pipe): SizeHint() is then nullopt, not a false "0 left".
  bool size_known_ = false;
  Status status_;  // first failure wins; OK initially
};

/// \brief Writes `stream` as the binary record format `FileSource` reads
/// (host-endian u64 per item; same-machine capture/replay).
Status WriteTrace(const std::string& path, const Stream& stream);

/// \brief Forwards a borrowed source but hides its `SizeHint()` —
/// simulates a feed with no declared horizon (what a socket looks like).
/// Consumers must behave identically with and without the hint; the
/// sharded regression tests pin that down.
class UnsizedSource : public ItemSource {
 public:
  /// \brief Borrows `inner`; items pass through untouched.
  explicit UnsizedSource(ItemSource* inner) : inner_(inner) {}

  /// \brief Forwards to the inner source.
  size_t NextBatch(Item* out, size_t cap) override {
    return inner_->NextBatch(out, cap);
  }
  /// \brief Always nullopt — the decorator's whole point.
  std::optional<uint64_t> SizeHint() const override { return std::nullopt; }

  /// \brief Forwards to the inner source (errors are not hidden, only the
  /// size is).
  Status status() const override { return inner_->status(); }

 private:
  ItemSource* inner_;
};

}  // namespace fewstate

#endif  // FEWSTATE_API_ITEM_SOURCE_H_
