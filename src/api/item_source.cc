#include "api/item_source.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace fewstate {

Stream Materialize(ItemSource& source) {
  Stream out;
  if (const std::optional<uint64_t> hint = source.SizeHint()) {
    out.reserve(static_cast<size_t>(*hint));
  }
  std::vector<Item> buffer(kDefaultDrainBatchItems);
  ForEachBatch(source, buffer.data(), buffer.size(),
               [&out](const Item* batch, size_t count) {
                 out.insert(out.end(), batch, batch + count);
               });
  return out;
}

Stream Materialize(ItemSource&& source) { return Materialize(source); }

// --- StreamingAlgorithm: the Consume/Drain pair declared in
// common/stream_types.h lives here so the one ingest loop (ForEachBatch)
// is the only place items move from a source into Update calls.

uint64_t StreamingAlgorithm::Drain(ItemSource& source) {
  std::vector<Item> buffer(kDefaultDrainBatchItems);
  return ForEachBatch(source, buffer.data(), buffer.size(),
                      [this](const Item* batch, size_t count) {
                        UpdateBatch(batch, count);
                      });
}

void StreamingAlgorithm::Consume(const Stream& stream) {
  VectorSource source(stream);
  Drain(source);
}

// --- VectorSource

size_t VectorSource::NextBatch(Item* out, size_t cap) {
  const Stream& s = stream();
  const size_t n = std::min(cap, s.size() - pos_);
  if (n > 0) {
    std::memcpy(out, s.data() + pos_, n * sizeof(Item));
    pos_ += n;
  }
  return n;
}

std::optional<uint64_t> VectorSource::SizeHint() const {
  return stream().size() - pos_;
}

// --- GeneratorSource

size_t GeneratorSource::NextBatch(Item* out, size_t cap) {
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(cap, remaining_));
  for (size_t i = 0; i < n; ++i) out[i] = draw_();
  remaining_ -= n;
  return n;
}

// --- FileSource

FileSource::FileSource(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    status_ = Status::Internal("FileSource: cannot open '" + path + "': " +
                               std::strerror(errno));
    return;
  }
  if (std::fseek(file_, 0, SEEK_END) == 0) {
    const long bytes = std::ftell(file_);
    if (bytes >= 0 && std::fseek(file_, 0, SEEK_SET) == 0) {
      remaining_ = static_cast<uint64_t>(bytes) / sizeof(Item);
      size_known_ = true;
      // A byte length that is not a whole number of records means the
      // trace was truncated mid-record (or is not a trace at all) —
      // surface it up front rather than replaying a short tail as clean.
      if (static_cast<uint64_t>(bytes) % sizeof(Item) != 0) {
        status_ = Status::Internal(
            "FileSource: '" + path + "' is " + std::to_string(bytes) +
            " bytes — not a whole number of 8-byte records (truncated "
            "trace?)");
      }
    }
  }
  // A non-seekable stream (pipe/fifo) still reads fine; it is just
  // unsized. Its trailing partial record, if any, is caught at EOF in
  // NextBatch.
}

FileSource::~FileSource() {
  if (file_ != nullptr) std::fclose(file_);
}

size_t FileSource::NextBatch(Item* out, size_t cap) {
  if (file_ == nullptr || cap == 0) return 0;
  // Byte-granular read so a trailing partial record is visible (an
  // element-granular fread would silently round it away).
  const size_t want_bytes = cap * sizeof(Item);
  const size_t got_bytes =
      std::fread(reinterpret_cast<char*>(out), 1, want_bytes, file_);
  const size_t got = got_bytes / sizeof(Item);
  if (got_bytes < want_bytes && status_.ok()) {
    if (std::ferror(file_) != 0) {
      status_ = Status::Internal(
          "FileSource: read error mid-replay (ferror set) — the stream "
          "ended early, not cleanly");
    } else if (got_bytes % sizeof(Item) != 0) {
      status_ = Status::Internal(
          "FileSource: trailing partial record at end of trace "
          "(truncated capture?)");
    }
  }
  remaining_ -= std::min<uint64_t>(remaining_, got);
  return got;
}

std::optional<uint64_t> FileSource::SizeHint() const {
  // Unopenable or non-seekable: the size is unknown. In particular a bad
  // path must not report "0 items left" — that is indistinguishable from
  // a legitimately empty trace and breeds silent zero-item runs.
  if (file_ == nullptr || !size_known_) return std::nullopt;
  return remaining_;
}

Status WriteTrace(const std::string& path, const Stream& stream) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("WriteTrace: cannot open '" + path + "'");
  }
  const size_t written =
      stream.empty()
          ? 0
          : std::fwrite(stream.data(), sizeof(Item), stream.size(), file);
  const bool closed_ok = std::fclose(file) == 0;
  if (written != stream.size() || !closed_ok) {
    return Status::Internal("WriteTrace: short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace fewstate
