#include "nvm/cache_tier.h"

#include <algorithm>

namespace fewstate {

Status CacheSpec::Validate() const {
  if (sets == 0) return Status::OK();  // disabled: nothing to check
  if (ways == 0) {
    return Status::InvalidArgument("CacheSpec.ways must be >= 1");
  }
  if (line_words == 0 || line_words > 64) {
    return Status::InvalidArgument(
        "CacheSpec.line_words must be in [1, 64] (per-word dirty mask)");
  }
  return Status::OK();
}

int CacheStats::ReuseBucketOf(uint64_t distance) {
  // Same rule as Histogram::BucketOf: bucket i spans [2^(i-1), 2^i).
  if (distance == 0) return 0;
  return 64 - __builtin_clzll(distance);
}

uint64_t CacheStats::ReuseBucketUpper(int index) {
  if (index <= 0) return 0;
  if (index >= kReuseBuckets - 1) return ~uint64_t{0};
  return (uint64_t{1} << index) - 1;
}

uint64_t CacheStats::ReuseP50() const {
  uint64_t recorded = 0;
  for (uint64_t count : reuse_hist) recorded += count;
  if (recorded == 0) return 0;
  uint64_t seen = 0;
  const uint64_t median_rank = (recorded + 1) / 2;
  for (int i = 0; i < kReuseBuckets; ++i) {
    seen += reuse_hist[i];
    if (seen >= median_rank) return ReuseBucketUpper(i);
  }
  return ReuseBucketUpper(kReuseBuckets - 1);
}

CacheTier::CacheTier(const CacheSpec& spec) : spec_(spec) {
  lines_.resize(spec_.sets * spec_.ways);
  if (spec_.reuse_stack_max > 0) {
    reuse_stack_.reserve(static_cast<size_t>(
        std::min<uint64_t>(spec_.reuse_stack_max, 1 << 16)));
  }
}

void CacheTier::RecordReuse(uint64_t line_tag) {
  if (spec_.reuse_stack_max == 0) return;
  // Mattson stack: distance = #distinct lines touched since this line's
  // last access. MRU lives at the back of the vector.
  for (size_t i = reuse_stack_.size(); i-- > 0;) {
    if (reuse_stack_[i] == line_tag) {
      const uint64_t distance = reuse_stack_.size() - 1 - i;
      ++stats_.reuse_hist[static_cast<size_t>(
          CacheStats::ReuseBucketOf(distance))];
      reuse_stack_.erase(reuse_stack_.begin() + static_cast<long>(i));
      reuse_stack_.push_back(line_tag);
      return;
    }
  }
  ++stats_.reuse_cold;  // first touch, or fell off the capped stack
  reuse_stack_.push_back(line_tag);
  if (reuse_stack_.size() > spec_.reuse_stack_max) {
    reuse_stack_.erase(reuse_stack_.begin());  // drop the LRU entry
  }
}

void CacheTier::RetireDirty(Line& line) {
  const uint64_t dirty_words =
      static_cast<uint64_t>(__builtin_popcountll(line.dirty_mask));
  stats_.writebacks += dirty_words;
  stats_.writebacks_pending -= dirty_words;
  line.dirty_mask = 0;
}

CacheTier::Eviction CacheTier::AccessForWrite(uint64_t cell) {
  ++stats_.total_writes;
  const uint64_t tag = cell / spec_.line_words;
  const uint32_t offset = static_cast<uint32_t>(cell % spec_.line_words);
  const uint64_t word_bit = uint64_t{1} << offset;
  const uint64_t set = tag % spec_.sets;
  Line* const base = &lines_[set * spec_.ways];

  RecordReuse(tag);

  // Hit: the line is resident in its set.
  for (uint32_t w = 0; w < spec_.ways; ++w) {
    Line& line = base[w];
    if (!line.valid || line.tag != tag) continue;
    ++stats_.hits;
    if (line.dirty_mask & word_bit) {
      ++stats_.absorbed_writes;  // the word was dirty: write coalesced
    } else {
      line.dirty_mask |= word_bit;
      ++stats_.writebacks_pending;
    }
    line.stamp = ++use_counter_;
    return Eviction{};
  }

  // Miss: allocate (write-allocate), evicting the LRU way if the set is
  // full. An invalid way is always preferred over eviction.
  ++stats_.misses;
  Line* victim = base;
  for (uint32_t w = 0; w < spec_.ways; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.stamp < victim->stamp) victim = &line;
  }

  Eviction ev;
  if (victim->valid) {
    if (victim->dirty_mask != 0) {
      ++stats_.dirty_evictions;
      ev.first_word = victim->tag * spec_.line_words;
      ev.dirty_mask = victim->dirty_mask;
      RetireDirty(*victim);
    } else {
      ++stats_.clean_evictions;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->dirty_mask = word_bit;
  victim->stamp = ++use_counter_;
  ++stats_.writebacks_pending;
  return ev;
}

}  // namespace fewstate
