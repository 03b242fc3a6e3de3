#include "nvm/cache_tier.h"

#include <algorithm>

namespace fewstate {

Status CacheSpec::Validate() const {
  if (sets == 0) return Status::OK();  // disabled: nothing to check
  if (ways == 0) {
    return Status::InvalidArgument("CacheSpec.ways must be >= 1");
  }
  if ((sets & (sets - 1)) != 0) {
    return Status::InvalidArgument(
        "CacheSpec.sets must be a power of two (sets index by bit slice)");
  }
  if (line_words == 0 || line_words > 64 ||
      (line_words & (line_words - 1)) != 0) {
    return Status::InvalidArgument(
        "CacheSpec.line_words must be a power of two in [1, 64] (per-word "
        "dirty mask, offsets by bit slice)");
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

CacheTier::CacheTier(const CacheSpec& spec)
    : spec_(spec),
      line_shift_(static_cast<uint32_t>(__builtin_ctz(spec.line_words))),
      offset_mask_(spec.line_words - 1),
      set_mask_(spec.sets - 1),
      ways_(spec.ways) {
  lines_.resize(spec_.sets * spec_.ways);
  if (spec_.reuse_stack_max > 0) {
    reuse_stack_.reserve(static_cast<size_t>(
        std::min<uint64_t>(spec_.reuse_stack_max, 1 << 16)));
  }
}

void CacheTier::RecordReuse(uint64_t line_tag) {
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

}  // namespace fewstate
