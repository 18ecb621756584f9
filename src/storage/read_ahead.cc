#include "storage/read_ahead.h"

#include <algorithm>
#include <span>

namespace fieldrep {

void ReadAheadCursor::Advance(size_t i) {
  const size_t at = i - begin_;
  const size_t from = std::max(at, announced_);
  if (at < next_top_up_ || from >= pages_.size()) return;
  size_t covered = 0;
  (void)pool_->ReadAhead(std::span<const PageId>(pages_).subspan(from),
                         &covered);
  announced_ = from + covered;
  // Top up again once the consumer is halfway through what lies ahead;
  // with the budget used up (nothing announced), retry at the next item.
  next_top_up_ = at + std::max<size_t>(1, (announced_ - at) / 2);
}

}  // namespace fieldrep
