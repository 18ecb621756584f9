#ifndef FIELDREP_STORAGE_READ_AHEAD_H_
#define FIELDREP_STORAGE_READ_AHEAD_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/oid.h"
#include "storage/page.h"

namespace fieldrep {

/// \brief Keeps a stage's sorted page list announced to the buffer pool
/// ahead of the stage's consumer (DESIGN.md §9).
///
/// A query stage that visits its items in sorted OID order knows every
/// page it will touch before it reads the first one. The cursor hands
/// that list to BufferPool::ReadAhead as far as the pool-wide read-ahead
/// budget allows, and tops it up each time the consumer has used half of
/// what is announced ahead of it, so the device sees a few deep batches
/// per stage instead of one round trip per window.
///
/// Announcing is a scheduling hint: errors are ignored (the consumer's
/// own fetches report real ones), and charge-on-first-fetch keeps the
/// logical I/O counters unchanged. With the pool's read-ahead off the
/// cursor does nothing.
class ReadAheadCursor {
 public:
  /// Cursor over items [begin, end) of `items`, consumed in that order;
  /// `oid_of(item)` addresses an item's page (invalid OIDs have none).
  template <typename Item, typename OidOf>
  ReadAheadCursor(BufferPool* pool, const std::vector<Item>& items,
                  size_t begin, size_t end, OidOf oid_of)
      : pool_(pool), begin_(begin) {
    if (!pool->read_ahead()) return;
    pages_.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const Oid& oid = oid_of(items[i]);
      pages_.push_back(oid.valid() ? oid.page_id : kInvalidPageId);
    }
  }

  /// Cursor over all of `oids`.
  ReadAheadCursor(BufferPool* pool, const std::vector<Oid>& oids)
      : ReadAheadCursor(pool, oids, 0, oids.size(),
                        [](const Oid& oid) -> const Oid& { return oid; }) {}

  /// Cursor over a page list consumed in order (a record file's page
  /// chain).
  ReadAheadCursor(BufferPool* pool, std::vector<PageId> pages)
      : pool_(pool), begin_(0) {
    if (pool->read_ahead()) pages_ = std::move(pages);
  }

  /// Call before consuming item `i` (an index into the constructor's
  /// `items`); items are consumed in increasing order. Items past the
  /// end of the list are not announced.
  void Advance(size_t i);

 private:
  BufferPool* pool_;
  size_t begin_;
  /// Page of each item, relative to begin_.
  std::vector<PageId> pages_;
  /// Items before this one were announced (or already passed).
  size_t announced_ = 0;
  /// Relative item index at which the next top-up runs.
  size_t next_top_up_ = 0;
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_READ_AHEAD_H_
