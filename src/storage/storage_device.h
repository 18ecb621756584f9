#ifndef FIELDREP_STORAGE_STORAGE_DEVICE_H_
#define FIELDREP_STORAGE_STORAGE_DEVICE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace fieldrep {

/// \brief Abstraction over the backing store: a flat, growable array of
/// 4 KiB pages.
///
/// MemoryDevice is the default (the paper's evaluation is analytic, so a
/// RAM-backed "disk" with exact I/O accounting at the buffer pool
/// reproduces its cost quantity); FileDevice is a real file, optionally
/// O_DIRECT and with an io_uring ring for batches. Decorators (fault
/// injection, corruption) wrap either.
///
/// The engine calls its device from many threads at once: parallel
/// readers and server sessions transfer pages concurrently, writers of
/// disjoint sets allocate concurrently, and an asynchronous device
/// completes batches on its own thread. The buffer pool never issues two
/// concurrent transfers of the same page, so per-page ordering is the
/// pool's job, not the device's.
class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  /// Reads page `page_id` into `buf` (kPageSize bytes).
  virtual Status ReadPage(PageId page_id, void* buf) = 0;

  /// Writes kPageSize bytes from `buf` to page `page_id`.
  virtual Status WritePage(PageId page_id, const void* buf) = 0;

  /// Completion callback of the batch operations: one Status per page of
  /// the batch, in batch order. Invoked exactly once, possibly on an
  /// internal device thread (never with device-internal locks held, so the
  /// callback may call back into the engine).
  using AsyncDone = std::function<void(std::span<const Status>)>;

  /// Batch read: fills `bufs[i]` (kPageSize bytes each) with page
  /// `page_ids[i]` and invokes `done` once with per-page statuses when
  /// every page of the batch has completed. A failed page leaves its
  /// buffer unspecified and does not fail its batch-mates. The vectors are
  /// owned by the call (passing by value makes their lifetime the
  /// device's problem), but the *buffers* they point at are the caller's
  /// and must outlive the completion.
  ///
  /// The default loops ReadPage and completes inline, so decorators (fault
  /// injection, corruption) keep their per-page semantics; FileDevice
  /// overrides it (contiguous runs coalesce into preadv, or one SQE per
  /// page over its ring, completing on the reaper thread).
  virtual void ReadPagesAsync(std::vector<PageId> page_ids,
                              std::vector<uint8_t*> bufs, AsyncDone done) {
    std::vector<Status> statuses(page_ids.size());
    for (size_t i = 0; i < page_ids.size(); ++i) {
      statuses[i] = ReadPage(page_ids[i], bufs[i]);
    }
    done(statuses);
  }

  /// Batch write; the mirror of ReadPagesAsync. Buffers must stay valid and
  /// unmodified until `done` runs. The default loops WritePage, so a
  /// simulated crash can land between any two pages of a batch.
  virtual void WritePagesAsync(std::vector<PageId> page_ids,
                               std::vector<const uint8_t*> bufs,
                               AsyncDone done) {
    std::vector<Status> statuses(page_ids.size());
    for (size_t i = 0; i < page_ids.size(); ++i) {
      statuses[i] = WritePage(page_ids[i], bufs[i]);
    }
    done(statuses);
  }

  /// Extends the device by one zeroed page and returns its id.
  virtual Status AllocatePage(PageId* page_id) = 0;

  /// Forces previously written pages to stable storage (fsync). The
  /// write-ahead log calls this to make log records durable before the
  /// pages they describe; counted as `disk_syncs` in IoStats when issued
  /// through the buffer pool. Default: no-op (a MemoryDevice is "stable"
  /// the moment WritePage returns).
  virtual Status Sync() { return Status::OK(); }

  /// Number of pages allocated so far.
  virtual uint32_t page_count() const = 0;
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_STORAGE_DEVICE_H_
