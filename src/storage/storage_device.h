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

  /// Vectored read: fills `bufs[i]` (kPageSize bytes each) with page
  /// `page_ids[i]`. The default implementation issues one ReadPage per
  /// page, so decorators (fault injection, corruption) keep their per-page
  /// semantics; FileDevice overrides it (contiguous runs coalesce into
  /// preadv, or one SQE per page over its ring). On error, the contents
  /// of `bufs` are unspecified — callers must not install any of the
  /// pages.
  virtual Status ReadPages(std::span<const PageId> page_ids,
                           std::span<uint8_t* const> bufs) {
    for (size_t i = 0; i < page_ids.size(); ++i) {
      FIELDREP_RETURN_IF_ERROR(ReadPage(page_ids[i], bufs[i]));
    }
    return Status::OK();
  }

  /// Vectored write: writes `bufs[i]` to page `page_ids[i]`. The default
  /// implementation issues one WritePage per page (preserving decorator
  /// fault semantics — a simulated crash can land between any two pages of
  /// a batch); FileDevice coalesces contiguous runs into pwritev, or
  /// submits over its ring. On error, a prefix of the batch may have
  /// reached the device.
  virtual Status WritePages(std::span<const PageId> page_ids,
                            std::span<const uint8_t* const> bufs) {
    for (size_t i = 0; i < page_ids.size(); ++i) {
      FIELDREP_RETURN_IF_ERROR(WritePage(page_ids[i], bufs[i]));
    }
    return Status::OK();
  }

  /// Completion callback of the asynchronous batch operations: one Status
  /// per page of the batch, in batch order. Invoked exactly once, possibly
  /// on an internal device thread (never with device-internal locks held,
  /// so the callback may call back into the engine).
  using AsyncDone = std::function<void(std::span<const Status>)>;

  /// True when this device completes the *Async operations after the
  /// submitting call returns (a real asynchronous backend). The default
  /// implementations below complete inline, so callers that need to know
  /// whether a completion can be concurrent key off this.
  virtual bool async_io() const { return false; }

  /// Asynchronous vectored read: fills `bufs[i]` with page `page_ids[i]`
  /// and invokes `done` once with per-page statuses when every page of
  /// the batch has completed. The vectors are owned by the call (they
  /// must stay valid until completion; passing by value makes that the
  /// device's problem, not the caller's) — but the *buffers* they point
  /// at are the caller's, and must outlive the completion.
  ///
  /// The default implementation completes synchronously through
  /// ReadPages, so decorators (fault injection, corruption) keep their
  /// per-page semantics on the async path too, and devices without a
  /// native async engine are trivially correct. A batch-level error is
  /// reported against every page (contents unspecified — install none).
  virtual void ReadPagesAsync(std::vector<PageId> page_ids,
                              std::vector<uint8_t*> bufs, AsyncDone done) {
    Status s = ReadPages(page_ids, bufs);
    std::vector<Status> statuses(page_ids.size(), s);
    done(statuses);
  }

  /// Asynchronous vectored write; the mirror of ReadPagesAsync. Buffers
  /// must stay valid and unmodified until `done` runs.
  virtual void WritePagesAsync(std::vector<PageId> page_ids,
                               std::vector<const uint8_t*> bufs,
                               AsyncDone done) {
    Status s = WritePages(page_ids, bufs);
    std::vector<Status> statuses(page_ids.size(), s);
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
