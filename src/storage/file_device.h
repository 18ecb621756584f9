#ifndef FIELDREP_STORAGE_FILE_DEVICE_H_
#define FIELDREP_STORAGE_FILE_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "storage/storage_device.h"

namespace fieldrep {

struct MetricSample;

/// \brief Storage device backed by a single operating-system file.
///
/// Page `i` lives at byte offset `i * kPageSize`. The device performs no
/// caching of its own — all caching (and all I/O accounting) happens in the
/// BufferPool above it. Single-page operations are plain pread/pwrite in
/// every configuration. Two properties chosen at Open shape the rest
/// (DESIGN.md §15):
///
///   - `o_direct`: the file is opened O_DIRECT and bypasses the OS page
///     cache. Transfers from buffers that are not page-aligned are bounced
///     through an aligned buffer (the pool's frames are aligned, so the hot
///     paths never bounce). If the filesystem refuses the flag the file
///     opens buffered and o_direct() reports false.
///   - `async_io`: batches go through an io_uring ring, one SQE per page,
///     and a reaper thread harvests the completions; the *Async entry
///     points return once the SQEs are submitted. Without a ring — not
///     asked for, io_uring_setup refused (old kernel, seccomp), or built
///     without FIELDREP_HAVE_IO_URING — batches coalesce contiguous runs
///     into preadv/pwritev and the *Async calls complete inline.
///     ring_active() reports which of the two is running.
class FileDevice : public StorageDevice {
 public:
  struct Options {
    /// Open the backing file O_DIRECT (falls back to buffered I/O when the
    /// filesystem refuses the flag).
    bool o_direct = false;
    /// Submit batches through an io_uring ring when the kernel and the
    /// build support one.
    bool async_io = false;
  };

  /// Always-on relaxed-atomic statistics of the ring and the bounce path.
  struct Stats {
    uint64_t sqe_batches = 0;     ///< Submission syscalls issued.
    uint64_t sqes_submitted = 0;  ///< SQEs pushed through the ring.
    uint64_t cqes_harvested = 0;  ///< Completions reaped.
    uint64_t cqe_errors = 0;      ///< Completions carrying an error.
    uint64_t bounce_copies = 0;   ///< Unaligned transfers bounced.
    uint64_t inflight = 0;        ///< Pages currently in flight.
    uint64_t inflight_peak = 0;   ///< High-water mark of inflight.
  };

  /// Creates a closed device; call Open() before use.
  FileDevice();  // defined out of line: members need the complete Ring type
  ~FileDevice() override;

  FileDevice(const FileDevice&) = delete;
  FileDevice& operator=(const FileDevice&) = delete;

  /// Opens (creating if necessary) the backing file and, with
  /// `options.async_io`, the ring. If the file already exists its page
  /// count is recovered from its size. A failed ring setup is not an
  /// error: the device runs without one.
  Status Open(const std::string& path, const Options& options);
  Status Open(const std::string& path) { return Open(path, Options()); }

  /// Waits for in-flight completions, tears the ring down, and closes the
  /// backing file. Does not sync: durability comes from Sync(). Safe to
  /// call twice.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  /// True when batches flow through an io_uring ring.
  bool ring_active() const { return ring_ != nullptr; }
  /// True when the backing file is open with O_DIRECT.
  bool o_direct() const { return o_direct_; }

  Status ReadPage(PageId page_id, void* buf) override;
  Status WritePage(PageId page_id, const void* buf) override;
  /// With the ring: one SQE per page, and `done` runs on the reaper
  /// thread. Without it: contiguous page-id runs coalesce into preadv
  /// calls and `done` runs inline, with one status per run.
  void ReadPagesAsync(std::vector<PageId> page_ids,
                      std::vector<uint8_t*> bufs, AsyncDone done) override;
  /// The mirror of ReadPagesAsync (pwritev without the ring).
  void WritePagesAsync(std::vector<PageId> page_ids,
                       std::vector<const uint8_t*> bufs,
                       AsyncDone done) override;
  Status AllocatePage(PageId* page_id) override;
  /// fdatasync on the backing file. The buffer pool waits for every write
  /// batch it submits, so a checkpoint's sync covers all of them.
  Status Sync() override;
  uint32_t page_count() const override {
    return page_count_.load(std::memory_order_relaxed);
  }

  Stats stats() const;

  /// Appends this device's metric samples (`fieldrep_uring_*`: mode
  /// gauges, submission counters, inflight gauges, CQE latency histogram)
  /// to `out` — registered as a MetricsRegistry collector by Database when
  /// it owns the device.
  void CollectMetrics(std::vector<MetricSample>* out) const;

 private:
  struct Ring;        // io_uring state; absent without a ring
  struct BatchState;  // one async batch's completion bookkeeping

  /// Per-page completion bookkeeping, keyed by SQE user_data.
  struct Pending;

  /// True when `buf` must be bounced through an aligned buffer.
  bool NeedsBounce(const void* buf) const {
    return o_direct_ && reinterpret_cast<uintptr_t>(buf) % kPageSize != 0;
  }

  /// One page through pread (`is_read`) or pwrite, bouncing `buf` when
  /// NeedsBounce.
  Status TransferPage(PageId page_id, uint8_t* buf, bool is_read);

  /// The ring-less batch path: contiguous runs of pages go out as one
  /// preadv/pwritev, single pages and bounced buffers through
  /// TransferPage. Each run's status is stored for every page of the run
  /// in `statuses`; a failed run does not stop the later ones. `bufs` are
  /// written to only when `is_read`.
  void TransferRuns(std::span<const PageId> page_ids,
                    const uint8_t* const* bufs, bool is_read,
                    std::span<Status> statuses);

  /// Submits one batch into the ring (blocking while the pending table is
  /// full) and returns immediately; completion bookkeeping runs on the
  /// reaper thread. Pages failing the bounds check complete immediately
  /// with OutOfRange.
  void SubmitBatch(std::vector<PageId> page_ids, std::vector<uint8_t*> rbufs,
                   std::vector<const uint8_t*> wbufs, bool is_read,
                   AsyncDone done);

  /// Best-effort ring construction: mmaps the SQ/CQ rings and starts the
  /// reaper. Leaves ring_ null on any failure.
  void SetupRing();

  /// Reaper thread: harvests CQEs, finishes batches, dispatches `done`
  /// callbacks (with no device lock held).
  void ReaperLoop();

  /// Tears down the ring (joins the reaper); fd stays open.
  void TeardownRing();

  void ObserveCqeLatency(uint64_t ns);

  int fd_ = -1;
  std::string path_;
  bool o_direct_ = false;
  /// Atomic: reader threads bounds-check against it (pread/pwrite are
  /// themselves thread-safe) while writers extend the file.
  std::atomic<uint32_t> page_count_{0};
  /// Serializes AllocatePage: writers of disjoint sets extend the file
  /// concurrently, and each must get its own page id.
  Mutex extend_mu_{LockRank::kDevice, "file_device.extend_mu"};

  std::unique_ptr<Ring> ring_;
  std::thread reaper_;

  /// Guards the submission queue tail, the pending/free-slot tables, and
  /// the stop flag. The reaper harvests under it but always releases it
  /// before invoking completion callbacks (which re-enter the buffer
  /// pool at lower lock ranks).
  mutable Mutex mu_{LockRank::kDevice, "file_device.mu"};
  CondVar cv_;  ///< Free pending slots.
  bool stop_ = false;

  // Stats (relaxed atomics, the IoStats discipline).
  std::atomic<uint64_t> sqe_batches_{0};
  std::atomic<uint64_t> sqes_submitted_{0};
  std::atomic<uint64_t> cqes_harvested_{0};
  std::atomic<uint64_t> cqe_errors_{0};
  std::atomic<uint64_t> bounce_copies_{0};
  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> inflight_peak_{0};

  /// CQE latency histogram (submit -> harvest, ns). Fixed bucket ladder
  /// shared with the telemetry Histogram exposition.
  static constexpr size_t kLatencyBuckets = 16;
  std::atomic<uint64_t> latency_buckets_[kLatencyBuckets + 1] = {};
  std::atomic<uint64_t> latency_sum_{0};
  std::atomic<uint64_t> latency_count_{0};
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_FILE_DEVICE_H_
