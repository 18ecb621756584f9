#include "storage/file_device.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/strings.h"
#include "telemetry/metrics.h"

// The raw-syscall ring: <linux/io_uring.h> is enough, liburing is not
// needed, so the ring is driven through io_uring_setup/io_uring_enter and
// mmap directly. FIELDREP_HAVE_IO_URING comes from CMake (option
// FIELDREP_WITH_URING + header check); the __NR guards cover exotic libcs
// whose <sys/syscall.h> predates io_uring.
#if defined(__linux__) && defined(FIELDREP_HAVE_IO_URING)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#if defined(__NR_io_uring_setup) && defined(__NR_io_uring_enter)
#define FIELDREP_URING_RING 1
#endif
#endif

#ifndef FIELDREP_URING_RING
#define FIELDREP_URING_RING 0
#endif

namespace fieldrep {

namespace {

// Pages per vectored syscall. Linux IOV_MAX is 1024; a 256-page (1 MiB)
// batch already amortizes the syscall without building huge iovec arrays.
constexpr size_t kMaxIovPages = 256;

// Submission queue depth (pages in flight); also bounds the completion
// backlog — the pending table is sized to it, so the CQ ring can never
// overflow.
[[maybe_unused]] constexpr unsigned kRingDepth = 256;

[[maybe_unused]] uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// CQE latency buckets share the telemetry Histogram's latency ladder so the
// exposition is comparable with every other latency metric in the engine.
const std::vector<uint64_t>& CqeLatencyBounds() {
  static const std::vector<uint64_t> bounds = Histogram::LatencyBoundsNs();
  return bounds;
}

#if FIELDREP_URING_RING

// user_data of wake-up NOPs (reaper shutdown); never a pending-table slot.
constexpr uint64_t kNopUserData = ~0ull;

int IoUringSetup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

int IoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                 unsigned flags) {
  return static_cast<int>(syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                  min_complete, flags, nullptr, 0));
}

#endif  // FIELDREP_URING_RING

}  // namespace

/// One async batch: per-page statuses filled in as CQEs arrive; the last
/// completion (remaining -> 0) hands the batch to the done callback. The
/// page-id/buffer vectors live here so they outlive the submitting call.
struct FileDevice::BatchState {
  std::vector<PageId> page_ids;
  std::vector<uint8_t*> rbufs;
  std::vector<const uint8_t*> wbufs;
  std::vector<Status> statuses;
  size_t remaining = 0;
  AsyncDone done;
};

/// Per-inflight-page state, indexed by SQE user_data. Slots are stable in
/// memory (the table never resizes), so `iov` can be pointed at by the SQE.
struct FileDevice::Pending {
  std::shared_ptr<BatchState> batch;
  uint32_t index = 0;  ///< Position in the batch.
  PageId page_id = kInvalidPageId;
  bool is_read = false;
  uint8_t* dest = nullptr;  ///< Caller's read buffer (copy-out when bounced).
  PageBuffer bounce;        ///< Aligned staging for unaligned caller buffers.
  struct iovec iov {};
  uint64_t submit_ns = 0;
};

struct FileDevice::Ring {
#if FIELDREP_URING_RING
  int ring_fd = -1;

  // mmap regions (cq_map is null under IORING_FEAT_SINGLE_MMAP).
  uint8_t* sq_map = nullptr;
  size_t sq_map_sz = 0;
  uint8_t* cq_map = nullptr;
  size_t cq_map_sz = 0;
  struct io_uring_sqe* sqes = nullptr;
  size_t sqes_map_sz = 0;

  // Kernel-shared ring pointers (offsets resolved at setup).
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_array = nullptr;
  unsigned sq_mask = 0;
  unsigned sq_entries = 0;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  struct io_uring_cqe* cqes = nullptr;
  unsigned cq_mask = 0;

  std::vector<Pending> pending;       // sized sq_entries; bounds inflight
  std::vector<uint32_t> free_slots;

  ~Ring() {
    if (sqes != nullptr) ::munmap(sqes, sqes_map_sz);
    if (cq_map != nullptr) ::munmap(cq_map, cq_map_sz);
    if (sq_map != nullptr) ::munmap(sq_map, sq_map_sz);
    if (ring_fd >= 0) ::close(ring_fd);
  }
#endif  // FIELDREP_URING_RING
};

FileDevice::FileDevice() = default;

FileDevice::~FileDevice() { Close().ok(); }

Status FileDevice::Open(const std::string& path, const Options& options) {
  if (is_open()) {
    return Status::FailedPrecondition("device already open: " + path_);
  }
  int fd = -1;
  o_direct_ = false;
#ifdef O_DIRECT
  if (options.o_direct) {
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_DIRECT, 0644);
    if (fd >= 0) o_direct_ = true;
    // On failure (filesystem refuses the flag) fall through to buffered.
  }
#endif
  if (fd < 0) {
    fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  }
  if (fd < 0) {
    return Status::IOError(
        StringPrintf("open(%s): %s", path.c_str(), std::strerror(errno)));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IOError(
        StringPrintf("lseek(%s): %s", path.c_str(), std::strerror(errno)));
  }
  fd_ = fd;
  path_ = path;
  page_count_.store(static_cast<uint32_t>(size / kPageSize),
                    std::memory_order_relaxed);
  if (options.async_io) SetupRing();
  return Status::OK();
}

void FileDevice::SetupRing() {
#if FIELDREP_URING_RING
  struct io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  int rfd = IoUringSetup(kRingDepth, &params);
  if (rfd < 0) return;  // old kernel / seccomp: run without the ring

  auto ring = std::make_unique<Ring>();
  ring->ring_fd = rfd;
  size_t sq_sz = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  size_t cq_sz =
      params.cq_off.cqes + params.cq_entries * sizeof(struct io_uring_cqe);
  const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) sq_sz = cq_sz = std::max(sq_sz, cq_sz);

  void* sq = ::mmap(nullptr, sq_sz, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, rfd, IORING_OFF_SQ_RING);
  if (sq == MAP_FAILED) return;  // ~Ring closes rfd
  ring->sq_map = static_cast<uint8_t*>(sq);
  ring->sq_map_sz = sq_sz;

  uint8_t* cq = ring->sq_map;
  if (!single_mmap) {
    void* m = ::mmap(nullptr, cq_sz, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, rfd, IORING_OFF_CQ_RING);
    if (m == MAP_FAILED) return;
    ring->cq_map = static_cast<uint8_t*>(m);
    ring->cq_map_sz = cq_sz;
    cq = ring->cq_map;
  }

  size_t sqes_sz = params.sq_entries * sizeof(struct io_uring_sqe);
  void* sqes = ::mmap(nullptr, sqes_sz, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, rfd, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) return;
  ring->sqes = static_cast<struct io_uring_sqe*>(sqes);
  ring->sqes_map_sz = sqes_sz;

  uint8_t* sqp = ring->sq_map;
  ring->sq_head = reinterpret_cast<unsigned*>(sqp + params.sq_off.head);
  ring->sq_tail = reinterpret_cast<unsigned*>(sqp + params.sq_off.tail);
  ring->sq_mask =
      *reinterpret_cast<unsigned*>(sqp + params.sq_off.ring_mask);
  ring->sq_array = reinterpret_cast<unsigned*>(sqp + params.sq_off.array);
  ring->sq_entries = params.sq_entries;
  ring->cq_head = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
  ring->cq_tail = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
  ring->cq_mask = *reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
  ring->cqes =
      reinterpret_cast<struct io_uring_cqe*>(cq + params.cq_off.cqes);

  ring->pending.resize(params.sq_entries);
  ring->free_slots.reserve(params.sq_entries);
  for (uint32_t slot = params.sq_entries; slot-- > 0;) {
    ring->free_slots.push_back(slot);
  }

  stop_ = false;
  ring_ = std::move(ring);
  reaper_ = std::thread(&FileDevice::ReaperLoop, this);
#endif
}

void FileDevice::TeardownRing() {
  if (ring_ == nullptr) return;
#if FIELDREP_URING_RING
  {
    UniqueMutexLock l(mu_);
    // Drain: every slot free means every CQE has been harvested, so no
    // completion callback can fire after this function returns.
    cv_.wait(l, [&] {
      return ring_->free_slots.size() == ring_->pending.size();
    });
    stop_ = true;
    // Wake the reaper out of its GETEVENTS wait with a NOP completion.
    unsigned tail = *ring_->sq_tail;
    unsigned idx = tail & ring_->sq_mask;
    struct io_uring_sqe* sqe = &ring_->sqes[idx];
    std::memset(sqe, 0, sizeof(*sqe));
    sqe->opcode = IORING_OP_NOP;
    sqe->user_data = kNopUserData;
    ring_->sq_array[idx] = idx;
    __atomic_store_n(ring_->sq_tail, tail + 1, __ATOMIC_RELEASE);
    int rc;
    do {
      rc = IoUringEnter(ring_->ring_fd, 1, 0, 0);
    } while (rc < 0 && errno == EINTR);
  }
  reaper_.join();
  ring_.reset();  // ~Ring munmaps and closes the ring fd
#endif
}

Status FileDevice::Close() {
  if (!is_open()) return Status::OK();
  TeardownRing();
  int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) {
    return Status::IOError(
        StringPrintf("close(%s): %s", path_.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Without the ring: pread/pwrite per page, preadv/pwritev per run.
// ---------------------------------------------------------------------------

Status FileDevice::TransferPage(PageId page_id, uint8_t* buf, bool is_read) {
  if (page_id >= page_count()) {
    return Status::OutOfRange(StringPrintf("%s of unallocated page %u",
                                           is_read ? "read" : "write",
                                           page_id));
  }
  uint8_t* io_buf = buf;
  PageBuffer bounce;
  if (NeedsBounce(buf)) {
    bounce = AllocatePageBuffer();
    if (!is_read) std::memcpy(bounce.get(), buf, kPageSize);
    io_buf = bounce.get();
    bounce_copies_.fetch_add(1, std::memory_order_relaxed);
  }
  const off_t offset = static_cast<off_t>(page_id) * kPageSize;
  ssize_t n = is_read ? ::pread(fd_, io_buf, kPageSize, offset)
                      : ::pwrite(fd_, io_buf, kPageSize, offset);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError(StringPrintf(
        "%s page %u: %s", is_read ? "pread" : "pwrite", page_id,
        n >= 0 ? "short transfer" : std::strerror(errno)));
  }
  if (is_read && bounce != nullptr) std::memcpy(buf, io_buf, kPageSize);
  return Status::OK();
}

Status FileDevice::ReadPage(PageId page_id, void* buf) {
  return TransferPage(page_id, static_cast<uint8_t*>(buf), /*is_read=*/true);
}

Status FileDevice::WritePage(PageId page_id, const void* buf) {
  // pwrite only reads the buffer; the cast merely shares TransferPage.
  return TransferPage(page_id,
                      static_cast<uint8_t*>(const_cast<void*>(buf)),
                      /*is_read=*/false);
}

void FileDevice::TransferRuns(std::span<const PageId> page_ids,
                              const uint8_t* const* bufs, bool is_read,
                              std::span<Status> statuses) {
  size_t i = 0;
  while (i < page_ids.size()) {
    // Maximal contiguous run starting at i (capped per syscall). A buffer
    // that needs a bounce goes alone through TransferPage.
    size_t run = 1;
    while (!NeedsBounce(bufs[i]) && i + run < page_ids.size() &&
           run < kMaxIovPages && page_ids[i + run] == page_ids[i] + run &&
           !NeedsBounce(bufs[i + run])) {
      ++run;
    }
    Status s;
    if (run == 1) {
      s = TransferPage(page_ids[i], const_cast<uint8_t*>(bufs[i]), is_read);
    } else if (page_ids[i] + run > page_count()) {
      s = Status::OutOfRange(StringPrintf("vectored %s past page %u",
                                          is_read ? "read" : "write",
                                          page_count()));
    } else {
      std::vector<struct iovec> iov(run);
      for (size_t j = 0; j < run; ++j) {
        iov[j].iov_base = const_cast<uint8_t*>(bufs[i + j]);
        iov[j].iov_len = kPageSize;
      }
      size_t done = 0;
      const size_t total = run * kPageSize;
      off_t base = static_cast<off_t>(page_ids[i]) * kPageSize;
      while (done < total) {
        // Resume after a short transfer: skip fully-moved iovecs and trim
        // the partially-moved one.
        size_t skip = done / kPageSize;
        size_t within = done % kPageSize;
        iov[skip].iov_base = const_cast<uint8_t*>(bufs[i + skip]) + within;
        iov[skip].iov_len = kPageSize - within;
        const int count = static_cast<int>(run - skip);
        const off_t offset = base + static_cast<off_t>(done);
        ssize_t n = is_read ? ::preadv(fd_, iov.data() + skip, count, offset)
                            : ::pwritev(fd_, iov.data() + skip, count, offset);
        if (n <= 0) {
          s = Status::IOError(StringPrintf(
              "%s at page %u: %s", is_read ? "preadv" : "pwritev",
              page_ids[i] + static_cast<PageId>(skip),
              n == 0 ? "short transfer" : std::strerror(errno)));
          break;
        }
        iov[skip].iov_base = const_cast<uint8_t*>(bufs[i + skip]);
        iov[skip].iov_len = kPageSize;
        done += static_cast<size_t>(n);
      }
    }
    for (size_t j = 0; j < run; ++j) statuses[i + j] = s;
    i += run;
  }
}

Status FileDevice::AllocatePage(PageId* page_id) {
  if (!is_open()) return Status::FailedPrecondition("device not open");
  // Aligned, so the extend also works when the file is O_DIRECT.
  PageBuffer zeros = AllocatePageBuffer();
  MutexLock lock(extend_mu_);
  PageId id = page_count();
  ssize_t n = ::pwrite(fd_, zeros.get(), kPageSize,
                       static_cast<off_t>(id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError(StringPrintf("extend to page %u: %s", id,
                                        n < 0 ? std::strerror(errno)
                                              : "short write"));
  }
  page_count_.store(id + 1, std::memory_order_relaxed);
  *page_id = id;
  return Status::OK();
}

Status FileDevice::Sync() {
  if (!is_open()) return Status::FailedPrecondition("device not open");
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(StringPrintf("fdatasync(%s): %s", path_.c_str(),
                                        std::strerror(errno)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Ring submission
// ---------------------------------------------------------------------------

void FileDevice::SubmitBatch(std::vector<PageId> page_ids,
                             std::vector<uint8_t*> rbufs,
                             std::vector<const uint8_t*> wbufs, bool is_read,
                             AsyncDone done) {
#if FIELDREP_URING_RING
  auto batch = std::make_shared<BatchState>();
  batch->page_ids = std::move(page_ids);
  batch->rbufs = std::move(rbufs);
  batch->wbufs = std::move(wbufs);
  const size_t n = batch->page_ids.size();
  batch->statuses.assign(n, Status::OK());
  batch->remaining = n;
  batch->done = std::move(done);
  if (n == 0) {
    batch->done(batch->statuses);
    return;
  }

  bool dispatch_now = false;
  {
    UniqueMutexLock l(mu_);
    unsigned queued = 0;
    std::vector<uint32_t> queued_slots;

    // Pushes the queued SQEs into the kernel. On a hard submission error
    // the un-consumed tail is rolled back and those pages complete with
    // IOError (the kernel consumes nothing on a failed enter, so rolling
    // the tail back by the un-submitted count is exact).
    auto flush = [&]() {
      if (queued == 0) return;
      sqe_batches_.fetch_add(1, std::memory_order_relaxed);
      unsigned submitted = 0;
      Status enter_error;
      while (submitted < queued) {
        int rc = IoUringEnter(ring_->ring_fd, queued - submitted, 0, 0);
        if (rc < 0) {
          if (errno == EINTR || errno == EAGAIN) continue;
          enter_error = Status::IOError(StringPrintf(
              "io_uring_enter: %s", std::strerror(errno)));
          break;
        }
        submitted += static_cast<unsigned>(rc);
      }
      sqes_submitted_.fetch_add(submitted, std::memory_order_relaxed);
      if (!enter_error.ok()) {
        unsigned rollback = queued - submitted;
        __atomic_store_n(ring_->sq_tail, *ring_->sq_tail - rollback,
                         __ATOMIC_RELEASE);
        for (unsigned k = 0; k < rollback; ++k) {
          uint32_t slot = queued_slots[queued_slots.size() - 1 - k];
          Pending& p = ring_->pending[slot];
          auto owner = std::move(p.batch);
          owner->statuses[p.index] = enter_error;
          p.bounce.reset();
          ring_->free_slots.push_back(slot);
          inflight_.fetch_sub(1, std::memory_order_relaxed);
          if (--owner->remaining == 0 && owner == batch) dispatch_now = true;
        }
      }
      queued = 0;
      queued_slots.clear();
    };

    for (size_t i = 0; i < n; ++i) {
      PageId pid = batch->page_ids[i];
      if (pid >= page_count()) {
        batch->statuses[i] = Status::OutOfRange(
            StringPrintf("async %s of unallocated page %u",
                         is_read ? "read" : "write", pid));
        if (--batch->remaining == 0) dispatch_now = true;
        continue;
      }
      if (ring_->free_slots.empty()) {
        flush();  // before blocking: the awaited completions need these SQEs
        cv_.wait(l, [&] { return !ring_->free_slots.empty(); });
      }
      uint32_t slot = ring_->free_slots.back();
      ring_->free_slots.pop_back();
      Pending& p = ring_->pending[slot];
      p.batch = batch;
      p.index = static_cast<uint32_t>(i);
      p.page_id = pid;
      p.is_read = is_read;
      uint8_t* buf = is_read ? batch->rbufs[i]
                             : const_cast<uint8_t*>(batch->wbufs[i]);
      const bool need_bounce = NeedsBounce(buf);
      p.dest = is_read ? buf : nullptr;
      if (need_bounce) {
        p.bounce = AllocatePageBuffer();
        if (!is_read) std::memcpy(p.bounce.get(), buf, kPageSize);
        bounce_copies_.fetch_add(1, std::memory_order_relaxed);
      }
      p.iov.iov_base = need_bounce ? p.bounce.get() : buf;
      p.iov.iov_len = kPageSize;
      p.submit_ns = NowNs();

      unsigned tail = *ring_->sq_tail;
      unsigned idx = tail & ring_->sq_mask;
      struct io_uring_sqe* sqe = &ring_->sqes[idx];
      std::memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = is_read ? IORING_OP_READV : IORING_OP_WRITEV;
      sqe->fd = fd_;
      sqe->off = static_cast<uint64_t>(pid) * kPageSize;
      sqe->addr = reinterpret_cast<uintptr_t>(&p.iov);
      sqe->len = 1;
      sqe->user_data = slot;
      ring_->sq_array[idx] = idx;
      __atomic_store_n(ring_->sq_tail, tail + 1, __ATOMIC_RELEASE);
      ++queued;
      queued_slots.push_back(slot);

      uint64_t inflight =
          inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
      uint64_t peak = inflight_peak_.load(std::memory_order_relaxed);
      while (inflight > peak &&
             !inflight_peak_.compare_exchange_weak(
                 peak, inflight, std::memory_order_relaxed)) {
      }
    }
    flush();
  }
  // Only reachable when no page made it into the ring (every page failed
  // validation or submission): no CQE will ever finish this batch.
  if (dispatch_now) batch->done(batch->statuses);
#else
  // Unreachable: callers check ring_active() first. Complete the batch
  // with an error rather than dropping the callback.
  std::vector<Status> statuses(
      page_ids.size(), Status::Internal("io_uring backend not compiled in"));
  (void)rbufs;
  (void)wbufs;
  (void)is_read;
  done(statuses);
#endif
}

void FileDevice::ReadPagesAsync(std::vector<PageId> page_ids,
                                std::vector<uint8_t*> bufs, AsyncDone done) {
  if (ring_active()) {
    SubmitBatch(std::move(page_ids), std::move(bufs), {}, /*is_read=*/true,
                std::move(done));
    return;
  }
  std::vector<Status> statuses(page_ids.size());
  TransferRuns(page_ids, bufs.data(), /*is_read=*/true, statuses);
  done(statuses);
}

void FileDevice::WritePagesAsync(std::vector<PageId> page_ids,
                                 std::vector<const uint8_t*> bufs,
                                 AsyncDone done) {
  if (ring_active()) {
    SubmitBatch(std::move(page_ids), {}, std::move(bufs), /*is_read=*/false,
                std::move(done));
    return;
  }
  std::vector<Status> statuses(page_ids.size());
  TransferRuns(page_ids, bufs.data(), /*is_read=*/false, statuses);
  done(statuses);
}

// ---------------------------------------------------------------------------
// Completion harvesting
// ---------------------------------------------------------------------------

void FileDevice::ReaperLoop() {
#if FIELDREP_URING_RING
  for (;;) {
    int rc = IoUringEnter(ring_->ring_fd, 0, 1, IORING_ENTER_GETEVENTS);
    if (rc < 0 && errno != EINTR && errno != EAGAIN && errno != EBUSY &&
        errno != ETIME) {
      // The wait itself failed (ring torn down under us would be a bug;
      // transient errors retried above). Avoid a hot spin.
      std::this_thread::yield();
    }
    std::vector<std::shared_ptr<BatchState>> ready;
    bool stop;
    {
      UniqueMutexLock l(mu_);
      unsigned head = *ring_->cq_head;
      unsigned tail = __atomic_load_n(ring_->cq_tail, __ATOMIC_ACQUIRE);
      bool freed = false;
      while (head != tail) {
        struct io_uring_cqe* cqe = &ring_->cqes[head & ring_->cq_mask];
        uint64_t user_data = cqe->user_data;
        int res = cqe->res;
        ++head;
        cqes_harvested_.fetch_add(1, std::memory_order_relaxed);
        if (user_data == kNopUserData) continue;
        Pending& p = ring_->pending[user_data];
        Status st;
        if (res != static_cast<int>(kPageSize)) {
          cqe_errors_.fetch_add(1, std::memory_order_relaxed);
          st = Status::IOError(StringPrintf(
              "async %s page %u: %s", p.is_read ? "read" : "write",
              p.page_id,
              res < 0 ? std::strerror(-res) : "short transfer"));
        } else if (p.is_read && p.bounce != nullptr) {
          std::memcpy(p.dest, p.bounce.get(), kPageSize);
        }
        ObserveCqeLatency(NowNs() - p.submit_ns);
        std::shared_ptr<BatchState> batch = std::move(p.batch);
        batch->statuses[p.index] = std::move(st);
        p.bounce.reset();
        ring_->free_slots.push_back(static_cast<uint32_t>(user_data));
        freed = true;
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        if (--batch->remaining == 0) ready.push_back(std::move(batch));
      }
      __atomic_store_n(ring_->cq_head, head, __ATOMIC_RELEASE);
      if (freed) cv_.notify_all();
      stop = stop_ &&
             ring_->free_slots.size() == ring_->pending.size();
    }
    // Dispatch outside mu_: callbacks re-enter the engine (buffer-pool
    // shard and victim locks rank below kDevice).
    for (auto& batch : ready) batch->done(batch->statuses);
    if (stop) return;
  }
#endif
}

// ---------------------------------------------------------------------------
// Stats / telemetry
// ---------------------------------------------------------------------------

void FileDevice::ObserveCqeLatency(uint64_t ns) {
  const std::vector<uint64_t>& bounds = CqeLatencyBounds();
  size_t i = 0;
  while (i < bounds.size() && ns > bounds[i]) ++i;
  if (i > kLatencyBuckets) i = kLatencyBuckets;
  latency_buckets_[i].fetch_add(1, std::memory_order_relaxed);
  latency_sum_.fetch_add(ns, std::memory_order_relaxed);
  latency_count_.fetch_add(1, std::memory_order_relaxed);
}

FileDevice::Stats FileDevice::stats() const {
  Stats s;
  s.sqe_batches = sqe_batches_.load(std::memory_order_relaxed);
  s.sqes_submitted = sqes_submitted_.load(std::memory_order_relaxed);
  s.cqes_harvested = cqes_harvested_.load(std::memory_order_relaxed);
  s.cqe_errors = cqe_errors_.load(std::memory_order_relaxed);
  s.bounce_copies = bounce_copies_.load(std::memory_order_relaxed);
  s.inflight = inflight_.load(std::memory_order_relaxed);
  s.inflight_peak = inflight_peak_.load(std::memory_order_relaxed);
  return s;
}

void FileDevice::CollectMetrics(std::vector<MetricSample>* out) const {
  Stats st = stats();
  auto add = [out](const char* name, const char* help, MetricKind kind,
                   double value) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.kind = kind;
    s.value = value;
    out->push_back(std::move(s));
  };
  add("fieldrep_uring_ring_active",
      "1 when batches flow through an io_uring ring, 0 in fallback mode",
      MetricKind::kGauge, ring_active() ? 1 : 0);
  add("fieldrep_uring_o_direct",
      "1 when the backing file is open with O_DIRECT", MetricKind::kGauge,
      o_direct_ ? 1 : 0);
  add("fieldrep_uring_sqe_batches_total", "io_uring submission syscalls",
      MetricKind::kCounter, static_cast<double>(st.sqe_batches));
  add("fieldrep_uring_sqes_submitted_total",
      "SQEs pushed through the ring", MetricKind::kCounter,
      static_cast<double>(st.sqes_submitted));
  add("fieldrep_uring_cqes_total", "completions harvested",
      MetricKind::kCounter, static_cast<double>(st.cqes_harvested));
  add("fieldrep_uring_cqe_errors_total",
      "completions carrying an error result", MetricKind::kCounter,
      static_cast<double>(st.cqe_errors));
  add("fieldrep_uring_bounce_copies_total",
      "unaligned transfers bounced through an aligned buffer",
      MetricKind::kCounter, static_cast<double>(st.bounce_copies));
  add("fieldrep_uring_inflight", "pages currently in flight",
      MetricKind::kGauge, static_cast<double>(st.inflight));
  add("fieldrep_uring_inflight_peak", "high-water mark of inflight pages",
      MetricKind::kGauge, static_cast<double>(st.inflight_peak));

  const std::vector<uint64_t>& bounds = CqeLatencyBounds();
  Histogram::Snapshot snap;
  snap.bounds = bounds;
  snap.buckets.resize(bounds.size() + 1);
  for (size_t i = 0; i < snap.buckets.size() && i <= kLatencyBuckets; ++i) {
    snap.buckets[i] = latency_buckets_[i].load(std::memory_order_relaxed);
  }
  snap.sum = latency_sum_.load(std::memory_order_relaxed);
  snap.count = latency_count_.load(std::memory_order_relaxed);
  MetricSample h;
  h.name = "fieldrep_uring_cqe_latency_ns";
  h.help = "CQE latency (submit to harvest)";
  h.kind = MetricKind::kHistogram;
  h.histogram = std::move(snap);
  out->push_back(std::move(h));
}

}  // namespace fieldrep
