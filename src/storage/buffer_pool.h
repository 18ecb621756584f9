#ifndef FIELDREP_STORAGE_BUFFER_POOL_H_
#define FIELDREP_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/storage_device.h"

namespace fieldrep {

class BufferPool;
struct MetricSample;

/// How a FetchPage caller intends to use the page. Shared fetches take the
/// frame's reader latch and MUST NOT mutate the page (MarkDirty asserts);
/// exclusive fetches take the writer latch. The default is kExclusive so
/// the pre-concurrency call sites keep their semantics; read-only hot
/// paths opt into kShared explicitly.
enum class LatchMode { kShared, kExclusive };

/// \brief Hook interface through which a write-ahead log observes and
/// constrains the buffer pool (see src/wal/wal_manager.h).
///
/// The pool calls these at well-defined points so that the WAL can
/// capture page pre-images, track transaction write sets, veto eviction
/// of uncommitted pages (no-steal policy), and enforce the WAL flush
/// ordering: no dirty page reaches the device before the log records
/// covering it are durable.
///
/// Concurrency contract (single-writer / multi-reader engine):
///   - OnPageAccess fires only for kExclusive fetches, i.e. only on the
///     (single) writer thread — readers never need pre-images.
///   - OnPageDirtied likewise fires only from the writer.
///   - CanEvict and BeforePageFlush may be called from any thread (reader
///     misses evict too) and must synchronize internally.
class PageObserver {
 public:
  virtual ~PageObserver() = default;

  /// A page's bytes became visible through an exclusive fetch (hit or
  /// miss, or a freshly allocated zero page). `data` is the frame content
  /// before the caller mutates it.
  virtual void OnPageAccess(PageId page_id, const uint8_t* data) = 0;

  /// A guard marked the page dirty.
  virtual void OnPageDirtied(PageId page_id) = 0;

  /// May this dirty page be written back and evicted? False while an
  /// active transaction's uncommitted bytes are on it.
  virtual bool CanEvict(PageId page_id) const = 0;

  /// Called immediately before the pool writes a dirty page to the
  /// device. `page_lsn` is the log position that must be durable first;
  /// the observer blocks until it is (WAL rule).
  virtual Status BeforePageFlush(PageId page_id, uint64_t page_lsn) = 0;
};

/// \brief RAII pin + latch on a buffered page.
///
/// While a PageGuard is alive the frame cannot be evicted and the page's
/// latch is held in the guard's LatchMode. Call MarkDirty() after mutating
/// data() (exclusive guards only); the pool writes dirty frames back on
/// eviction or FlushAll(). Guards are movable but not copyable; moves
/// leave the source guard inert (valid() == false), and debug builds
/// assert on use-after-move, use-after-release, and double-release.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_index, LatchMode mode);
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  uint8_t* data();
  const uint8_t* data() const;
  PageId page_id() const;
  LatchMode mode() const { return mode_; }
  void MarkDirty();

  /// Releases the latch and pin early. Must not be called twice, nor on a
  /// moved-from guard (debug-asserted); the destructor is always safe.
  void Release();

 private:
  /// Destructor / move-assignment path: releases if held, never asserts.
  void ReleaseInternal();

  BufferPool* pool_ = nullptr;
  size_t frame_index_ = 0;
  LatchMode mode_ = LatchMode::kExclusive;
#ifndef NDEBUG
  enum class DebugState { kEmpty, kActive, kReleased, kMoved };
  DebugState debug_state_ = DebugState::kEmpty;
#endif
};

/// \brief Fixed-capacity page cache over a StorageDevice with clock
/// eviction, pin counting, I/O statistics, batched read-ahead, and
/// elevator (PageId-ordered, run-coalesced) write-back.
///
/// The buffer pool is the engine's single point of I/O accounting: every
/// structure (heap files, B+ trees, link sets, replica sets) accesses pages
/// through it, so `stats().disk_reads/disk_writes` measure exactly the
/// quantity the paper's cost model predicts. Benchmarks call
/// EvictAll() + ResetStats() before each query to measure it cold.
///
/// Read-ahead: ReadAhead() is the pool's one speculative-read entry point
/// (stage cursors, record-file scans, B+-tree leaf chains). It performs
/// *physical* reads (counted as `batched_reads`/`bytes_read`) and installs
/// the pages unpinned and uncharged; the first FetchPage of a read-ahead
/// page charges one `disk_reads` (not a `hits`), and a page read ahead but
/// never fetched is never charged. Logical counters are therefore
/// byte-identical with read-ahead on or off.
///
/// Read-ahead budget: pages read ahead but not yet consumed (the frames
/// whose `prefetched` mark is set, in flight or installed) are counted
/// pool-wide. ReadAhead() announces pages only while that count is below
/// read_ahead_budget(), a quarter of the frames, so concurrent stages,
/// scans, parallel workers and server sessions share one bound and
/// read-ahead can never crowd the pages a query is using out of the pool.
///
/// Thread safety (DESIGN.md §10): the page table is sharded (power-of-two
/// shard count, one mutex + condvar each), every frame carries a
/// shared_mutex latch and an atomic pin count, and the I/O counters are
/// atomics. Page installation is single-flight: a miss publishes an
/// in-flight marker in its shard before reading the device, so concurrent
/// fetchers of the same page wait on the shard condvar instead of reading
/// twice — which also keeps the logical counters (one disk_read, k hits)
/// interleaving-invariant. Victim selection and free-frame bookkeeping
/// are serialized by a single victim mutex, under which no frame latch is
/// taken (a pin count of zero, verified under the shard lock, implies the
/// latch is free) and no device I/O happens: a dirty victim is claimed
/// under the mutex and written back after it drops. The lock order is
/// always frame-latch -> victim -> shard and never cycles.
///
/// Write-back protocol: every page write goes through FlushFramesOrdered.
/// A frame is claimed for write under the victim mutex (pinned, marked
/// `writing`), its bytes are staged under its exclusive latch with `dirty`
/// cleared in the same step, and the write's completion marks a failed
/// page dirty again and clears `writing`. So a writer that re-dirties a
/// frame during its write keeps it dirty, and a frame never has two
/// writes in flight.
class BufferPool {
 public:
  /// \param device   backing store (not owned unless passed via TakeDevice).
  /// \param capacity number of frames. Must be >= 1.
  BufferPool(StorageDevice* device, size_t capacity);

  /// Convenience constructor taking ownership of the device.
  BufferPool(std::unique_ptr<StorageDevice> device, size_t capacity);

  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins and latches page `page_id`, reading it from the device on a
  /// miss. kShared fetches never fire OnPageAccess (readers need no WAL
  /// pre-image) and must not MarkDirty.
  Status FetchPage(PageId page_id, PageGuard* guard,
                   LatchMode mode = LatchMode::kExclusive);

  /// Allocates a fresh zeroed page on the device and pins it (exclusive).
  Status NewPage(PageGuard* guard);

  /// Reads a page list ahead, in consumption order, within the pool-wide
  /// budget (see the class comment). Walks `pages` from the front,
  /// skipping invalid, unallocated, resident, in-flight and repeated ids,
  /// until the non-resident ones fill the budget's remaining room, and
  /// reads those in one batch through ReadPagesAsync. Stores in
  /// `*covered` how many entries of `pages` the walk got through (0 when
  /// the budget is used up or read-ahead is off). A scheduling hint, not
  /// a correctness operation:
  ///   - victim selection honours the observer's no-steal veto; the dirty
  ///     victims of one batch are written back together, as one ordered
  ///     batch through FlushFramesOrdered (BeforePageFlush per page), and
  ///     stay unreachable (in flight in their shard) until their write
  ///     lands. A victim whose write fails stays resident and dirty, its
  ///     claim is dropped, and the returned error names the page;
  ///   - if every frame is pinned the remainder of the batch is dropped;
  ///   - a page whose read fails, or fails checksum verification (see
  ///     set_verify_checksums), is not installed: its claim is abandoned
  ///     and the next FetchPage re-reads it on demand and reports the
  ///     error itself.
  /// Only victim write-back errors are returned. ReadAhead does not wait
  /// for the reads: the completion (inline, or on the device's thread)
  /// installs the frames, and concurrent fetchers of an in-flight page
  /// wait on the shard condvar exactly as for an on-demand miss.
  Status ReadAhead(std::span<const PageId> pages, size_t* covered);

  /// Writes all dirty frames back to the device (without unpinning) as one
  /// PageId-ordered batch (elevator write-back; the device coalesces
  /// contiguous runs). A frame whose write another thread has in flight
  /// is waited for and then reconsidered, so every page dirty at entry is
  /// on the device at return unless the returned error names it. Frames
  /// the observer protects (uncommitted transaction pages) are skipped:
  /// their fate is decided by commit or crash, not by a flush.
  Status FlushAll();

  /// Flushes and then drops every unpinned frame, so the next access to any
  /// page performs a device read. Fails if any page is still pinned — the
  /// benchmarks rely on a fully cold cache. On flush failure the returned
  /// Status names the page that failed.
  Status EvictAll();

  /// Snapshot of the I/O counters. Exact when the pool is quiesced (the
  /// only way measurements use it); monotone mid-flight.
  IoStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  /// Concurrency-behaviour counters (always on; relaxed atomics like the
  /// I/O stats). Purely observational: none of them feed back into any
  /// replacement or scheduling decision.
  struct ConcurrencyStats {
    uint64_t latch_waits = 0;         ///< Latch acquisitions that blocked.
    uint64_t single_flight_waits = 0; ///< Fetches that waited on another
                                      ///< fetcher's in-flight device read.
    uint64_t eviction_scan_steps = 0; ///< Clock-hand steps examined.
    uint64_t evictions = 0;           ///< Occupied frames reclaimed.
  };
  ConcurrencyStats concurrency_stats() const;

  /// Appends this pool's metric samples (logical/physical I/O counters,
  /// per-shard hit/miss, latch and eviction behaviour, cache gauges) to
  /// `out` — the registry-collector hook Database installs.
  void CollectMetrics(std::vector<MetricSample>* out) const;

  /// Read-ahead on (the default) or off. Off makes every ReadAhead call
  /// a no-op, restoring strictly on-demand I/O: the reference the
  /// logical-I/O equivalence suites compare against.
  void set_read_ahead(bool on) { read_ahead_ = on; }
  bool read_ahead() const { return read_ahead_; }

  /// Pool-wide bound on pages read ahead but not yet consumed (see the
  /// class comment): a quarter of the frames.
  size_t read_ahead_budget() const { return capacity_ / 4; }
  /// Pages currently read ahead and not yet consumed (claimed, in flight
  /// or installed, never fetched). Never above read_ahead_budget().
  size_t read_ahead_pending() const {
    return read_ahead_pending_.load(std::memory_order_relaxed);
  }

  /// Checksum verification on the read paths (on-demand misses and
  /// read-ahead batches). Defaults to on in debug builds and off in release
  /// — the policy FetchPage has always had; tests flip it on explicitly.
  /// A failing on-demand read returns Corruption; a failing batch-read
  /// page is silently not installed (the on-demand retry reports it).
  void set_verify_checksums(bool verify) { verify_checksums_ = verify; }
  bool verify_checksums() const { return verify_checksums_; }

  size_t capacity() const { return capacity_; }
  /// Number of frames currently holding a page.
  size_t pages_cached() const;
  /// Total pins across all frames (for leak checks in tests; exact only
  /// when quiesced).
  uint64_t total_pins() const;

  StorageDevice* device() { return device_; }

  /// Attaches (or detaches, with nullptr) the WAL observer. The observer
  /// must outlive the pool or be detached before destruction. Not
  /// thread-safe: call while the pool is idle.
  void SetObserver(PageObserver* observer) { observer_ = observer; }

  /// Frame bytes of `page_id` if resident, else nullptr. No pin, no
  /// statistics — used by the WAL to diff pages at commit. The returned
  /// pointer is stable only while the page cannot be evicted (the WAL's
  /// no-steal veto guarantees that for transaction pages).
  const uint8_t* PeekPage(PageId page_id) const;

  /// Sets the recovery LSN the flush-ordering hook reports for the page
  /// (no-op if the page is not resident).
  void SetPageLsn(PageId page_id, uint64_t lsn);

  /// Page ids of all dirty frames — the dirty-frame table a checkpoint
  /// walks.
  std::vector<PageId> DirtyPageIds() const;

  /// Issues a device Sync (fsync), counted in stats as a disk_sync.
  Status SyncDevice();

  /// Blocks until every read-ahead batch has completed and its frames are
  /// installed or abandoned (write-backs need no drain: their submitter
  /// always waits for them). Called by the destructor and EvictAll; tests
  /// quiescing the pool around stat assertions call it directly.
  void DrainAsyncIo();

 private:
  friend class PageGuard;

  struct Frame {
    /// Page-aligned (PageBuffer) so an O_DIRECT device can transfer
    /// frames directly, without bounce copies.
    PageBuffer data;
    /// Reader/writer latch. Acquired after the pin (never while holding a
    /// shard or victim lock); pin_count > 0 keeps the Frame itself stable.
    /// kFrameLatch is a same-rank-ok rank: the elevator flush and
    /// multi-page appends legitimately hold several latches at once.
    SharedMutex latch{LockRank::kFrameLatch, "pool.frame.latch"};
    std::atomic<uint32_t> pin_count{0};
    std::atomic<uint64_t> page_lsn{0};  ///< Durability horizon for flushes.
    std::atomic<bool> dirty{false};
    std::atomic<bool> referenced{false};  // clock bit
    /// Fill paths store it with release order after page_id (below) so a
    /// pool walk that loads it with acquire order reads the matching id.
    std::atomic<bool> in_use{false};
    /// Read ahead (in flight or installed) and not yet logically charged:
    /// the first FetchPage counts it as a disk_read instead of a hit.
    /// Every transition goes through MarkReadAhead / ClearReadAhead, which
    /// keep read_ahead_pending_ equal to the number of frames with it set
    /// plus the read-ahead claims not yet submitted.
    std::atomic<bool> prefetched{false};
    /// Write in flight: set under victim_mutex_ by whoever claims the
    /// frame for write-back (an evicting miss or read-ahead, FlushAll),
    /// and cleared, under async_mu_, by the write's completion. At most
    /// one write of a frame is in flight; FlushAll waits for any other
    /// before it reconsiders the frame.
    std::atomic<bool> writing{false};
    /// Written while the frame is unreachable (under victim_mutex_ before
    /// table publication, or marked in-flight in its shard) — but read by
    /// whole-pool walks that only observe `in_use`, so it is atomic and
    /// publication is the release-store of `in_use` above.
    std::atomic<PageId> page_id{kInvalidPageId};
  };

  /// One page-table shard: page id -> frame index, or kFrameInFlight for
  /// a page whose device read (miss) or writeback (dirty eviction) is in
  /// progress. Fetchers of an in-flight page wait on `cv`.
  struct Shard {
    mutable Mutex mu{LockRank::kPoolShard, "pool.shard.mu"};
    CondVar cv;
    std::unordered_map<PageId, size_t> table GUARDED_BY(mu);
    /// Per-shard logical cache behaviour: `hits` counts fetches satisfied
    /// from the cache, `misses` fetches charged a logical disk_read
    /// (on-demand miss or first touch of a prefetched page). Together they
    /// partition stats_.fetches by page-table shard.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  static constexpr size_t kShardCount = 64;  // power of two
  static constexpr size_t kFrameInFlight = static_cast<size_t>(-1);

  Shard& ShardFor(PageId page_id) const {
    return shards_[page_id & (kShardCount - 1)];
  }

  /// Acquires `frame`'s latch in `mode`, counting acquisitions that had
  /// to block in latch_waits_ (uncontended try_lock first, so the common
  /// case costs one extra CAS at most). The acquisition outlives this
  /// function (the matching release is Unpin via ~PageGuard), which the
  /// static analysis cannot follow.
  void LatchFrame(Frame& frame, LatchMode mode) NO_THREAD_SAFETY_ANALYSIS;

  /// The pool's one write-back routine (eviction, read-ahead victims,
  /// FlushAll, checkpoint), following the protocol in the class comment.
  /// `frames` are claimed for write (pinned, `writing` set); the pins stay
  /// the caller's. Runs BeforePageFlush per page before staging it (WAL
  /// flush ordering), hands the staged pages to one PageId-sorted
  /// WritePagesAsync batch, and waits for its completion. On failure the
  /// Status names the pages not written, whose frames stay dirty. With
  /// `written`, `(*written)[i]` tells whether frames[i]'s page reached the
  /// device. Called with no pool lock held: taking a frame latch under
  /// victim_mutex_ would invert the frame-latch → victim order.
  Status FlushFramesOrdered(std::span<const size_t> frames,
                            std::vector<bool>* written = nullptr)
      EXCLUDES(victim_mutex_);

  /// One claimed-but-unfilled read-ahead page: in-flight marker published
  /// in its shard, victim frame reserved with pin_count 1. When the
  /// victim was dirty, `victim_page` is the page it still holds until
  /// its write-back lands; otherwise kInvalidPageId.
  struct PrefetchClaim {
    PageId page_id;
    size_t frame_index;
    PageId victim_page = kInvalidPageId;
  };

  /// Claims victim frames for `ids` (sorted, distinct, pre-filtered for
  /// residency), writes the dirty victims back as one ordered batch, and
  /// reads the pages into the claimed frames (ReadAhead's body).
  Status ReadAheadBatch(std::span<const PageId> ids);

  /// Marks the claims' frames read-ahead and hands them to one
  /// ReadPagesAsync batch, whose completion installs the pages.
  void SubmitReadAhead(std::vector<PrefetchClaim> claims);

  /// Read-ahead accounting: set / clear `frame.prefetched`, keeping
  /// read_ahead_pending_ exact (ReadAheadBatch counts a claim when it
  /// makes it, so MarkReadAhead adds nothing). ClearReadAhead reports
  /// whether the mark was set (first touch of a read-ahead page).
  void MarkReadAhead(Frame& frame);
  bool ClearReadAhead(Frame& frame);

  /// Clears a frame whose page just left the table (evicted).
  void ResetEvicted(Frame& frame);

  /// The completion of every read-ahead batch (inline, or on the device's
  /// thread): installs each claim whose read succeeded (unpinned,
  /// logically uncharged, checksum-verified) and abandons the rest.
  void InstallPrefetchedPages(std::span<const PrefetchClaim> claims,
                              std::span<const Status> statuses);

  /// Read-ahead batch bookkeeping for DrainAsyncIo.
  void BeginAsyncBatch();
  void EndAsyncBatch();

  /// Finds a victim frame via the clock algorithm and reserves it with
  /// pin_count 1, so no later sweep hands it out again once
  /// victim_mutex_ drops. Returns FailedPrecondition if every frame is
  /// pinned. A clean victim comes back evicted (unreachable, no page). A
  /// dirty victim (`*needs_writeback`) still holds its page and is
  /// claimed for write (`writing` set): its table entry is marked in
  /// flight, so fetchers of the page wait, and the caller must write it
  /// back through FlushFramesOrdered and then call FinishEviction.
  Status ClaimVictim(size_t* frame_index, bool* needs_writeback)
      REQUIRES(victim_mutex_);

  /// Completes a dirty victim's eviction: with its write landed, drops
  /// the page from the table and leaves the frame reserved for the
  /// caller; with the write failed, republishes the frame for its page,
  /// still dirty, and unpins it. Wakes the page's waiters either way.
  void FinishEviction(size_t frame_index, PageId victim_page, bool written);

  /// The on-demand miss path's victim: ClaimVictim under victim_mutex_,
  /// then, with the mutex dropped, a dirty victim's write-back through
  /// FlushFramesOrdered. On a failed write the victim stays resident and
  /// dirty and the error is returned.
  Status GetVictimFrame(size_t* frame_index) EXCLUDES(victim_mutex_);

  /// Returns a claimed-but-uninstalled frame to the free list and erases
  /// the page's in-flight marker, waking waiters to retry.
  void AbandonFill(PageId page_id, size_t frame_index);

  /// Releases the latch taken by LatchFrame and drops the pin (the
  /// acquisition happened in FetchPage/NewPage, so this is the unbalanced
  /// other half the analysis cannot follow).
  void Unpin(size_t frame_index, LatchMode mode) NO_THREAD_SAFETY_ANALYSIS;

  /// Drops one pin with release order, pairing with the victim sweep's
  /// acquire load: an evictor that sees the pin gone also sees every byte
  /// written, and every device transfer made, under it.
  static void DropPin(Frame& frame) {
    frame.pin_count.fetch_sub(1, std::memory_order_release);
  }

  StorageDevice* device_;
  std::unique_ptr<StorageDevice> owned_device_;
  std::unique_ptr<Frame[]> frames_;
  size_t capacity_ = 0;
  mutable std::unique_ptr<Shard[]> shards_;
  /// Serializes victim selection, the free list, the clock hand, and the
  /// whole-pool walks (FlushAll / EvictAll / DirtyPageIds). Lock order
  /// (enforced by LockRank): victim_mutex_ before shard mutexes; frame
  /// latches before either; never the reverse.
  mutable Mutex victim_mutex_{LockRank::kPoolVictim, "pool.victim_mu"};
  std::vector<size_t> free_frames_ GUARDED_BY(victim_mutex_);
  size_t clock_hand_ GUARDED_BY(victim_mutex_) = 0;
  mutable AtomicIoStats stats_;
  /// See ConcurrencyStats.
  std::atomic<uint64_t> latch_waits_{0};
  std::atomic<uint64_t> single_flight_waits_{0};
  std::atomic<uint64_t> eviction_scan_steps_{0};
  std::atomic<uint64_t> evictions_{0};
  PageObserver* observer_ = nullptr;
  /// Guards the outstanding read-ahead count, write batches' completion
  /// flags, and the clearing of Frame::writing; async_cv_ wakes DrainAsyncIo,
  /// write submitters and FlushAll. kLeaf: taken with no other pool or
  /// device lock held (read-ahead completions decrement the count last,
  /// after all frame bookkeeping).
  mutable Mutex async_mu_{LockRank::kLeaf, "pool.async_mu"};
  CondVar async_cv_;
  size_t async_inflight_ GUARDED_BY(async_mu_) = 0;
  std::atomic<bool> read_ahead_{true};
  /// Frames with `prefetched` set, plus read-ahead claims not yet
  /// submitted (see Frame::prefetched). Grows only under victim_mutex_.
  std::atomic<size_t> read_ahead_pending_{0};
#ifndef NDEBUG
  std::atomic<bool> verify_checksums_{true};
#else
  std::atomic<bool> verify_checksums_{false};
#endif
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_BUFFER_POOL_H_
