#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/strings.h"
#include "storage/checksum.h"
#include "telemetry/metrics.h"

namespace fieldrep {

namespace {
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

PageGuard::PageGuard(BufferPool* pool, size_t frame_index, LatchMode mode)
    : pool_(pool), frame_index_(frame_index), mode_(mode) {
#ifndef NDEBUG
  debug_state_ = DebugState::kActive;
#endif
}

PageGuard::~PageGuard() { ReleaseInternal(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), frame_index_(other.frame_index_), mode_(other.mode_) {
#ifndef NDEBUG
  debug_state_ = other.debug_state_;
  other.debug_state_ = DebugState::kMoved;
#endif
  other.pool_ = nullptr;
  other.frame_index_ = 0;
  other.mode_ = LatchMode::kExclusive;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    ReleaseInternal();
    pool_ = other.pool_;
    frame_index_ = other.frame_index_;
    mode_ = other.mode_;
#ifndef NDEBUG
    debug_state_ = other.debug_state_;
    other.debug_state_ = DebugState::kMoved;
#endif
    other.pool_ = nullptr;
    other.frame_index_ = 0;
    other.mode_ = LatchMode::kExclusive;
  }
  return *this;
}

uint8_t* PageGuard::data() {
  assert(valid());
#ifndef NDEBUG
  assert(debug_state_ == DebugState::kActive);
#endif
  return pool_->frames_[frame_index_].data.get();
}

const uint8_t* PageGuard::data() const {
  assert(valid());
#ifndef NDEBUG
  assert(debug_state_ == DebugState::kActive);
#endif
  return pool_->frames_[frame_index_].data.get();
}

PageId PageGuard::page_id() const {
  assert(valid());
#ifndef NDEBUG
  assert(debug_state_ == DebugState::kActive);
#endif
  return pool_->frames_[frame_index_].page_id.load(kRelaxed);
}

void PageGuard::MarkDirty() {
  assert(valid());
#ifndef NDEBUG
  assert(debug_state_ == DebugState::kActive);
#endif
  // Readers never dirty pages: the single-writer model (and the WAL's
  // pre-image capture, which only exclusive fetches trigger) depends on it.
  assert(mode_ == LatchMode::kExclusive);
  BufferPool::Frame& frame = pool_->frames_[frame_index_];
  frame.dirty.store(true, kRelaxed);
  if (pool_->observer_ != nullptr) {
    pool_->observer_->OnPageDirtied(frame.page_id.load(kRelaxed));
  }
}

void PageGuard::Release() {
#ifndef NDEBUG
  assert(debug_state_ != DebugState::kReleased && "PageGuard double release");
  assert(debug_state_ != DebugState::kMoved &&
         "PageGuard released after being moved from");
#endif
  ReleaseInternal();
}

void PageGuard::ReleaseInternal() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_index_, mode_);
    pool_ = nullptr;
    frame_index_ = 0;
  }
#ifndef NDEBUG
  if (debug_state_ == DebugState::kActive) {
    debug_state_ = DebugState::kReleased;
  }
#endif
}

BufferPool::BufferPool(StorageDevice* device, size_t capacity)
    : device_(device) {
  assert(capacity >= 1);
  capacity_ = capacity;
  frames_ = std::make_unique<Frame[]>(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_[i].data = AllocatePageBuffer();
  }
  shards_ = std::make_unique<Shard[]>(kShardCount);
  free_frames_.reserve(capacity);
  for (size_t i = capacity; i > 0; --i) free_frames_.push_back(i - 1);
}

BufferPool::BufferPool(std::unique_ptr<StorageDevice> device, size_t capacity)
    : BufferPool(device.get(), capacity) {
  owned_device_ = std::move(device);
}

BufferPool::~BufferPool() {
  // Async completion callbacks capture `this`; none may run past here.
  DrainAsyncIo();
  // Best-effort writeback. A destructor cannot propagate the status, but
  // silently discarding dirty data would hide real corruption — report it.
  Status s = FlushAll();
  if (!s.ok()) {
    std::fprintf(stderr,
                 "fieldrep: BufferPool writeback failed at shutdown, dirty "
                 "pages lost: %s\n",
                 s.ToString().c_str());
  }
}

Status BufferPool::FetchPage(PageId page_id, PageGuard* guard,
                             LatchMode mode) {
  stats_.fetches.fetch_add(1, kRelaxed);
  Shard& shard = ShardFor(page_id);
  size_t frame_index = kFrameInFlight;
  bool waited_in_flight = false;
  {
    UniqueMutexLock lock(shard.mu);
    for (;;) {
      auto it = shard.table.find(page_id);
      if (it == shard.table.end()) {
        // Miss: claim the fill so concurrent fetchers of this page wait
        // for our device read instead of issuing their own (single-flight
        // — also what keeps the logical counters interleaving-invariant).
        shard.table.emplace(page_id, kFrameInFlight);
        break;
      }
      if (it->second == kFrameInFlight) {
        waited_in_flight = true;
        shard.cv.wait(lock);
        continue;  // installed, or abandoned (then we claim the fill)
      }
      frame_index = it->second;
      Frame& frame = frames_[frame_index];
      if (ClearReadAhead(frame)) {
        // First logical access of a prefetched page: charge the read the
        // caller would have performed without read-ahead, so the logical
        // counters are the same with read-ahead on or off.
        stats_.disk_reads.fetch_add(1, kRelaxed);
        shard.misses.fetch_add(1, kRelaxed);
      } else {
        stats_.hits.fetch_add(1, kRelaxed);
        shard.hits.fetch_add(1, kRelaxed);
      }
      frame.pin_count.fetch_add(1, kRelaxed);
      frame.referenced.store(true, kRelaxed);
      break;
    }
  }
  if (waited_in_flight) single_flight_waits_.fetch_add(1, kRelaxed);

  if (frame_index != kFrameInFlight) {
    // Hit. The pin (taken under the shard lock) keeps the frame resident;
    // the latch is acquired with no other lock held, so blocking on a
    // writer here cannot deadlock.
    Frame& frame = frames_[frame_index];
    LatchFrame(frame, mode);
    if (mode == LatchMode::kExclusive && observer_ != nullptr) {
      observer_->OnPageAccess(page_id, frame.data.get());
    }
    *guard = PageGuard(this, frame_index, mode);
    return Status::OK();
  }

  // Miss with the fill claimed: take a victim (a dirty one is written
  // back first) and read the device. The victim comes back off the free
  // list, out of the table, and pinned, so the clock hand stays away
  // while we fill it.
  {
    Status s = GetVictimFrame(&frame_index);
    if (!s.ok()) {
      AbandonFill(page_id, kFrameInFlight);
      return s;
    }
  }
  Frame& frame = frames_[frame_index];
  uint64_t start_ns = NowNs();
  Status s = device_->ReadPage(page_id, frame.data.get());
  stats_.read_ns.fetch_add(NowNs() - start_ns, kRelaxed);
  if (!s.ok()) {
    AbandonFill(page_id, frame_index);
    return s;
  }
  stats_.disk_reads.fetch_add(1, kRelaxed);
  stats_.bytes_read.fetch_add(kPageSize, kRelaxed);
  shard.misses.fetch_add(1, kRelaxed);
  // Page 0 is the magic-prefixed database header, not a headered page.
  if (verify_checksums_.load(kRelaxed) && page_id != 0 &&
      !VerifyPageChecksum(frame.data.get())) {
    AbandonFill(page_id, frame_index);
    return Status::Corruption(
        StringPrintf("page %u failed checksum verification", page_id));
  }
  frame.page_id.store(page_id, kRelaxed);
  frame.page_lsn.store(0, kRelaxed);
  frame.dirty.store(false, kRelaxed);
  frame.referenced.store(true, kRelaxed);
  // Release pairs with the acquire loads in the whole-pool walks: a walk
  // that observes in_use == true reads this fill's page_id, not a stale
  // one (the walk holds no shard lock, so the atomics carry the ordering).
  frame.in_use.store(true, std::memory_order_release);
  {
    MutexLock lock(shard.mu);
    shard.table[page_id] = frame_index;
  }
  shard.cv.notify_all();
  LatchFrame(frame, mode);
  if (mode == LatchMode::kExclusive && observer_ != nullptr) {
    observer_->OnPageAccess(page_id, frame.data.get());
  }
  *guard = PageGuard(this, frame_index, mode);
  return Status::OK();
}

void BufferPool::LatchFrame(Frame& frame, LatchMode mode) {
  if (mode == LatchMode::kExclusive) {
    if (!frame.latch.try_lock()) {
      latch_waits_.fetch_add(1, kRelaxed);
      frame.latch.lock();
    }
  } else {
    if (!frame.latch.try_lock_shared()) {
      latch_waits_.fetch_add(1, kRelaxed);
      frame.latch.lock_shared();
    }
  }
}

Status BufferPool::NewPage(PageGuard* guard) {
  PageId page_id;
  FIELDREP_RETURN_IF_ERROR(device_->AllocatePage(&page_id));
  Shard& shard = ShardFor(page_id);
  {
    // A stale concurrent fetch of this (previously unallocated) id may
    // have an in-flight marker up; wait it out, then claim the slot.
    UniqueMutexLock lock(shard.mu);
    shard.cv.wait(lock, [&] {
      auto it = shard.table.find(page_id);
      return it == shard.table.end() || it->second != kFrameInFlight;
    });
    assert(shard.table.count(page_id) == 0);
    shard.table.emplace(page_id, kFrameInFlight);
  }
  size_t frame_index;
  {
    Status s = GetVictimFrame(&frame_index);
    if (!s.ok()) {
      AbandonFill(page_id, kFrameInFlight);
      return s;
    }
  }
  Frame& frame = frames_[frame_index];
  std::memset(frame.data.get(), 0, kPageSize);
  frame.page_id.store(page_id, kRelaxed);
  frame.page_lsn.store(0, kRelaxed);
  // A fresh page is dirty by definition: its contents exist only here.
  frame.dirty.store(true, kRelaxed);
  frame.referenced.store(true, kRelaxed);
  frame.in_use.store(true, std::memory_order_release);
  {
    MutexLock lock(shard.mu);
    shard.table[page_id] = frame_index;
  }
  shard.cv.notify_all();
  LatchFrame(frame, LatchMode::kExclusive);
  if (observer_ != nullptr) {
    observer_->OnPageAccess(page_id, frame.data.get());
    observer_->OnPageDirtied(page_id);
  }
  *guard = PageGuard(this, frame_index, LatchMode::kExclusive);
  return Status::OK();
}

Status BufferPool::ReadAhead(std::span<const PageId> pages, size_t* covered) {
  *covered = 0;
  const size_t budget = read_ahead_budget();
  const size_t pending = read_ahead_pending_.load(kRelaxed);
  if (!read_ahead_.load(kRelaxed) || pending >= budget) {
    return Status::OK();
  }
  // Walk the stage's list in consumption order until the batch fills the
  // budget's remaining room. Resident and in-flight pages cost no budget;
  // the residency probe is racy by design (the claim re-checks).
  const size_t room = budget - pending;
  const PageId device_pages = device_->page_count();
  std::vector<PageId> batch;
  size_t i = 0;
  for (; i < pages.size() && batch.size() < room; ++i) {
    const PageId id = pages[i];
    if (id >= device_pages || (i > 0 && pages[i - 1] == id)) continue;
    Shard& shard = ShardFor(id);
    MutexLock lock(shard.mu);
    if (shard.table.count(id) == 0) batch.push_back(id);
  }
  *covered = i;
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  return ReadAheadBatch(batch);
}

Status BufferPool::ReadAheadBatch(std::span<const PageId> ids) {
  if (ids.empty()) return Status::OK();
  // Claim an in-flight table slot and a victim frame per id, with the
  // clock-sweep decisions an on-demand miss would make. The victim's pin
  // keeps later sweeps in this batch (and concurrent ones once
  // victim_mutex_ drops) from handing the frame out twice. Each claim
  // reserves one unit of the read-ahead budget here, under the victim
  // mutex, the only place read_ahead_pending_ grows: concurrent batches
  // see each other's reservations, so together they stay within budget.
  const size_t budget = read_ahead_budget();
  std::vector<PrefetchClaim> ready;    // free or clean frame: read at once
  std::vector<PrefetchClaim> waiting;  // frame still holds a dirty victim
  std::vector<size_t> victims;
  {
    MutexLock victim_lock(victim_mutex_);
    for (PageId id : ids) {
      if (read_ahead_pending_.load(kRelaxed) >= budget) break;
      Shard& shard = ShardFor(id);
      {
        MutexLock lock(shard.mu);
        if (shard.table.count(id) != 0) continue;  // resident or in flight
        shard.table.emplace(id, kFrameInFlight);
      }
      size_t frame_index;
      bool needs_writeback = false;
      if (!ClaimVictim(&frame_index, &needs_writeback).ok()) {
        {
          MutexLock lock(shard.mu);
          shard.table.erase(id);
        }
        shard.cv.notify_all();
        break;  // every frame is pinned: shrink the batch
      }
      read_ahead_pending_.fetch_add(1, kRelaxed);
      if (needs_writeback) {
        waiting.push_back(
            {id, frame_index, frames_[frame_index].page_id.load(kRelaxed)});
        victims.push_back(frame_index);
      } else {
        ready.push_back({id, frame_index});
      }
    }
  }
  // Free and clean frames take their reads now, overlapping the victims'
  // write-back below.
  SubmitReadAhead(std::move(ready));
  if (victims.empty()) return Status::OK();

  // The dirty victims reach the device as one ordered batch. Until their
  // writes land they stay unreachable (in flight in their shards,
  // pinned), so no writer can re-dirty one, and a concurrent FlushAll
  // waits for them. Each victim's fate is its own write's outcome, not its
  // dirty bit: a FlushAll that waited on a failed write may already have
  // claimed the frame again and cleared that bit.
  std::vector<bool> written;
  Status write_status = FlushFramesOrdered(victims, &written);
  std::vector<PrefetchClaim> evicted;
  for (size_t i = 0; i < waiting.size(); ++i) {
    const PrefetchClaim& claim = waiting[i];
    FinishEviction(claim.frame_index, claim.victim_page, written[i]);
    if (written[i]) {
      evicted.push_back({claim.page_id, claim.frame_index});
    } else {
      // The victim stays resident; its claim never reads, so it returns
      // its budget reservation.
      AbandonFill(claim.page_id, kFrameInFlight);
      read_ahead_pending_.fetch_sub(1, kRelaxed);
    }
  }
  SubmitReadAhead(std::move(evicted));
  return write_status;
}

void BufferPool::MarkReadAhead(Frame& frame) {
  // The claim already counted this frame in read_ahead_pending_.
  if (frame.prefetched.exchange(true, kRelaxed)) {
    read_ahead_pending_.fetch_sub(1, kRelaxed);
  }
}

bool BufferPool::ClearReadAhead(Frame& frame) {
  if (!frame.prefetched.exchange(false, kRelaxed)) return false;
  read_ahead_pending_.fetch_sub(1, kRelaxed);
  return true;
}

void BufferPool::SubmitReadAhead(std::vector<PrefetchClaim> claims) {
  if (claims.empty()) return;
  std::vector<PageId> ids(claims.size());
  std::vector<uint8_t*> bufs(claims.size());
  for (size_t i = 0; i < claims.size(); ++i) {
    Frame& frame = frames_[claims[i].frame_index];
    MarkReadAhead(frame);
    ids[i] = claims[i].page_id;
    bufs[i] = frame.data.get();
  }
  stats_.read_batches.fetch_add(1, kRelaxed);
  // A prefetch is a scheduling hint, so the caller does not wait for the
  // device. Until the completion installs the frames, the in-flight
  // markers published at claim time make concurrent fetchers of these
  // pages wait on the shard condvar, exactly as for an on-demand miss.
  BeginAsyncBatch();
  const uint64_t start_ns = NowNs();
  auto shared_claims =
      std::make_shared<std::vector<PrefetchClaim>>(std::move(claims));
  device_->ReadPagesAsync(
      std::move(ids), std::move(bufs),
      [this, shared_claims, start_ns](std::span<const Status> statuses) {
        stats_.read_ns.fetch_add(NowNs() - start_ns, kRelaxed);
        InstallPrefetchedPages(*shared_claims, statuses);
        EndAsyncBatch();
      });
}

void BufferPool::InstallPrefetchedPages(std::span<const PrefetchClaim> claims,
                                        std::span<const Status> statuses) {
  const bool verify = verify_checksums_.load(kRelaxed);
  for (size_t i = 0; i < claims.size(); ++i) {
    const PrefetchClaim& claim = claims[i];
    Frame& frame = frames_[claim.frame_index];
    // A failed page is simply not installed (the claim is abandoned), so
    // the next on-demand fetch sees exactly what it would have seen
    // without read-ahead, and reports the error itself.
    if (!statuses[i].ok()) {
      AbandonFill(claim.page_id, claim.frame_index);
      continue;
    }
    stats_.batched_reads.fetch_add(1, kRelaxed);
    stats_.bytes_read.fetch_add(kPageSize, kRelaxed);
    // Same for a page failing checksum verification.
    if (verify && claim.page_id != 0 &&
        !VerifyPageChecksum(frame.data.get())) {
      AbandonFill(claim.page_id, claim.frame_index);
      continue;
    }
    frame.page_id.store(claim.page_id, kRelaxed);
    frame.page_lsn.store(0, kRelaxed);
    frame.dirty.store(false, kRelaxed);
    frame.referenced.store(true, kRelaxed);
    frame.in_use.store(true, std::memory_order_release);
    Shard& shard = ShardFor(claim.page_id);
    {
      MutexLock lock(shard.mu);
      frame.pin_count.store(0, kRelaxed);
      shard.table[claim.page_id] = claim.frame_index;
    }
    shard.cv.notify_all();
  }
}

void BufferPool::AbandonFill(PageId page_id, size_t frame_index) {
  if (frame_index != kFrameInFlight) {
    Frame& frame = frames_[frame_index];
    frame.in_use.store(false, kRelaxed);
    frame.page_id.store(kInvalidPageId, kRelaxed);
    ClearReadAhead(frame);
    frame.pin_count.store(0, kRelaxed);
    MutexLock victim_lock(victim_mutex_);
    free_frames_.push_back(frame_index);
  }
  Shard& shard = ShardFor(page_id);
  {
    MutexLock lock(shard.mu);
    auto it = shard.table.find(page_id);
    if (it != shard.table.end() && it->second == kFrameInFlight) {
      shard.table.erase(it);
    }
  }
  shard.cv.notify_all();
}

Status BufferPool::FlushFramesOrdered(std::span<const size_t> frames,
                                      std::vector<bool>* written) {
  const size_t n = frames.size();
  if (written != nullptr) written->assign(n, false);
  if (n == 0) return Status::OK();
  // Positions in `frames`, in PageId order.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return frames_[frames[a]].page_id.load(kRelaxed) <
           frames_[frames[b]].page_id.load(kRelaxed);
  });
  // One page-aligned staging buffer, so O_DIRECT devices take it as is.
  PageBuffer staged = AllocatePageBuffer(n);
  std::vector<PageId> ids;
  std::vector<const uint8_t*> bufs;

  // Stage each page's bytes under its exclusive latch (checksum stamping
  // mutates them and the copy needs them stable against shared-latch
  // readers), one frame at a time: the flusher never holds two latches,
  // so it cannot form a cycle with a writer that latches page A while
  // fetching page B. Clearing `dirty` under the same latch is what keeps
  // a later writer's MarkDirty: only the completion of a failed write
  // sets it again.
  Status stage_error;
  for (size_t pos : order) {
    Frame& frame = frames_[frames[pos]];
    const PageId page_id = frame.page_id.load(kRelaxed);
    if (observer_ != nullptr) {
      Status s =
          observer_->BeforePageFlush(page_id, frame.page_lsn.load(kRelaxed));
      if (!s.ok()) {
        stage_error = Status(s.code(),
                             StringPrintf("flushing page %u: %s", page_id,
                                          s.message().c_str()));
        break;
      }
    }
    uint8_t* buf = staged.get() + ids.size() * kPageSize;
    {
      WriterMutexLock latch(frame.latch);
      // Page 0 is the magic-prefixed database header, not a headered page.
      if (page_id != 0) StampPageChecksum(frame.data.get());
      std::memcpy(buf, frame.data.get(), kPageSize);
      frame.dirty.store(false, kRelaxed);
    }
    ids.push_back(page_id);
    bufs.push_back(buf);
  }
  const size_t m = ids.size();
  if (!stage_error.ok()) {
    // The frames past the failure were never staged: still dirty.
    MutexLock lock(async_mu_);
    for (size_t j = m; j < n; ++j) {
      frames_[frames[order[j]]].writing.store(false, kRelaxed);
    }
    async_cv_.notify_all();
  }
  if (m == 0) return stage_error;

  // The completion may run on a device thread. It settles the frames and
  // leaves the per-page statuses in this call's locals, which are read
  // only after the wait below has seen `done`.
  std::vector<Status> statuses;
  bool done = false;
  stats_.write_batches.fetch_add(1, kRelaxed);
  const uint64_t start_ns = NowNs();
  device_->WritePagesAsync(
      ids, std::move(bufs), [&](std::span<const Status> results) {
        stats_.write_ns.fetch_add(NowNs() - start_ns, kRelaxed);
        for (size_t j = 0; j < m; ++j) {
          if (results[j].ok()) {
            stats_.disk_writes.fetch_add(1, kRelaxed);
            stats_.bytes_written.fetch_add(kPageSize, kRelaxed);
            const bool in_run = (j > 0 && ids[j - 1] + 1 == ids[j]) ||
                                (j + 1 < m && ids[j] + 1 == ids[j + 1]);
            if (in_run) stats_.coalesced_writes.fetch_add(1, kRelaxed);
          } else {
            // A prefix of a failed run may have reached the device;
            // rewriting it later is always safe.
            frames_[frames[order[j]]].dirty.store(true, kRelaxed);
          }
        }
        MutexLock lock(async_mu_);
        for (size_t j = 0; j < m; ++j) {
          frames_[frames[order[j]]].writing.store(false, kRelaxed);
        }
        statuses.assign(results.begin(), results.end());
        done = true;
        // Notified under the lock: the submitter may return, and its
        // locals go away, as soon as it sees `done`.
        async_cv_.notify_all();
      });
  {
    UniqueMutexLock lock(async_mu_);
    async_cv_.wait(lock, [&] { return done; });
  }

  std::string failed_pages;
  Status first_write_error;
  for (size_t j = 0; j < m; ++j) {
    if (statuses[j].ok()) {
      if (written != nullptr) (*written)[order[j]] = true;
      continue;
    }
    if (first_write_error.ok()) first_write_error = statuses[j];
    if (!failed_pages.empty()) failed_pages += ", ";
    failed_pages += StringPrintf("%u", ids[j]);
  }
  if (!first_write_error.ok()) {
    return Status(first_write_error.code(),
                  StringPrintf("flushing pages [%s] failed (frames stay "
                               "dirty): %s",
                               failed_pages.c_str(),
                               first_write_error.message().c_str()));
  }
  return stage_error;
}

Status BufferPool::FlushAll() {
  // Claim under victim_mutex_, then flush without it: frame latches are
  // only ever acquired after (never under) the victim lock, and the pin
  // keeps each claimed frame from being evicted or repurposed once the
  // lock drops. A frame with a write already in flight (an eviction, a
  // read-ahead victim, another FlushAll) is not claimed again: the flush
  // waits for that write and then reconsiders the frame, which a failed
  // write left dirty. A checkpoint relies on every page dirty at entry
  // being on the device at return.
  Status result;
  std::vector<std::pair<size_t, PageId>> in_flight;
  bool first_pass = true;
  while (first_pass || !in_flight.empty()) {
    if (!first_pass) {
      UniqueMutexLock lock(async_mu_);
      async_cv_.wait(lock, [&] {
        for (const auto& [i, page_id] : in_flight) {
          if (frames_[i].writing.load(kRelaxed)) return false;
        }
        return true;
      });
    }
    std::vector<size_t> claimed;
    std::vector<std::pair<size_t, PageId>> still_in_flight;
    {
      MutexLock victim_lock(victim_mutex_);
      auto consider = [&](size_t i, PageId expected) {
        Frame& frame = frames_[i];
        if (!frame.in_use.load(std::memory_order_acquire)) return;
        const PageId page_id = frame.page_id.load(kRelaxed);
        if (expected != kInvalidPageId && page_id != expected) return;
        if (frame.writing.load(kRelaxed)) {
          still_in_flight.emplace_back(i, page_id);
          return;
        }
        if (!frame.dirty.load(kRelaxed)) return;
        if (observer_ != nullptr && !observer_->CanEvict(page_id)) {
          // Uncommitted transaction page: commit will release it; a crash
          // before then must leave the device without it (atomicity).
          return;
        }
        frame.pin_count.fetch_add(1, kRelaxed);
        frame.writing.store(true, kRelaxed);
        claimed.push_back(i);
      };
      if (first_pass) {
        for (size_t i = 0; i < capacity_; ++i) consider(i, kInvalidPageId);
      } else {
        for (const auto& [i, page_id] : in_flight) consider(i, page_id);
      }
    }
    Status s = FlushFramesOrdered(claimed);
    for (size_t i : claimed) DropPin(frames_[i]);
    if (result.ok()) result = s;
    in_flight = std::move(still_in_flight);
    first_pass = false;
  }
  return result;
}

Status BufferPool::EvictAll() {
  // In-flight async prefetch claims hold a pin; let them settle so the
  // precondition scan below sees a quiesced pool.
  DrainAsyncIo();
  {
    MutexLock victim_lock(victim_mutex_);
    for (size_t i = 0; i < capacity_; ++i) {
      const Frame& frame = frames_[i];
      if (!frame.in_use.load(std::memory_order_acquire)) continue;
      const PageId page_id = frame.page_id.load(kRelaxed);
      if (frame.pin_count.load(kRelaxed) > 0) {
        return Status::FailedPrecondition(
            StringPrintf("page %u still pinned", page_id));
      }
      if (frame.dirty.load(kRelaxed) && observer_ != nullptr &&
          !observer_->CanEvict(page_id)) {
        return Status::FailedPrecondition(StringPrintf(
            "page %u holds uncommitted transaction writes", page_id));
      }
    }
  }
  // EvictAll's contract is quiescence (no concurrent pins or fetches —
  // the precondition scan above already depends on it), so the victim
  // lock need not be held continuously; holding it across the flush
  // would invert the frame-latch → victim_mutex_ order.
  FIELDREP_RETURN_IF_ERROR(FlushAll());
  MutexLock victim_lock(victim_mutex_);
  for (size_t i = 0; i < capacity_; ++i) {
    Frame& frame = frames_[i];
    if (frame.in_use.load(std::memory_order_acquire)) {
      const PageId page_id = frame.page_id.load(kRelaxed);
      Shard& shard = ShardFor(page_id);
      {
        MutexLock lock(shard.mu);
        shard.table.erase(page_id);
      }
      frame.in_use.store(false, kRelaxed);
      frame.page_id.store(kInvalidPageId, kRelaxed);
      frame.referenced.store(false, kRelaxed);
      ClearReadAhead(frame);
      free_frames_.push_back(i);
    }
  }
  return Status::OK();
}

const uint8_t* BufferPool::PeekPage(PageId page_id) const {
  Shard& shard = ShardFor(page_id);
  MutexLock lock(shard.mu);
  auto it = shard.table.find(page_id);
  if (it == shard.table.end() || it->second == kFrameInFlight) return nullptr;
  return frames_[it->second].data.get();
}

void BufferPool::SetPageLsn(PageId page_id, uint64_t lsn) {
  Shard& shard = ShardFor(page_id);
  MutexLock lock(shard.mu);
  auto it = shard.table.find(page_id);
  if (it == shard.table.end() || it->second == kFrameInFlight) return;
  frames_[it->second].page_lsn.store(lsn, kRelaxed);
}

std::vector<PageId> BufferPool::DirtyPageIds() const {
  MutexLock victim_lock(victim_mutex_);
  std::vector<PageId> ids;
  for (size_t i = 0; i < capacity_; ++i) {
    const Frame& frame = frames_[i];
    if (frame.in_use.load(std::memory_order_acquire) &&
        frame.dirty.load(kRelaxed)) {
      ids.push_back(frame.page_id.load(kRelaxed));
    }
  }
  return ids;
}

void BufferPool::BeginAsyncBatch() {
  MutexLock lock(async_mu_);
  ++async_inflight_;
}

void BufferPool::EndAsyncBatch() {
  MutexLock lock(async_mu_);
  --async_inflight_;
  async_cv_.notify_all();
}

void BufferPool::DrainAsyncIo() {
  UniqueMutexLock lock(async_mu_);
  async_cv_.wait(lock, [&]() NO_THREAD_SAFETY_ANALYSIS {
    return async_inflight_ == 0;
  });
}

Status BufferPool::SyncDevice() {
  uint64_t start_ns = NowNs();
  Status s = device_->Sync();
  stats_.sync_ns.fetch_add(NowNs() - start_ns, kRelaxed);
  FIELDREP_RETURN_IF_ERROR(s);
  stats_.disk_syncs.fetch_add(1, kRelaxed);
  return Status::OK();
}

size_t BufferPool::pages_cached() const {
  size_t cached = 0;
  for (size_t i = 0; i < kShardCount; ++i) {
    MutexLock lock(shards_[i].mu);
    for (const auto& [page_id, frame_index] : shards_[i].table) {
      if (frame_index != kFrameInFlight) ++cached;
    }
  }
  return cached;
}

uint64_t BufferPool::total_pins() const {
  uint64_t total = 0;
  for (size_t i = 0; i < capacity_; ++i) {
    total += frames_[i].pin_count.load(kRelaxed);
  }
  return total;
}

Status BufferPool::GetVictimFrame(size_t* frame_index) {
  bool needs_writeback = false;
  {
    MutexLock victim_lock(victim_mutex_);
    FIELDREP_RETURN_IF_ERROR(ClaimVictim(frame_index, &needs_writeback));
  }
  if (!needs_writeback) return Status::OK();
  const PageId victim_page = frames_[*frame_index].page_id.load(kRelaxed);
  const size_t claimed[] = {*frame_index};
  Status s = FlushFramesOrdered(claimed);
  FinishEviction(*frame_index, victim_page, s.ok());
  return s;
}

void BufferPool::FinishEviction(size_t frame_index, PageId victim_page,
                                bool written) {
  Frame& frame = frames_[frame_index];
  Shard& shard = ShardFor(victim_page);
  {
    MutexLock lock(shard.mu);
    if (written) {
      shard.table.erase(victim_page);
    } else {
      shard.table[victim_page] = frame_index;  // still resident and dirty
    }
  }
  shard.cv.notify_all();
  if (written) {
    ResetEvicted(frame);
  } else {
    DropPin(frame);
  }
}

void BufferPool::ResetEvicted(Frame& frame) {
  frame.in_use.store(false, kRelaxed);
  frame.page_id.store(kInvalidPageId, kRelaxed);
  ClearReadAhead(frame);
  frame.page_lsn.store(0, kRelaxed);
  frame.referenced.store(false, kRelaxed);
  evictions_.fetch_add(1, kRelaxed);
}

Status BufferPool::ClaimVictim(size_t* frame_index, bool* needs_writeback) {
  *needs_writeback = false;
  if (!free_frames_.empty()) {
    *frame_index = free_frames_.back();
    free_frames_.pop_back();
    frames_[*frame_index].pin_count.store(1, kRelaxed);
    return Status::OK();
  }
  // Clock sweep: a frame survives one pass if its reference bit is set.
  // Two full passes guarantee we either find an unpinned victim or prove
  // every frame is pinned.
  const size_t n = capacity_;
  for (size_t step = 0; step < 2 * n; ++step) {
    eviction_scan_steps_.fetch_add(1, kRelaxed);
    Frame& frame = frames_[clock_hand_];
    size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (!frame.in_use.load(std::memory_order_acquire)) {
      continue;  // abandoned-fill limbo
    }
    if (frame.pin_count.load(kRelaxed) > 0) continue;
    // Stable while we hold victim_mutex_ (fills only reuse frames the
    // sweep handed out); the acquire load above ordered it.
    PageId victim_page = frame.page_id.load(kRelaxed);
    Shard& shard = ShardFor(victim_page);
    UniqueMutexLock lock(shard.mu);
    // Re-check under the shard lock: pins originate in the hit path, which
    // runs under this lock, so pin_count == 0 here is authoritative — and
    // implies the frame's latch is free too. Acquire pairs with Unpin's
    // release, so the write-back below reads the last holder's bytes.
    if (frame.pin_count.load(std::memory_order_acquire) > 0) continue;
    if (frame.dirty.load(kRelaxed) && observer_ != nullptr &&
        !observer_->CanEvict(victim_page)) {
      continue;  // no-steal: uncommitted pages stay resident
    }
    if (frame.referenced.load(kRelaxed)) {
      frame.referenced.store(false, kRelaxed);
      continue;
    }
    // The pin claims the frame: the hit path pins only under this shard
    // lock, through the table entry rewritten below.
    frame.pin_count.store(1, kRelaxed);
    *frame_index = index;
    if (frame.dirty.load(kRelaxed)) {
      // Mark the entry in-flight until the write-back lands: a concurrent
      // fetcher must wait for the device write to finish, not re-read
      // stale bytes from the device. The write claim keeps FlushAll from
      // writing the frame a second time meanwhile.
      shard.table[victim_page] = kFrameInFlight;
      frame.writing.store(true, kRelaxed);
      *needs_writeback = true;
      return Status::OK();
    }
    shard.table.erase(victim_page);
    lock.unlock();
    shard.cv.notify_all();
    ResetEvicted(frame);
    return Status::OK();
  }
  return Status::FailedPrecondition("all buffer frames are pinned");
}

BufferPool::ConcurrencyStats BufferPool::concurrency_stats() const {
  ConcurrencyStats out;
  out.latch_waits = latch_waits_.load(kRelaxed);
  out.single_flight_waits = single_flight_waits_.load(kRelaxed);
  out.eviction_scan_steps = eviction_scan_steps_.load(kRelaxed);
  out.evictions = evictions_.load(kRelaxed);
  return out;
}

void BufferPool::CollectMetrics(std::vector<MetricSample>* out) const {
  auto add = [out](const char* name, const char* help, MetricKind kind,
                   double value, std::string labels = "") {
    MetricSample s;
    s.name = name;
    s.labels = std::move(labels);
    s.help = help;
    s.kind = kind;
    s.value = value;
    out->push_back(std::move(s));
  };
  const IoStats io = stats();
#define FIELDREP_POOL_IO_SAMPLE(field)                                     \
  add("fieldrep_pool_" #field "_total", "Buffer pool IoStats field.",      \
      MetricKind::kCounter, static_cast<double>(io.field));
  FIELDREP_IO_STATS_FIELDS(FIELDREP_POOL_IO_SAMPLE)
#undef FIELDREP_POOL_IO_SAMPLE
  const ConcurrencyStats cs = concurrency_stats();
  add("fieldrep_pool_latch_waits_total",
      "Frame latch acquisitions that had to block.", MetricKind::kCounter,
      static_cast<double>(cs.latch_waits));
  add("fieldrep_pool_single_flight_waits_total",
      "Fetches that waited on another fetcher's in-flight device read.",
      MetricKind::kCounter, static_cast<double>(cs.single_flight_waits));
  add("fieldrep_pool_eviction_scan_steps_total",
      "Clock-hand steps examined while hunting victims.",
      MetricKind::kCounter, static_cast<double>(cs.eviction_scan_steps));
  add("fieldrep_pool_evictions_total",
      "Occupied frames reclaimed by the clock sweep.", MetricKind::kCounter,
      static_cast<double>(cs.evictions));
  add("fieldrep_pool_capacity_frames", "Total frames in the pool.",
      MetricKind::kGauge, static_cast<double>(capacity_));
  add("fieldrep_pool_pages_cached", "Resident (installed) pages.",
      MetricKind::kGauge, static_cast<double>(pages_cached()));
  add("fieldrep_pool_pinned_pages", "Sum of frame pin counts.",
      MetricKind::kGauge, static_cast<double>(total_pins()));
  add("fieldrep_pool_read_ahead_enabled", "1 when read-ahead is on, else 0.",
      MetricKind::kGauge, read_ahead_.load(kRelaxed) ? 1.0 : 0.0);
  add("fieldrep_pool_read_ahead_budget",
      "Pool-wide bound on pages read ahead but not yet consumed.",
      MetricKind::kGauge, static_cast<double>(read_ahead_budget()));
  for (size_t i = 0; i < kShardCount; ++i) {
    const uint64_t hits = shards_[i].hits.load(kRelaxed);
    const uint64_t misses = shards_[i].misses.load(kRelaxed);
    if (hits == 0 && misses == 0) continue;  // keep idle shards quiet
    std::string labels = StringPrintf("shard=\"%zu\"", i);
    add("fieldrep_pool_shard_hits_total",
        "Fetches satisfied from the cache, by page-table shard.",
        MetricKind::kCounter, static_cast<double>(hits), labels);
    add("fieldrep_pool_shard_misses_total",
        "Fetches charged a logical disk read, by page-table shard.",
        MetricKind::kCounter, static_cast<double>(misses), labels);
  }
}

void BufferPool::Unpin(size_t frame_index, LatchMode mode) {
  Frame& frame = frames_[frame_index];
  if (mode == LatchMode::kExclusive) {
    frame.latch.unlock();
  } else {
    frame.latch.unlock_shared();
  }
  assert(frame.pin_count.load(kRelaxed) > 0);
  DropPin(frame);
}

}  // namespace fieldrep
