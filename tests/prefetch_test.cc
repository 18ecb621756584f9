// Read-ahead and elevator write-back suite: the accounting contract
// (read-ahead performs physical batch reads; logical counters are charged
// on first fetch and are byte-identical with read-ahead on or off), the
// pool-wide read-ahead budget, victim-selection safety under the WAL
// observer's no-steal veto and flush ordering, checksum verification of
// batch-read pages, and crash behaviour of vectored writes under fault
// injection.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "storage/fault_injecting_device.h"
#include "storage/memory_device.h"
#include "storage/read_ahead.h"
#include "storage/record_file.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::ExpectCleanIntegrity;

/// Allocates `n` pages through the pool, tags byte 0 of page i with i,
/// and leaves the pool cold with zeroed stats. Pages are checksummed on
/// the device (the flush path stamps them).
std::vector<PageId> SeedPages(BufferPool* pool, int n) {
  std::vector<PageId> pages;
  for (int i = 0; i < n; ++i) {
    PageGuard guard;
    EXPECT_TRUE(pool->NewPage(&guard).ok());
    guard.data()[0] = static_cast<uint8_t>(i);
    guard.MarkDirty();
    pages.push_back(guard.page_id());
  }
  EXPECT_TRUE(pool->EvictAll().ok());
  pool->ResetStats();
  return pages;
}

/// Pins `pages` (shared latches), taking their frames out of victim
/// selection: the tests that need a handful of candidate victims run a
/// pool large enough for a read-ahead budget and pin the rest.
std::vector<PageGuard> PinPages(BufferPool* pool,
                                std::span<const PageId> pages) {
  std::vector<PageGuard> guards(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_TRUE(
        pool->FetchPage(pages[i], &guards[i], LatchMode::kShared).ok());
  }
  return guards;
}

// --- Accounting --------------------------------------------------------------

TEST(PrefetchTest, ChargesLogicalReadOnFirstFetchOnly) {
  MemoryDevice device;
  BufferPool pool(&device, 32);  // budget 8
  std::vector<PageId> pages = SeedPages(&pool, 6);

  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(pages, &covered));
  EXPECT_EQ(covered, 6u);
  // Physical side: one batch of 6 pages; logical side: untouched.
  EXPECT_EQ(pool.stats().batched_reads, 6u);
  EXPECT_EQ(pool.stats().bytes_read, 6u * kPageSize);
  EXPECT_EQ(pool.stats().disk_reads, 0u);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.pages_cached(), 6u);
  EXPECT_EQ(pool.total_pins(), 0u);  // installed unpinned

  // First fetch of a prefetched page is charged as the read the caller
  // would have performed on demand — not as a hit.
  PageGuard guard;
  FR_ASSERT_OK(pool.FetchPage(pages[2], &guard));
  EXPECT_EQ(guard.data()[0], 2);
  EXPECT_EQ(pool.stats().disk_reads, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  guard.Release();

  // Second fetch is an ordinary hit.
  FR_ASSERT_OK(pool.FetchPage(pages[2], &guard));
  EXPECT_EQ(pool.stats().disk_reads, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  guard.Release();

  // Pages read ahead but never fetched are never charged.
  EXPECT_EQ(pool.stats().TotalIo(), 1u);
}

TEST(PrefetchTest, ReadAheadOffMakesReadAheadANoOp) {
  MemoryDevice device;
  BufferPool pool(&device, 16);
  std::vector<PageId> pages = SeedPages(&pool, 4);

  pool.set_read_ahead(false);
  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(pages, &covered));
  EXPECT_EQ(covered, 0u);
  EXPECT_EQ(pool.pages_cached(), 0u);
  EXPECT_EQ(pool.stats().batched_reads, 0u);
  EXPECT_EQ(pool.stats().bytes_read, 0u);
}

TEST(PrefetchTest, SkipsResidentDuplicateAndUnallocatedIds) {
  MemoryDevice device;
  BufferPool pool(&device, 16);
  std::vector<PageId> pages = SeedPages(&pool, 4);

  PageGuard resident;
  FR_ASSERT_OK(pool.FetchPage(pages[0], &resident));
  pool.ResetStats();

  std::vector<PageId> request = {pages[0],  // resident
                                 pages[1], pages[1],  // duplicate
                                 pages[2],
                                 static_cast<PageId>(9999)};  // unallocated
  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(request, &covered));
  EXPECT_EQ(covered, request.size());
  EXPECT_EQ(pool.stats().batched_reads, 2u);  // pages[1] and pages[2] only
  EXPECT_EQ(pool.pages_cached(), 3u);
  EXPECT_EQ(pool.PeekPage(static_cast<PageId>(9999)), nullptr);
  resident.Release();
}

TEST(PrefetchOidTest, PrefetchesDistinctPagesOfOidBatch) {
  MemoryDevice device;
  BufferPool pool(&device, 16);
  std::vector<PageId> pages = SeedPages(&pool, 3);

  std::vector<Oid> oids = {Oid(1, pages[0], 0), Oid(1, pages[0], 5),
                           Oid(1, pages[2], 1), Oid::Invalid()};
  ReadAheadCursor cursor(&pool, oids);
  cursor.Advance(0);
  EXPECT_EQ(pool.stats().batched_reads, 2u);
  EXPECT_NE(pool.PeekPage(pages[0]), nullptr);
  EXPECT_NE(pool.PeekPage(pages[2]), nullptr);
  EXPECT_EQ(pool.PeekPage(pages[1]), nullptr);
}

// --- Elevator write-back -----------------------------------------------------

/// StorageDevice decorator that records the page-id sequence of every
/// write batch it forwards.
class WriteRecordingDevice : public StorageDevice {
 public:
  explicit WriteRecordingDevice(StorageDevice* base) : base_(base) {}

  Status ReadPage(PageId page_id, void* buf) override {
    return base_->ReadPage(page_id, buf);
  }
  Status WritePage(PageId page_id, const void* buf) override {
    batches_.push_back({page_id});
    return base_->WritePage(page_id, buf);
  }
  void WritePagesAsync(std::vector<PageId> page_ids,
                       std::vector<const uint8_t*> bufs,
                       AsyncDone done) override {
    batches_.push_back(page_ids);
    base_->WritePagesAsync(std::move(page_ids), std::move(bufs),
                           std::move(done));
  }
  Status AllocatePage(PageId* page_id) override {
    return base_->AllocatePage(page_id);
  }
  uint32_t page_count() const override { return base_->page_count(); }

  const std::vector<std::vector<PageId>>& batches() const { return batches_; }
  void ClearBatches() { batches_.clear(); }

 private:
  StorageDevice* base_;
  std::vector<std::vector<PageId>> batches_;
};

TEST(ElevatorFlushTest, FlushesInAscendingOrderWithContiguousRunsCoalesced) {
  MemoryDevice base;
  WriteRecordingDevice device(&base);
  BufferPool pool(&device, 16);
  std::vector<PageId> pages = SeedPages(&pool, 8);

  // Dirty pages {6, 1, 0, 3, 2} in scrambled order; the flush must come
  // out as one sorted batch, [0 1 2 3] being a contiguous run.
  for (PageId id : {pages[6], pages[1], pages[0], pages[3], pages[2]}) {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(id, &guard));
    guard.data()[1] = 0x7E;
    guard.MarkDirty();
  }
  device.ClearBatches();
  pool.ResetStats();
  FR_ASSERT_OK(pool.FlushAll());

  ASSERT_EQ(device.batches().size(), 1u);
  EXPECT_EQ(device.batches()[0],
            (std::vector<PageId>{pages[0], pages[1], pages[2], pages[3],
                                 pages[6]}));
  // Logical writes count every page; coalesced_writes only multi-page runs;
  // every device gets one submission per flush.
  EXPECT_EQ(pool.stats().disk_writes, 5u);
  EXPECT_EQ(pool.stats().coalesced_writes, 4u);
  EXPECT_EQ(pool.stats().bytes_written, 5u * kPageSize);
  EXPECT_EQ(pool.stats().write_batches, 1u);
}

// --- Stage read-ahead budget ---------------------------------------------------

TEST(ReadAheadTest, PoolWideBudgetBoundsUnconsumedPages) {
  MemoryDevice device;
  BufferPool pool(&device, 32);
  std::vector<PageId> pages = SeedPages(&pool, 20);
  ASSERT_EQ(pool.read_ahead_budget(), 8u);  // a quarter of the frames

  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(pages, &covered));
  EXPECT_EQ(covered, 8u);
  EXPECT_EQ(pool.read_ahead_pending(), 8u);
  EXPECT_EQ(pool.stats().batched_reads, 8u);
  EXPECT_EQ(pool.stats().read_batches, 1u);

  // Budget used up: nothing more is announced.
  FR_ASSERT_OK(pool.ReadAhead(std::span<const PageId>(pages).subspan(8),
                              &covered));
  EXPECT_EQ(covered, 0u);
  EXPECT_EQ(pool.stats().batched_reads, 8u);

  // Consuming read-ahead pages returns their budget; the first fetch is
  // charged as the read it replaced.
  for (int i = 0; i < 4; ++i) {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(pages[i], &guard, LatchMode::kShared));
  }
  EXPECT_EQ(pool.read_ahead_pending(), 4u);
  EXPECT_EQ(pool.stats().disk_reads, 4u);
  EXPECT_EQ(pool.stats().hits, 0u);
  FR_ASSERT_OK(pool.ReadAhead(std::span<const PageId>(pages).subspan(8),
                              &covered));
  EXPECT_EQ(covered, 4u);
  EXPECT_EQ(pool.read_ahead_pending(), 8u);
  EXPECT_EQ(pool.stats().read_batches, 2u);
}

TEST(ReadAheadTest, CursorTopsUpAndReadsTheWholeStageAhead) {
  MemoryDevice device;
  BufferPool pool(&device, 32);  // budget 8, well under the stage's 20
  std::vector<PageId> pages = SeedPages(&pool, 20);
  std::vector<Oid> oids;
  for (PageId page : pages) {
    oids.push_back(Oid(1, page, 0));
    oids.push_back(Oid(1, page, 1));  // two items per page
  }

  ReadAheadCursor cursor(&pool, oids);
  for (size_t i = 0; i < oids.size(); ++i) {
    cursor.Advance(i);
    EXPECT_LE(pool.read_ahead_pending(), pool.read_ahead_budget());
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(oids[i].page_id, &guard, LatchMode::kShared));
  }
  // Every page was read ahead, in several top-ups, and each was charged
  // exactly once: the logical counters match on-demand reading.
  EXPECT_EQ(pool.stats().batched_reads, 20u);
  EXPECT_GT(pool.stats().read_batches, 2u);
  EXPECT_EQ(pool.stats().disk_reads, 20u);
  EXPECT_EQ(pool.stats().hits, 20u);
  EXPECT_EQ(pool.read_ahead_pending(), 0u);
  EXPECT_EQ(pool.total_pins(), 0u);
}

TEST(ReadAheadTest, OffTurnsTheCursorOff) {
  MemoryDevice device;
  BufferPool pool(&device, 32);
  std::vector<PageId> pages = SeedPages(&pool, 4);
  pool.set_read_ahead(false);
  std::vector<Oid> oids;
  for (PageId page : pages) oids.push_back(Oid(1, page, 0));
  ReadAheadCursor cursor(&pool, oids);
  cursor.Advance(0);
  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(pages, &covered));
  EXPECT_EQ(covered, 0u);
  EXPECT_EQ(pool.pages_cached(), 0u);
  EXPECT_EQ(pool.stats().batched_reads, 0u);
  EXPECT_EQ(pool.stats().bytes_read, 0u);
}

// Every speculative read shares one budget: a stage's cursor, a record
// file's scan and a B+-tree's leaf walk, run together, never hold more
// unconsumed read-ahead pages than read_ahead_budget().
TEST(ReadAheadTest, ScanTreeAndStageReadAheadShareOneBudget) {
  MemoryDevice device;
  BufferPool pool(&device, 64);
  ASSERT_EQ(pool.read_ahead_budget(), 16u);
  RecordFile file(&pool, 1);
  for (int i = 0; i < 2000; ++i) {  // ~50 chain pages
    Oid oid;
    FR_ASSERT_OK(file.Insert(std::string(100, 'r'), &oid));
  }
  BTree tree(&pool);
  FR_ASSERT_OK(tree.Init());
  for (int64_t key = 0; key < 20000; ++key) {  // ~80 leaves, mostly in order
    FR_ASSERT_OK(tree.Insert(key, Oid(2, 1, static_cast<uint16_t>(key))));
  }
  std::vector<PageId> stage = SeedPages(&pool, 60);
  std::vector<Oid> stage_oids;
  for (PageId page : stage) stage_oids.push_back(Oid(3, page, 0));

  // A stage fills the budget; a scan that starts behind it adds nothing.
  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(stage, &covered));
  EXPECT_EQ(pool.read_ahead_pending(), 16u);
  size_t peak = 0;
  FR_ASSERT_OK(file.Scan([&](const Oid&, const std::string&) {
    peak = std::max(peak, pool.read_ahead_pending());
    return true;
  }));
  EXPECT_EQ(peak, 16u);
  FR_ASSERT_OK(pool.EvictAll());
  pool.ResetStats();

  // The three paths at once, with a sampler watching the shared count.
  std::atomic<bool> stop{false};
  size_t max_pending = 0;  // the sampler's; read after it joins
  std::thread sampler([&] {
    while (!stop.load()) {
      max_pending = std::max(max_pending, pool.read_ahead_pending());
      std::this_thread::yield();
    }
  });
  auto scans = [&] {
    for (int round = 0; round < 5; ++round) {
      EXPECT_TRUE(
          file.Scan([](const Oid&, const std::string&) { return true; }).ok());
    }
  };
  auto leaf_walks = [&] {
    for (int round = 0; round < 5; ++round) {
      EXPECT_TRUE(
          tree.ScanRange(0, 19999, [](int64_t, Oid) { return true; }).ok());
    }
  };
  auto stages = [&] {
    for (int round = 0; round < 5; ++round) {
      ReadAheadCursor cursor(&pool, stage_oids);
      for (size_t i = 0; i < stage_oids.size(); ++i) {
        cursor.Advance(i);
        PageGuard guard;
        EXPECT_TRUE(pool.FetchPage(stage_oids[i].page_id, &guard,
                                   LatchMode::kShared)
                        .ok());
      }
    }
  };
  std::thread a(scans), b(leaf_walks), c(stages);
  a.join();
  b.join();
  c.join();
  stop = true;
  sampler.join();
  pool.DrainAsyncIo();
  // Pages were read ahead, and the three paths together stayed within
  // the budget.
  EXPECT_GT(pool.stats().batched_reads, 0u);
  EXPECT_LE(max_pending, pool.read_ahead_budget());
  EXPECT_LE(pool.read_ahead_pending(), pool.read_ahead_budget());
  EXPECT_EQ(pool.total_pins(), 0u);
}

// --- Batched eviction write-back ------------------------------------------------

TEST(EvictionWriteBackTest, FailedVictimStaysDirtyAndResidentOthersLand) {
  MemoryDevice disk;
  FaultPlan plan;
  FaultInjectingDevice device(&disk, &plan);
  BufferPool pool(&device, 16);  // budget 4
  std::vector<PageId> pages = SeedPages(&pool, 24);
  // Twelve pinned frames leave four victim candidates.
  std::vector<PageGuard> pins =
      PinPages(&pool, std::span<const PageId>(pages).subspan(12));

  // Four dirty, non-adjacent pages fill the rest of the pool, so each is
  // a run of its own in the victims' write-back batch.
  const std::vector<PageId> victims = {pages[0], pages[2], pages[4],
                                       pages[6]};
  for (size_t k = 0; k < victims.size(); ++k) {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(victims[k], &guard));
    guard.data()[5] = static_cast<uint8_t>(0xC0 + k);
    guard.MarkDirty();
  }
  plan.failing_write_page = victims[2];
  pool.ResetStats();

  // Reading four other pages ahead claims all four dirty frames; their
  // write-backs go to the device together, and one of them fails.
  size_t covered = 0;
  Status s = pool.ReadAhead(
      std::vector<PageId>{pages[8], pages[9], pages[10], pages[11]},
      &covered);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find(StringPrintf("[%u]", victims[2])),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("stay dirty"), std::string::npos)
      << s.ToString();

  // Exactly the failed victim stays dirty and resident, bytes intact; its
  // claim was dropped, the other three reads went ahead.
  EXPECT_EQ(pool.DirtyPageIds(), std::vector<PageId>{victims[2]});
  ASSERT_NE(pool.PeekPage(victims[2]), nullptr);
  EXPECT_EQ(pool.PeekPage(victims[2])[5], 0xC2);
  EXPECT_EQ(pool.stats().disk_writes, 3u);
  EXPECT_EQ(pool.stats().write_batches, 1u);
  EXPECT_EQ(pool.stats().batched_reads, 3u);
  EXPECT_EQ(pool.stats().read_batches, 1u);
  pins.clear();
  EXPECT_EQ(pool.total_pins(), 0u);

  // No other victim's bytes were lost: they are on the device.
  uint8_t raw[kPageSize];
  for (size_t k : {0u, 1u, 3u}) {
    FR_ASSERT_OK(disk.ReadPage(victims[k], raw));
    EXPECT_EQ(raw[5], static_cast<uint8_t>(0xC0 + k)) << "victim " << k;
  }

  // Repair the sector: the still-dirty frame flushes like any other.
  plan.Reset();
  FR_ASSERT_OK(pool.FlushAll());
  FR_ASSERT_OK(disk.ReadPage(victims[2], raw));
  EXPECT_EQ(raw[5], 0xC2);
  EXPECT_TRUE(pool.DirtyPageIds().empty());
}

// --- WAL observer interaction ------------------------------------------------

/// Observer that vetoes eviction of a protected page set and records the
/// BeforePageFlush order (the WAL flush-ordering hook).
class RecordingObserver : public PageObserver {
 public:
  void OnPageAccess(PageId, const uint8_t*) override {}
  void OnPageDirtied(PageId) override {}
  bool CanEvict(PageId page_id) const override {
    return protected_pages_.end() ==
           std::find(protected_pages_.begin(), protected_pages_.end(),
                     page_id);
  }
  Status BeforePageFlush(PageId page_id, uint64_t) override {
    flushed_.push_back(page_id);
    return Status::OK();
  }

  void Protect(PageId page_id) { protected_pages_.push_back(page_id); }
  const std::vector<PageId>& flushed() const { return flushed_; }

 private:
  std::vector<PageId> protected_pages_;
  std::vector<PageId> flushed_;
};

TEST(PrefetchTest, VictimSelectionHonoursNoStealVeto) {
  MemoryDevice device;
  // 16 frames (budget 4), 13 of them pinned: one will hold an
  // uncommitted dirty page, leaving two for the read-ahead batch to fight
  // over.
  BufferPool pool(&device, 16);
  std::vector<PageId> pages = SeedPages(&pool, 18);
  std::vector<PageGuard> pins =
      PinPages(&pool, std::span<const PageId>(pages).subspan(5));

  RecordingObserver observer;
  pool.SetObserver(&observer);
  PageGuard guard;
  FR_ASSERT_OK(pool.FetchPage(pages[0], &guard));
  guard.data()[2] = 0x11;
  guard.MarkDirty();
  guard.Release();
  observer.Protect(pages[0]);  // "uncommitted": no-steal forbids eviction

  // Asking for 4 pages with only 2 stealable frames: the batch shrinks,
  // the protected dirty page stays resident and is NEVER flushed.
  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(
      std::vector<PageId>{pages[1], pages[2], pages[3], pages[4]}, &covered));
  EXPECT_NE(pool.PeekPage(pages[0]), nullptr);
  EXPECT_TRUE(observer.flushed().empty());
  EXPECT_LE(pool.stats().batched_reads, 2u);
  pool.SetObserver(nullptr);
  // The protected page's bytes are intact (flush at destruction would
  // trip the veto; detaching the observer lets teardown write it back).
  EXPECT_EQ(pool.PeekPage(pages[0])[2], 0x11);
}

TEST(PrefetchTest, DirtyVictimsFlushThroughObserverBeforeReuse) {
  MemoryDevice device;
  // 8 frames (budget 2), 6 of them pinned: the dirty page and one free
  // frame are the only victims.
  BufferPool pool(&device, 8);
  std::vector<PageId> pages = SeedPages(&pool, 10);
  std::vector<PageGuard> pins =
      PinPages(&pool, std::span<const PageId>(pages).subspan(4));

  RecordingObserver observer;
  pool.SetObserver(&observer);
  PageGuard guard;
  FR_ASSERT_OK(pool.FetchPage(pages[0], &guard));
  guard.data()[3] = 0x42;
  guard.MarkDirty();
  guard.Release();

  // Reading two other pages ahead must evict the dirty frame — and the
  // WAL ordering hook must run before its bytes reach the device.
  size_t covered = 0;
  FR_ASSERT_OK(
      pool.ReadAhead(std::vector<PageId>{pages[1], pages[2]}, &covered));
  ASSERT_EQ(observer.flushed().size(), 1u);
  EXPECT_EQ(observer.flushed()[0], pages[0]);
  pool.SetObserver(nullptr);

  PageGuard reread;
  FR_ASSERT_OK(pool.FetchPage(pages[0], &reread));
  EXPECT_EQ(reread.data()[3], 0x42);  // write-back actually happened
}

// --- Checksums ---------------------------------------------------------------

TEST(PrefetchTest, CorruptBatchPageIsNotInstalledAndFetchReportsIt) {
  MemoryDevice device;
  BufferPool pool(&device, 16);
  pool.set_verify_checksums(true);
  std::vector<PageId> pages = SeedPages(&pool, 3);

  // Flip a payload byte of pages[1] directly on the device without
  // restamping: its checksum no longer matches.
  uint8_t raw[kPageSize];
  FR_ASSERT_OK(device.ReadPage(pages[1], raw));
  raw[kPageSize - 1] ^= 0xFF;
  FR_ASSERT_OK(device.WritePage(pages[1], raw));

  // The batch read succeeds, but the corrupt page is silently dropped.
  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(pages, &covered));
  EXPECT_NE(pool.PeekPage(pages[0]), nullptr);
  EXPECT_EQ(pool.PeekPage(pages[1]), nullptr);
  EXPECT_NE(pool.PeekPage(pages[2]), nullptr);

  // The on-demand retry sees exactly what it would have seen without
  // read-ahead: a Corruption naming the page.
  PageGuard guard;
  Status s = pool.FetchPage(pages[1], &guard);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("checksum"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find(StringPrintf("%u", pages[1])),
            std::string::npos)
      << s.ToString();
}

// --- Fault injection ---------------------------------------------------------

TEST(PrefetchTest, DeviceErrorInstallsNothingAndLeaksNoFrames) {
  MemoryDevice disk;
  FaultPlan plan;
  FaultInjectingDevice device(&disk, &plan);
  BufferPool pool(&device, 16);
  std::vector<PageId> pages = SeedPages(&pool, 4);

  plan.crashed = true;  // machine down: every read fails
  // Read-ahead is a hint: its failed reads abandon their claims, and the
  // on-demand fetch reports the error.
  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(pages, &covered));
  EXPECT_EQ(pool.pages_cached(), 0u);
  EXPECT_EQ(pool.total_pins(), 0u);
  EXPECT_EQ(pool.stats().batched_reads, 0u);
  {
    PageGuard guard;
    EXPECT_FALSE(pool.FetchPage(pages[0], &guard).ok());
  }
  EXPECT_EQ(pool.total_pins(), 0u);

  plan.Reset();  // reboot: on-demand access works again
  PageGuard guard;
  FR_ASSERT_OK(pool.FetchPage(pages[0], &guard));
  EXPECT_EQ(guard.data()[0], 0);
}

TEST(ElevatorFlushTest, CrashMidFlushKeepsFramesDirtyForRetry) {
  MemoryDevice disk;
  FaultPlan plan;
  FaultInjectingDevice device(&disk, &plan);
  BufferPool pool(&device, 16);
  std::vector<PageId> pages = SeedPages(&pool, 6);

  for (int i = 0; i < 6; ++i) {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(pages[i], &guard));
    guard.data()[4] = static_cast<uint8_t>(0xA0 + i);
    guard.MarkDirty();
  }
  plan.Arm(3);  // power fails after the 3rd durable write of the flush
  Status s = pool.FlushAll();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("flushing page"), std::string::npos)
      << s.ToString();

  // Reboot. Every page the crash interrupted is still dirty, so the
  // retry completes the flush and the media ends up fully new.
  plan.Reset();
  EXPECT_FALSE(pool.DirtyPageIds().empty());
  FR_ASSERT_OK(pool.FlushAll());
  FR_ASSERT_OK(pool.EvictAll());
  pool.set_verify_checksums(true);
  for (int i = 0; i < 6; ++i) {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(pages[i], &guard));
    EXPECT_EQ(guard.data()[4], static_cast<uint8_t>(0xA0 + i));
  }
}

/// Fresh "machine" per crash boundary: media, shared fault plan, and a
/// database with read-ahead enabled over both fault-injecting devices.
struct ReadAheadCrashRig {
  MemoryDevice disk;
  MemoryDevice log_disk;
  FaultPlan plan;
  FaultInjectingDevice db_dev{&disk, &plan};
  FaultInjectingDevice log_dev{&log_disk, &plan};

  std::unique_ptr<Database> Open() {
    Database::Options options;
    options.buffer_pool_frames = 512;
    options.device = &db_dev;
    options.wal_device = &log_dev;
    options.enable_wal = true;
    options.read_ahead = true;
    auto db_or = Database::Open(options);
    EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
    return db_or.ok() ? std::move(db_or).value() : nullptr;
  }

  /// One set, enough records to span several pages, all dirty in cache.
  Status Populate(Database* db) {
    FIELDREP_RETURN_IF_ERROR(db->DefineType(
        TypeDescriptor("DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
    FIELDREP_RETURN_IF_ERROR(db->CreateSet("Depts", "DEPT"));
    for (int i = 0; i < 30; ++i) {
      Oid oid;
      FIELDREP_RETURN_IF_ERROR(db->Insert(
          "Depts",
          Object(0, {Value(StringPrintf("dept%d", i)), Value(int32_t{i})}),
          &oid));
    }
    return Status::OK();
  }
};

TEST(WalPrefetchCrashTest, CheckpointCrashWithReadAheadRecoversClean) {
  // End-to-end: a database with read-ahead enabled crashes during a
  // checkpoint (whose dirty-page flush takes the elevator path), reboots,
  // recovers from the WAL, and passes the full integrity checker.

  // Oracle pass: how many durable operations does the checkpoint issue?
  uint64_t checkpoint_ops = 0;
  {
    ReadAheadCrashRig rig;
    auto db = rig.Open();
    ASSERT_NE(db, nullptr);
    FR_ASSERT_OK(rig.Populate(db.get()));
    uint64_t before = rig.plan.ops_seen;
    FR_ASSERT_OK(db->Checkpoint());
    checkpoint_ops = rig.plan.ops_seen - before;
    ASSERT_GT(checkpoint_ops, 0u);
  }

  // Crash at every other boundary inside the checkpoint and recover.
  for (uint64_t k = 1; k <= checkpoint_ops; k += 2) {
    SCOPED_TRACE(StringPrintf("crash after %d checkpoint ops",
                              static_cast<int>(k)));
    ReadAheadCrashRig rig;
    {
      auto db = rig.Open();
      ASSERT_NE(db, nullptr);
      FR_ASSERT_OK(rig.Populate(db.get()));
      rig.plan.Arm(k);
      (void)db->Checkpoint();  // dies somewhere inside the elevator flush
    }
    rig.plan.Reset();  // reboot
    auto db = rig.Open();
    ASSERT_NE(db, nullptr);
    ExpectCleanIntegrity(db.get());
  }
}

// --- EvictAll diagnostics ----------------------------------------------------

TEST(EvictAllTest, ErrorNamesThePinnedPage) {
  MemoryDevice device;
  BufferPool pool(&device, 8);
  PageGuard guard;
  FR_ASSERT_OK(pool.NewPage(&guard));
  Status s = pool.EvictAll();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find(StringPrintf("page %u", guard.page_id())),
            std::string::npos)
      << s.ToString();
  guard.Release();
}

// --- Logical-I/O equivalence at the scan level -------------------------------

TEST(ReadAheadScanTest, RecordFileScanLogicalIoIsReadAheadIndependent) {
  MemoryDevice device;
  BufferPool pool(&device, 4096);
  RecordFile file(&pool, 1);
  const std::string payload(100, 'z');
  for (int i = 0; i < 2000; ++i) {  // ~50 pages of records
    Oid oid;
    FR_ASSERT_OK(file.Insert(payload, &oid));
  }

  auto cold_scan_stats = [&](bool read_ahead) {
    pool.set_read_ahead(read_ahead);
    EXPECT_TRUE(pool.EvictAll().ok());
    pool.ResetStats();
    size_t count = 0;
    EXPECT_TRUE(file.Scan([&](const Oid&, const std::string&) {
                      ++count;
                      return true;
                    })
                    .ok());
    EXPECT_EQ(count, 2000u);
    return pool.stats();
  };

  IoStats with = cold_scan_stats(true);
  IoStats without = cold_scan_stats(false);
  // The paper's cost unit must not notice the physical batching.
  EXPECT_EQ(with.disk_reads, without.disk_reads);
  EXPECT_EQ(with.disk_writes, without.disk_writes);
  EXPECT_EQ(with.TotalIo(), without.TotalIo());
  EXPECT_EQ(with.fetches, without.fetches);
  EXPECT_EQ(with.hits, without.hits);
  // The physical counters DO notice: pages moved in batches.
  EXPECT_GT(with.batched_reads, 0u);
  EXPECT_EQ(without.batched_reads, 0u);
}

}  // namespace
}  // namespace fieldrep
