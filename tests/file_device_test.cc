// FileDevice suite. Most cases run with the ring off and with the ring
// asked for (ForEachRing): round trips, reopen persistence, closed-device
// and out-of-range errors, O_DIRECT (bounce buffers for unaligned callers,
// aligned extends), the asynchronous batch API and its per-page error
// reporting, and decorator transparency (fault injection / corruption over
// the device). The UringDeviceTest cases cover the ring's own contract:
// completion on the reaper thread with the ring on, inline completion with
// it off, single-page ops over the ring, and errors that name the page.
// Where the kernel refuses io_uring a ring-on pass runs without the ring,
// and each case checks the mode that actually ran. The buffer pool's async
// write-back/prefetch contract under injected completion errors follows:
// failed frames stay dirty and the error names them.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/corrupting_device.h"
#include "storage/fault_injecting_device.h"
#include "storage/file_device.h"
#include "storage/memory_device.h"
#include "telemetry/metrics.h"
#include "test_util.h"

namespace fieldrep {
namespace {

std::string TempPath() {
  return StringPrintf("%sfieldrep_file_device_test_%d.db",
                      ::testing::TempDir().c_str(),
                      static_cast<int>(::getpid()));
}

/// Opens `device` on the test's backing file with the ring off or asked
/// for, failing the test on error.
void Open(FileDevice* device, bool ring, bool o_direct = false) {
  FileDevice::Options options;
  options.o_direct = o_direct;
  options.async_io = ring;
  Status s = device->Open(TempPath(), options);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // Without the option no ring is ever set up.
  if (!ring) {
    EXPECT_FALSE(device->ring_active());
  }
}

/// Runs `body` with the ring off, then with the ring asked for, each on a
/// fresh backing file.
void ForEachRing(const std::function<void(bool ring)>& body) {
  for (bool ring : {false, true}) {
    SCOPED_TRACE(ring ? "ring on" : "ring off");
    std::remove(TempPath().c_str());
    body(ring);
    std::remove(TempPath().c_str());
  }
}

/// Runs ReadPagesAsync and waits (bounded) for its completion. Reports
/// whether `done` had already run when the call returned, and on which
/// thread it ran.
struct AsyncRead {
  std::vector<Status> statuses;
  bool completed_inline = false;
  std::thread::id completion_thread;
};

AsyncRead ReadAsyncAndWait(StorageDevice* device,
                           const std::vector<PageId>& ids,
                           const std::vector<uint8_t*>& bufs) {
  AsyncRead result;
  std::mutex mu;
  std::condition_variable cv;
  bool done_flag = false;
  device->ReadPagesAsync(ids, bufs, [&](std::span<const Status> statuses) {
    std::lock_guard<std::mutex> lock(mu);
    result.statuses.assign(statuses.begin(), statuses.end());
    result.completion_thread = std::this_thread::get_id();
    done_flag = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  result.completed_inline = done_flag;
  EXPECT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return done_flag; }));
  return result;
}

/// Runs WritePagesAsync and waits (bounded) for its completion; returns
/// the per-page statuses.
std::vector<Status> WriteAsyncAndWait(StorageDevice* device,
                                      const std::vector<PageId>& ids,
                                      const std::vector<const uint8_t*>& bufs) {
  std::vector<Status> statuses;
  std::mutex mu;
  std::condition_variable cv;
  bool done_flag = false;
  device->WritePagesAsync(ids, bufs, [&](std::span<const Status> got) {
    std::lock_guard<std::mutex> lock(mu);
    statuses.assign(got.begin(), got.end());
    done_flag = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return done_flag; }));
  return statuses;
}

/// Allocates `n` pages and fills page i with byte i via the batch API.
std::vector<PageId> FillPages(FileDevice* device, int n) {
  std::vector<PageId> ids;
  std::vector<PageBuffer> storage;
  std::vector<const uint8_t*> bufs;
  for (int i = 0; i < n; ++i) {
    PageId id;
    EXPECT_TRUE(device->AllocatePage(&id).ok());
    ids.push_back(id);
    storage.push_back(AllocatePageBuffer());
    std::memset(storage.back().get(), i, kPageSize);
    bufs.push_back(storage.back().get());
  }
  for (const Status& s : WriteAsyncAndWait(device, ids, bufs)) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return ids;
}

void ExpectRoundTrip(FileDevice* device, const std::vector<PageId>& ids) {
  std::vector<PageBuffer> storage;
  std::vector<uint8_t*> bufs;
  for (size_t i = 0; i < ids.size(); ++i) {
    storage.push_back(AllocatePageBuffer());
    bufs.push_back(storage.back().get());
  }
  AsyncRead got = ReadAsyncAndWait(device, ids, bufs);
  ASSERT_EQ(got.statuses.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(got.statuses[i].ok()) << got.statuses[i].ToString();
    EXPECT_EQ(bufs[i][0], static_cast<uint8_t>(i)) << "page " << ids[i];
    EXPECT_EQ(bufs[i][kPageSize - 1], static_cast<uint8_t>(i));
  }
}

TEST(FileDeviceTest, BatchedWriteReadRoundTrip) {
  ForEachRing([](bool ring) {
    FileDevice device;
    Open(&device, ring);
    std::vector<PageId> ids = FillPages(&device, 64);
    EXPECT_EQ(device.page_count(), 64u);
    ExpectRoundTrip(&device, ids);
    // The ring carried the batches exactly when it is active.
    if (device.ring_active()) {
      EXPECT_GT(device.stats().sqes_submitted, 0u);
      EXPECT_EQ(device.stats().cqes_harvested, device.stats().sqes_submitted);
      EXPECT_EQ(device.stats().cqe_errors, 0u);
      EXPECT_EQ(device.stats().inflight, 0u);
    } else {
      EXPECT_EQ(device.stats().sqes_submitted, 0u);
    }
    FR_ASSERT_OK(device.Sync());
    FR_ASSERT_OK(device.Close());
  });
}

/// Writes one page, closes, reopens and reads it back.
void ExpectSinglePageReopen(bool ring) {
  std::remove(TempPath().c_str());
  PageId id;
  {
    FileDevice device;
    Open(&device, ring);
    FR_ASSERT_OK(device.AllocatePage(&id));
    PageBuffer buf = AllocatePageBuffer();
    std::memset(buf.get(), 0x5A, kPageSize);
    FR_ASSERT_OK(device.WritePage(id, buf.get()));
    FR_ASSERT_OK(device.Close());
  }
  {
    FileDevice device;
    Open(&device, ring);
    EXPECT_EQ(device.page_count(), 1u);
    PageBuffer buf = AllocatePageBuffer();
    FR_ASSERT_OK(device.ReadPage(id, buf.get()));
    EXPECT_EQ(buf.get()[100], 0x5A);
  }  // the destructor closes
  std::remove(TempPath().c_str());
}

TEST(FileDeviceTest, PersistsAcrossReopen) {
  ExpectSinglePageReopen(/*ring=*/false);
}

TEST(UringDeviceTest, SinglePageOpsAndReopenPersistence) {
  ExpectSinglePageReopen(/*ring=*/true);
}

TEST(FileDeviceTest, ReopenRecoversPageCountFromFileSize) {
  ForEachRing([](bool ring) {
    PageBuffer in = AllocatePageBuffer();
    {
      FileDevice device;
      Open(&device, ring);
      for (int i = 0; i < 5; ++i) {
        PageId id;
        FR_ASSERT_OK(device.AllocatePage(&id));
        EXPECT_EQ(id, static_cast<PageId>(i));
        in.get()[0] = static_cast<uint8_t>('a' + i);
        FR_ASSERT_OK(device.WritePage(id, in.get()));
      }
      FR_ASSERT_OK(device.Close());
    }
    FileDevice device;
    Open(&device, ring);
    EXPECT_EQ(device.page_count(), 5u);
    PageBuffer out = AllocatePageBuffer();
    for (int i = 0; i < 5; ++i) {
      FR_ASSERT_OK(device.ReadPage(i, out.get()));
      EXPECT_EQ(out.get()[0], static_cast<uint8_t>('a' + i));
    }
    // Allocation continues from the recovered count.
    PageId id;
    FR_ASSERT_OK(device.AllocatePage(&id));
    EXPECT_EQ(id, 5u);
  });
}

// Writers of disjoint sets extend the file concurrently; every
// allocation must get its own page.
TEST(FileDeviceTest, ConcurrentAllocationsGetDistinctPages) {
  ForEachRing([](bool ring) {
    FileDevice device;
    Open(&device, ring);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 256;
    std::vector<std::vector<PageId>> got(kThreads);
    std::vector<std::thread> threads;
    std::atomic<bool> go{false};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&device, &got, &go, t] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kPerThread; ++i) {
          PageId id;
          EXPECT_TRUE(device.AllocatePage(&id).ok());
          got[t].push_back(id);
        }
      });
    }
    go.store(true);
    for (std::thread& thread : threads) thread.join();
    std::set<PageId> distinct;
    for (const std::vector<PageId>& ids : got) {
      distinct.insert(ids.begin(), ids.end());
    }
    EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads * kPerThread));
    EXPECT_EQ(device.page_count(), kThreads * kPerThread);
  });
}

TEST(FileDeviceTest, CloseIsIdempotent) {
  ForEachRing([](bool ring) {
    FileDevice device;
    Open(&device, ring);
    std::vector<PageId> ids = FillPages(&device, 2);
    FR_ASSERT_OK(device.Close());
    FR_ASSERT_OK(device.Close());  // second close: clean no-op
    EXPECT_FALSE(device.ring_active());
    // Operations on a closed device fail cleanly rather than crash.
    PageBuffer a = AllocatePageBuffer();
    PageBuffer b = AllocatePageBuffer();
    EXPECT_FALSE(device.ReadPage(0, a.get()).ok());
    EXPECT_FALSE(device.WritePage(0, a.get()).ok());
    std::vector<uint8_t*> bufs = {a.get(), b.get()};
    for (const Status& s : ReadAsyncAndWait(&device, ids, bufs).statuses) {
      EXPECT_FALSE(s.ok());
    }
    PageId id;
    EXPECT_FALSE(device.AllocatePage(&id).ok());
    EXPECT_FALSE(device.Sync().ok());
  });
}

TEST(FileDeviceTest, ReadPastEofFailsCleanly) {
  ForEachRing([](bool ring) {
    FileDevice device;
    Open(&device, ring);
    FillPages(&device, 2);
    PageBuffer buf = AllocatePageBuffer();
    Status s = device.ReadPage(7, buf.get());
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << s.ToString();
    // The failed read does not disturb the device.
    FR_ASSERT_OK(device.ReadPage(1, buf.get()));
    EXPECT_EQ(buf.get()[0], 1);
    EXPECT_EQ(device.page_count(), 2u);
    FR_ASSERT_OK(device.Close());
  });
}

TEST(UringDeviceTest, OutOfRangeReadReportsThePage) {
  ForEachRing([](bool ring) {
    FileDevice device;
    Open(&device, ring);
    FillPages(&device, 2);
    PageBuffer buf = AllocatePageBuffer();
    Status s = device.ReadPage(static_cast<PageId>(99), buf.get());
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("99"), std::string::npos) << s.ToString();
    // Batch with one bad page: that page fails and names itself, its
    // batch-mate is read.
    std::vector<PageId> ids = {0, 99};
    PageBuffer b2 = AllocatePageBuffer();
    std::vector<uint8_t*> bufs = {buf.get(), b2.get()};
    AsyncRead got = ReadAsyncAndWait(&device, ids, bufs);
    ASSERT_EQ(got.statuses.size(), 2u);
    EXPECT_TRUE(got.statuses[0].ok()) << got.statuses[0].ToString();
    EXPECT_FALSE(got.statuses[1].ok());
    EXPECT_NE(got.statuses[1].ToString().find("99"), std::string::npos)
        << got.statuses[1].ToString();
    FR_ASSERT_OK(device.Close());
  });
}

TEST(FileDeviceTest, ODirectRoundTripWithUnalignedBounce) {
  ForEachRing([](bool ring) {
    FileDevice device;
    Open(&device, ring, /*o_direct=*/true);
    // The filesystem may refuse O_DIRECT (tmpfs does); either way the
    // device must work. Log which mode actually ran.
    std::printf("o_direct=%d ring_active=%d\n", device.o_direct(),
                device.ring_active());
    std::vector<PageId> ids = FillPages(&device, 8);
    ExpectRoundTrip(&device, ids);

    // Unaligned caller buffer: must bounce, not fail.
    std::vector<uint8_t> raw(kPageSize + 1);
    uint8_t* unaligned = raw.data() + 1;
    FR_ASSERT_OK(device.ReadPage(ids[3], unaligned));
    EXPECT_EQ(unaligned[0], 3);
    std::memset(unaligned, 0xEE, kPageSize);
    FR_ASSERT_OK(device.WritePage(ids[3], unaligned));
    PageBuffer aligned = AllocatePageBuffer();
    FR_ASSERT_OK(device.ReadPage(ids[3], aligned.get()));
    EXPECT_EQ(aligned.get()[0], 0xEE);

    // An unaligned buffer inside a contiguous batch bounces alone; its
    // aligned neighbours still transfer.
    PageBuffer before = AllocatePageBuffer();
    PageBuffer after = AllocatePageBuffer();
    std::vector<PageId> run = {ids[2], ids[3], ids[4]};
    std::vector<uint8_t*> bufs = {before.get(), unaligned, after.get()};
    std::memset(unaligned, 0, kPageSize);
    for (const Status& s : ReadAsyncAndWait(&device, run, bufs).statuses) {
      FR_ASSERT_OK(s);
    }
    EXPECT_EQ(before.get()[0], 2);
    EXPECT_EQ(unaligned[kPageSize - 1], 0xEE);
    EXPECT_EQ(after.get()[0], 4);
    if (device.o_direct()) {
      EXPECT_GE(device.stats().bounce_copies, 3u);
    }
    FR_ASSERT_OK(device.Close());
  });
}

// Extending an O_DIRECT file writes an aligned zero page (an unaligned one
// fails with EINVAL), and the extended pages survive a reopen.
TEST(FileDeviceTest, ODirectAllocateRoundTripAndReopen) {
  ForEachRing([](bool ring) {
    std::vector<PageId> ids;
    {
      FileDevice device;
      Open(&device, ring, /*o_direct=*/true);
      ids = FillPages(&device, 5);
      ExpectRoundTrip(&device, ids);
      FR_ASSERT_OK(device.Sync());
      FR_ASSERT_OK(device.Close());
    }
    FileDevice device;
    Open(&device, ring, /*o_direct=*/true);
    EXPECT_EQ(device.page_count(), 5u);
    ExpectRoundTrip(&device, ids);
    PageId id;
    FR_ASSERT_OK(device.AllocatePage(&id));
    EXPECT_EQ(id, 5u);
    PageBuffer buf = AllocatePageBuffer();
    std::memset(buf.get(), 0xAB, kPageSize);
    FR_ASSERT_OK(device.ReadPage(id, buf.get()));
    EXPECT_EQ(buf.get()[0], 0);  // a fresh page reads as zeros
    EXPECT_EQ(buf.get()[kPageSize - 1], 0);
  });
}

/// Reads a filled batch through ReadPagesAsync and checks where `done`
/// ran: on the reaper thread over the ring, inline on the caller without.
void ExpectAsyncBatchCompletes(bool ring) {
  std::remove(TempPath().c_str());
  FileDevice device;
  Open(&device, ring);
  std::vector<PageId> ids = FillPages(&device, 32);
  if (!device.ring_active()) {
    EXPECT_EQ(device.stats().sqes_submitted, 0u);
  }

  std::vector<PageBuffer> storage;
  std::vector<uint8_t*> bufs;
  for (size_t i = 0; i < ids.size(); ++i) {
    storage.push_back(AllocatePageBuffer());
    bufs.push_back(storage.back().get());
  }
  AsyncRead got = ReadAsyncAndWait(&device, ids, bufs);
  if (device.ring_active()) {
    // `done` runs on the reaper thread.
    EXPECT_NE(got.completion_thread, std::this_thread::get_id());
  } else {
    // Without the ring the default *Async path completes inline.
    EXPECT_TRUE(got.completed_inline);
    EXPECT_EQ(got.completion_thread, std::this_thread::get_id());
  }
  ASSERT_EQ(got.statuses.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(got.statuses[i].ok()) << got.statuses[i].ToString();
    EXPECT_EQ(bufs[i][0], static_cast<uint8_t>(i));
  }
  FR_ASSERT_OK(device.Close());
  std::remove(TempPath().c_str());
}

TEST(UringDeviceTest, AsyncBatchCompletesOnReaperThread) {
  ExpectAsyncBatchCompletes(/*ring=*/true);
}

// With the ring off (async_io = false) every batch, the *Async ones
// included, runs synchronously on the caller.
TEST(UringDeviceTest, ForceFallbackRunsEverythingSynchronously) {
  ExpectAsyncBatchCompletes(/*ring=*/false);
}

TEST(FileDeviceTest, AsyncOutOfRangePageReportsThePage) {
  ForEachRing([](bool ring) {
    FileDevice device;
    Open(&device, ring);
    FillPages(&device, 4);

    std::vector<PageId> ids = {0, 1, 777, 3};
    std::vector<PageBuffer> storage;
    std::vector<uint8_t*> bufs;
    for (size_t i = 0; i < ids.size(); ++i) {
      storage.push_back(AllocatePageBuffer());
      bufs.push_back(storage.back().get());
    }
    AsyncRead got = ReadAsyncAndWait(&device, ids, bufs);
    ASSERT_EQ(got.statuses.size(), 4u);
    EXPECT_FALSE(got.statuses[2].ok());
    EXPECT_NE(got.statuses[2].ToString().find("777"), std::string::npos)
        << got.statuses[2].ToString();
    for (size_t i : {0, 1, 3}) {
      // Ring or no ring, only the bad page fails.
      EXPECT_TRUE(got.statuses[i].ok()) << got.statuses[i].ToString();
    }
    FR_ASSERT_OK(device.Close());
  });
}

TEST(FileDeviceTest, MetricsExposeRingState) {
  ForEachRing([](bool ring) {
    FileDevice device;
    Open(&device, ring);
    FillPages(&device, 8);
    std::vector<MetricSample> samples;
    device.CollectMetrics(&samples);
    bool saw_active = false, saw_o_direct = false, saw_latency = false;
    for (const MetricSample& s : samples) {
      if (s.name == "fieldrep_uring_ring_active") {
        saw_active = true;
        EXPECT_EQ(s.value, device.ring_active() ? 1.0 : 0.0);
      }
      if (s.name == "fieldrep_uring_o_direct") {
        saw_o_direct = true;
        EXPECT_EQ(s.value, 0.0);
      }
      if (s.name == "fieldrep_uring_cqe_latency_ns") saw_latency = true;
    }
    EXPECT_TRUE(saw_active);
    EXPECT_TRUE(saw_o_direct);
    EXPECT_TRUE(saw_latency);
    FR_ASSERT_OK(device.Close());
  });
}

// --- Decorator transparency ---------------------------------------------------

TEST(FileDeviceTest, FaultInjectionDecoratesTheDevice) {
  ForEachRing([](bool ring) {
    FileDevice inner;
    Open(&inner, ring);
    std::vector<PageId> ids = FillPages(&inner, 6);

    FaultPlan plan;
    // The decorator inherits the per-page default batch calls, so its
    // crash semantics survive unchanged over the ring.
    FaultInjectingDevice device(&inner, &plan);

    plan.Arm(3);  // power fails after 3 durable writes
    std::vector<PageBuffer> storage;
    std::vector<const uint8_t*> bufs;
    for (size_t i = 0; i < ids.size(); ++i) {
      storage.push_back(AllocatePageBuffer());
      std::memset(storage.back().get(), 0xC0 + static_cast<int>(i), kPageSize);
      bufs.push_back(storage.back().get());
    }
    std::vector<Status> statuses = WriteAsyncAndWait(&device, ids, bufs);
    ASSERT_EQ(statuses.size(), ids.size());
    EXPECT_TRUE(statuses.front().ok()) << statuses.front().ToString();
    EXPECT_FALSE(statuses.back().ok());

    plan.Reset();  // reboot: the first 3 pages landed, the rest did not
    PageBuffer buf = AllocatePageBuffer();
    FR_ASSERT_OK(device.ReadPage(ids[0], buf.get()));
    EXPECT_EQ(buf.get()[0], 0xC0);
    FR_ASSERT_OK(device.ReadPage(ids[5], buf.get()));
    EXPECT_EQ(buf.get()[0], 5);  // original fill, crash blocked the rewrite
    FR_ASSERT_OK(inner.Close());
  });
}

TEST(FileDeviceTest, CorruptionDecoratesTheDevice) {
  ForEachRing([](bool ring) {
    FileDevice inner;
    Open(&inner, ring);
    std::vector<PageId> ids = FillPages(&inner, 3);

    CorruptingDevice device(&inner);
    FR_ASSERT_OK(device.CorruptByte(ids[1], 10, 0xFF));
    PageBuffer buf = AllocatePageBuffer();
    FR_ASSERT_OK(device.ReadPage(ids[1], buf.get()));
    EXPECT_EQ(buf.get()[10], static_cast<uint8_t>(1 ^ 0xFF));
    EXPECT_EQ(buf.get()[11], 1);  // neighbours untouched
    FR_ASSERT_OK(inner.Close());
  });
}

// --- Buffer-pool async contract under injected completion errors --------------

/// Asynchronous test double: a MemoryDevice whose batch operations
/// complete on a background thread, with injectable per-page completion
/// errors — the deterministic stand-in for an io_uring CQE error.
class AsyncFailingDevice : public MemoryDevice {
 public:
  ~AsyncFailingDevice() override {
    for (std::thread& t : threads_) t.join();
  }

  void FailPage(PageId page_id) { fail_pages_.insert(page_id); }
  void ClearFailures() { fail_pages_.clear(); }

  void ReadPagesAsync(std::vector<PageId> page_ids,
                      std::vector<uint8_t*> bufs, AsyncDone done) override {
    threads_.emplace_back([this, ids = std::move(page_ids),
                           bufs = std::move(bufs), done = std::move(done)] {
      std::vector<Status> statuses(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        statuses[i] = fail_pages_.count(ids[i]) != 0
                          ? Status::IOError(StringPrintf(
                                "injected CQE error on page %u", ids[i]))
                          : ReadPage(ids[i], bufs[i]);
      }
      done(statuses);
    });
  }

  void WritePagesAsync(std::vector<PageId> page_ids,
                       std::vector<const uint8_t*> bufs,
                       AsyncDone done) override {
    threads_.emplace_back([this, ids = std::move(page_ids),
                           bufs = std::move(bufs), done = std::move(done)] {
      std::vector<Status> statuses(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        statuses[i] = fail_pages_.count(ids[i]) != 0
                          ? Status::IOError(StringPrintf(
                                "injected CQE error on page %u", ids[i]))
                          : WritePage(ids[i], bufs[i]);
      }
      done(statuses);
    });
  }

 private:
  /// Written only while no batch is in flight (test-sequenced).
  std::set<PageId> fail_pages_;
  std::vector<std::thread> threads_;
};

std::vector<PageId> SeedPoolPages(BufferPool* pool, int n) {
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

TEST(AsyncWriteBackTest, FailedCompletionKeepsFramesDirtyAndNamesPages) {
  AsyncFailingDevice device;
  BufferPool pool(&device, 16);
  std::vector<PageId> pages = SeedPoolPages(&pool, 6);

  for (int i = 0; i < 6; ++i) {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(pages[i], &guard));
    guard.data()[4] = static_cast<uint8_t>(0xB0 + i);
    guard.MarkDirty();
  }
  pool.ResetStats();
  device.FailPage(pages[2]);

  Status s = pool.FlushAll();
  ASSERT_FALSE(s.ok());
  // The error names the failed page; frames of failed completions stay
  // dirty, successfully written ones are clean.
  EXPECT_NE(s.ToString().find(StringPrintf("%u", pages[2])),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("stay dirty"), std::string::npos)
      << s.ToString();
  std::vector<PageId> dirty = pool.DirtyPageIds();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], pages[2]);
  // Accounting: only completed pages were charged, all six went to the
  // device in one submission.
  EXPECT_EQ(pool.stats().disk_writes, 5u);
  EXPECT_EQ(pool.stats().write_batches, 1u);

  // "Repair the device" and retry: the still-dirty frame completes the
  // flush and the media holds the new bytes.
  device.ClearFailures();
  FR_ASSERT_OK(pool.FlushAll());
  EXPECT_TRUE(pool.DirtyPageIds().empty());
  EXPECT_EQ(pool.stats().disk_writes, 6u);
  FR_ASSERT_OK(pool.EvictAll());
  for (int i = 0; i < 6; ++i) {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(pages[i], &guard));
    EXPECT_EQ(guard.data()[4], static_cast<uint8_t>(0xB0 + i));
  }
}

// The destructor's final flush fails on the device's completion thread:
// the pool must report the lost pages and return, not wait for a wakeup
// that never comes.
TEST(AsyncWriteBackTest, PoolWithFailedFinalWriteBackDestroysPromptly) {
  AsyncFailingDevice device;
  auto pool = std::make_unique<BufferPool>(&device, 16);
  std::vector<PageId> pages = SeedPoolPages(pool.get(), 3);
  for (PageId page : pages) {
    PageGuard guard;
    FR_ASSERT_OK(pool->FetchPage(page, &guard));
    guard.data()[4] = 0xD0;
    guard.MarkDirty();
  }
  device.FailPage(pages[1]);

  // A hang shows as the ctest timeout; a slow return fails here.
  const auto start = std::chrono::steady_clock::now();
  pool.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  // Every page but the failed one reached the media.
  uint8_t raw[kPageSize];
  for (PageId page : {pages[0], pages[2]}) {
    FR_ASSERT_OK(device.ReadPage(page, raw));
    EXPECT_EQ(raw[4], 0xD0) << "page " << page;
  }
  FR_ASSERT_OK(device.ReadPage(pages[1], raw));
  EXPECT_NE(raw[4], 0xD0);
}

TEST(AsyncPrefetchTest, CompletionInstallsPagesWithLogicalChargeDeferred) {
  AsyncFailingDevice device;
  BufferPool pool(&device, 32);  // budget 8
  std::vector<PageId> pages = SeedPoolPages(&pool, 5);

  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(pages, &covered));
  pool.DrainAsyncIo();  // wait for the completion to install the frames
  EXPECT_EQ(pool.pages_cached(), 5u);
  EXPECT_EQ(pool.stats().read_batches, 1u);
  EXPECT_EQ(pool.stats().batched_reads, 5u);
  EXPECT_EQ(pool.stats().disk_reads, 0u);  // charge deferred to first fetch

  PageGuard guard;
  FR_ASSERT_OK(pool.FetchPage(pages[1], &guard));
  EXPECT_EQ(guard.data()[0], 1);
  EXPECT_EQ(pool.stats().disk_reads, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(AsyncPrefetchTest, FailedCompletionInstallsNothingForThatPage) {
  AsyncFailingDevice device;
  BufferPool pool(&device, 16);
  std::vector<PageId> pages = SeedPoolPages(&pool, 4);

  device.FailPage(pages[1]);
  size_t covered = 0;
  FR_ASSERT_OK(pool.ReadAhead(pages, &covered));  // no read error surface
  pool.DrainAsyncIo();
  EXPECT_EQ(pool.PeekPage(pages[1]), nullptr);
  EXPECT_NE(pool.PeekPage(pages[0]), nullptr);
  EXPECT_NE(pool.PeekPage(pages[2]), nullptr);
  EXPECT_EQ(pool.stats().batched_reads, 3u);  // only installed pages count

  // On-demand fetch of the failed page behaves as if never prefetched.
  device.ClearFailures();
  PageGuard guard;
  FR_ASSERT_OK(pool.FetchPage(pages[1], &guard));
  EXPECT_EQ(guard.data()[0], 1);
  EXPECT_EQ(pool.stats().disk_reads, 1u);
}

}  // namespace
}  // namespace fieldrep
