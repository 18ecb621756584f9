// Concurrency suite (the CI tsan lane runs exactly this file plus the
// parallel-equivalence suite): reader threads against a writer driving
// in-place replica propagation, single-flight cold fetches, shared-latch
// co-residency, and pin/guard hygiene. Assertions from worker threads are
// funneled through atomic counters; gtest macros run on the main thread.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/memory_device.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::EmployeeFixture;
using ::fieldrep::testing::ExpectCleanIntegrity;
using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;

// Eight threads cold-fetch the same page concurrently: the in-flight
// marker makes exactly one of them perform the device read, the other
// seven either wait on it or hit afterwards — the logical counters are
// deterministic under every interleaving.
TEST(ConcurrencyTest, SingleFlightColdFetchIsDeterministic) {
  MemoryDevice device;
  BufferPool pool(&device, 64);
  PageId page_id;
  {
    PageGuard guard;
    FR_ASSERT_OK(pool.NewPage(&guard));
    page_id = guard.page_id();
  }
  FR_ASSERT_OK(pool.FlushAll());
  FR_ASSERT_OK(pool.EvictAll());
  pool.ResetStats();

  constexpr int kThreads = 8;
  std::atomic<int> holding{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      PageGuard guard;
      Status s = pool.FetchPage(page_id, &guard, LatchMode::kShared);
      if (!s.ok()) {
        ++errors;
        return;
      }
      // Hold the shared latch until every thread holds it: proves shared
      // guards are concurrently holdable on one frame.
      ++holding;
      while (holding.load() < kThreads) std::this_thread::yield();
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(errors.load(), 0);
  IoStats stats = pool.stats();
  EXPECT_EQ(stats.fetches, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(pool.total_pins(), 0u);
}

// Whole-pool walks (DirtyPageIds, pages_cached, FlushAll) read every
// frame's page_id while other threads fill and evict frames. Frame
// identity is published by the in_use release store and the walks'
// acquire loads; under TSan this test is the regression net for that
// protocol (a plain page_id field here is a reportable data race).
TEST(ConcurrencyTest, PoolWalksRaceFillsWithoutTearing) {
  MemoryDevice device;
  BufferPool pool(&device, 16);  // small pool: constant eviction churn
  constexpr int kPages = 64;
  std::vector<PageId> page_ids(kPages);
  for (int i = 0; i < kPages; ++i) {
    PageGuard guard;
    FR_ASSERT_OK(pool.NewPage(&guard));
    page_ids[static_cast<size_t>(i)] = guard.page_id();
    guard.MarkDirty();
  }
  FR_ASSERT_OK(pool.FlushAll());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread walker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Every id a walk reports must be one of ours — a torn or stale
      // page_id read would surface as a stranger id (or trip TSan).
      for (PageId id : pool.DirtyPageIds()) {
        if (id >= static_cast<PageId>(kPages)) ++errors;
      }
      // pages_cached() locks the shards one at a time, so a concurrent
      // walk may double-count a frame whose page moved shards mid-scan;
      // it can read above capacity but never above the universe of pages.
      if (pool.pages_cached() > static_cast<size_t>(kPages)) ++errors;
      if (!pool.FlushAll().ok()) ++errors;
    }
  });
  std::vector<std::thread> fetchers;
  for (int t = 0; t < 4; ++t) {
    fetchers.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        const size_t slot = static_cast<size_t>((i * 7 + t * 13) % kPages);
        PageGuard guard;
        Status s = pool.FetchPage(page_ids[slot], &guard,
                                  (i % 3 == 0) ? LatchMode::kExclusive
                                               : LatchMode::kShared);
        if (s.IsFailedPrecondition()) {
          // All frames transiently pinned/referenced: the bounded clock
          // sweep gave up. Legitimate backpressure, not a bug — retry.
          std::this_thread::yield();
          --i;
          continue;
        }
        if (!s.ok()) {
          ++errors;
          break;
        }
        if (i % 3 == 0) guard.MarkDirty();
      }
    });
  }
  for (auto& f : fetchers) f.join();
  stop.store(true);
  walker.join();
  EXPECT_EQ(errors.load(), 0);
  // Quiesced, the count is exact again: residency can't exceed capacity.
  EXPECT_LE(pool.pages_cached(), 16u);
  FR_ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(pool.total_pins(), 0u);
}

/// A point at which a write batch's submitter stops until the test opens
/// it: one use, one stopped thread.
class Gate {
 public:
  /// Called by the device: blocks the calling submitter here until Open().
  void Stop() {
    std::unique_lock<std::mutex> lock(mu_);
    reached_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  /// Blocks until a submitter has stopped here.
  void WaitReached() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return reached_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool reached_ = false;
  bool open_ = false;
};

/// MemoryDevice whose page writes follow a script, for the races around
/// a write-back. Each scripted write is the next write of a given page. It
/// stops at `before` with nothing written yet (the frame is still marked
/// write-in-flight), then fails if asked. If its batch came through
/// WritePagesAsync, the submitter stops again at `after`, once the batch's
/// completion has run but before the submitter returns to act on the
/// outcome. Null gates do not stop.
class GatedWriteDevice : public MemoryDevice {
 public:
  void ScriptNextWrite(PageId page_id, bool fail, Gate* before,
                       Gate* after = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    scripts_.push_back({page_id, fail, before, after});
  }

  Status WritePage(PageId page_id, const void* buf) override {
    Script script;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = scripts_.begin(); it != scripts_.end(); ++it) {
        if (it->page_id == page_id) {
          script = *it;
          scripts_.erase(it);
          break;
        }
      }
      if (script.after != nullptr) {
        after_[std::this_thread::get_id()] = script.after;
      }
    }
    if (script.before != nullptr) script.before->Stop();
    if (script.fail) {
      return Status::IOError(
          StringPrintf("injected write failure on page %u", page_id));
    }
    return MemoryDevice::WritePage(page_id, buf);
  }

  // The default loops WritePage and completes inline on this thread.
  void WritePagesAsync(std::vector<PageId> page_ids,
                       std::vector<const uint8_t*> bufs,
                       AsyncDone done) override {
    MemoryDevice::WritePagesAsync(std::move(page_ids), std::move(bufs),
                                  std::move(done));
    Gate* after = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = after_.find(std::this_thread::get_id());
      if (it != after_.end()) {
        after = it->second;
        after_.erase(it);
      }
    }
    if (after != nullptr) after->Stop();
  }

 private:
  struct Script {
    PageId page_id = kInvalidPageId;
    bool fail = false;
    Gate* before = nullptr;
    Gate* after = nullptr;
  };
  std::mutex mu_;
  std::vector<Script> scripts_;
  std::map<std::thread::id, Gate*> after_;
};

// A writer that stores into a page while FlushAll's write of the page's
// older bytes is in flight must leave the page dirty: the flush wrote the
// bytes it staged, not the new ones, so clearing the dirty bit when the
// write lands would lose the new bytes at the next eviction.
TEST(ConcurrencyTest, WriteDuringFlushKeepsPageDirty) {
  GatedWriteDevice device;
  BufferPool pool(&device, 8);
  PageId page;
  {
    PageGuard guard;
    FR_ASSERT_OK(pool.NewPage(&guard));
    page = guard.page_id();
    guard.data()[100] = 1;
    guard.MarkDirty();
  }
  FR_ASSERT_OK(pool.FlushAll());
  {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(page, &guard));
    guard.data()[100] = 2;
    guard.MarkDirty();
  }

  Gate flush_write;
  device.ScriptNextWrite(page, /*fail=*/false, &flush_write);
  Status flush_status;
  std::thread flusher([&] { flush_status = pool.FlushAll(); });
  flush_write.WaitReached();  // byte 2 is staged, its write in flight
  {
    PageGuard guard;
    Status s = pool.FetchPage(page, &guard);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (s.ok()) {
      guard.data()[100] = 3;
      guard.MarkDirty();
    }
  }
  flush_write.Open();
  flusher.join();
  FR_ASSERT_OK(flush_status);

  EXPECT_EQ(pool.DirtyPageIds(), std::vector<PageId>{page});
  FR_ASSERT_OK(pool.EvictAll());
  PageGuard guard;
  FR_ASSERT_OK(pool.FetchPage(page, &guard, LatchMode::kShared));
  EXPECT_EQ(guard.data()[100], 3);
}

// FlushAll finds a read-ahead victim's write in flight, waits for it, and
// when that write fails writes the page back itself: every page dirty at
// FlushAll's entry is on the device at its return. The read-ahead decides
// its victim's fate only after FlushAll has claimed the frame again and
// staged it (clearing its dirty bit), and while FlushAll's own write is
// still in flight. The victim must stay resident: a fetch of its page in
// that window sees the new bytes, not the device's old ones, and no pin is
// dropped twice.
TEST(ConcurrencyTest, FlushAllWritesBackAFailedReadAheadVictim) {
  GatedWriteDevice device;
  // Four frames (a read-ahead budget of one), three of them pinned: the
  // read-ahead must evict the fourth.
  BufferPool pool(&device, 4);
  std::vector<PageId> ids(5);
  for (PageId& id : ids) {
    PageGuard guard;
    FR_ASSERT_OK(pool.NewPage(&guard));
    id = guard.page_id();
  }
  const PageId victim = ids[0];
  const PageId other = ids[1];
  FR_ASSERT_OK(pool.FlushAll());
  std::vector<PageGuard> pins(3);
  for (size_t i = 0; i < pins.size(); ++i) {
    FR_ASSERT_OK(pool.FetchPage(ids[2 + i], &pins[i], LatchMode::kShared));
  }
  {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(victim, &guard));
    guard.data()[100] = 0x22;
    guard.MarkDirty();
  }

  Gate victim_write;     // the read-ahead's write of its victim
  Gate victim_outcome;   // the read-ahead, holding that write's failure
  Gate flush_write;      // FlushAll's own write of the page
  device.ScriptNextWrite(victim, /*fail=*/true, &victim_write,
                         &victim_outcome);
  device.ScriptNextWrite(victim, /*fail=*/false, &flush_write);
  Status read_ahead_status;
  Status flush_status;
  std::thread reader([&] {
    size_t covered = 0;
    read_ahead_status =
        pool.ReadAhead(std::vector<PageId>{other}, &covered);
  });
  victim_write.WaitReached();  // the read-ahead claimed the victim
  std::thread flusher([&] { flush_status = pool.FlushAll(); });
  // Let FlushAll find the write in flight and wait on it. Were it slower,
  // it would find the failed page dirty instead: the outcome is the same.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  victim_write.Open();
  flush_write.WaitReached();  // FlushAll claimed and staged the page
  victim_outcome.Open();
  reader.join();
  EXPECT_FALSE(read_ahead_status.ok());
  {
    PageGuard guard;
    Status s = pool.FetchPage(victim, &guard, LatchMode::kShared);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (s.ok()) {
      EXPECT_EQ(guard.data()[100], 0x22);
    }
  }
  flush_write.Open();
  flusher.join();

  FR_ASSERT_OK(flush_status);
  EXPECT_TRUE(pool.DirtyPageIds().empty());
  pins.clear();
  EXPECT_EQ(pool.total_pins(), 0u);
  uint8_t raw[kPageSize];
  FR_ASSERT_OK(device.ReadPage(victim, raw));
  EXPECT_EQ(raw[100], 0x22);
}

// Guard moves transfer the pin; the source goes inert and releasing the
// destination drops the frame to zero pins.
TEST(ConcurrencyTest, PageGuardMovesLeaveSourceInert) {
  MemoryDevice device;
  BufferPool pool(&device, 8);
  PageGuard a;
  FR_ASSERT_OK(pool.NewPage(&a));
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(pool.total_pins(), 1u);
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.total_pins(), 1u);
  PageGuard c;
  c = std::move(b);
  EXPECT_FALSE(b.valid());
  ASSERT_TRUE(c.valid());
  c.Release();
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(pool.total_pins(), 0u);
}

// The headline scenario: concurrent read queries (running on the parallel
// executor) against one writer driving in-place replica propagation
// through Emp1.dept.name. Readers must always see well-formed rows — a
// replica value is either the old or the new department name, never a
// torn page — and the database must close integrity-clean with no pins
// leaked.
TEST(ConcurrencyTest, ReadersWithConcurrentReplicaPropagation) {
  auto db = OpenEmployeeDatabase();
  constexpr int kDepts = 8;
  constexpr int kEmps = 400;
  EmployeeFixture fixture = PopulateEmployees(db.get(), 2, kDepts, kEmps);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  FR_ASSERT_OK(db->BuildIndex("emp_salary", "Emp1", "salary"));
  FR_ASSERT_OK(db->SetWorkerThreads(4));

  constexpr int kReaders = 4;
  constexpr int kWriterUpdates = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::atomic<int> bad_rows{0};
  std::atomic<uint64_t> rows_read{0};

  auto reader = [&] {
    ReadQuery query;
    query.set_name = "Emp1";
    query.projections = {"name", "dept.name"};
    query.predicate =
        Predicate::Compare("salary", CompareOp::kGt, Value(int32_t{0}));
    do {
      ReadResult result;
      Status s = db->Retrieve(query, &result);
      if (!s.ok()) {
        ++reader_errors;
        return;
      }
      for (const auto& row : result.rows) {
        // Department names are "dept<j>" initially and "d-<i>" after an
        // update; anything else is a torn or misrouted replica read.
        if (row.size() != 2 || row[1].as_string().empty() ||
            row[1].as_string()[0] != 'd') {
          ++bad_rows;
        }
      }
      rows_read += result.rows.size();
    } while (!stop.load());
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) readers.emplace_back(reader);

  int writer_errors = 0;
  for (int i = 0; i < kWriterUpdates; ++i) {
    Status s = db->Update("Dept", fixture.depts[i % kDepts], "name",
                          Value("d-" + std::to_string(i)));
    if (!s.ok()) ++writer_errors;
  }
  stop.store(true);
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(writer_errors, 0);
  EXPECT_EQ(bad_rows.load(), 0);
  // Every query sees every employee: salary = 1000*k > 0 for k >= 1, and
  // the full count for each completed query.
  EXPECT_GE(rows_read.load(), static_cast<uint64_t>(kReaders * (kEmps - 1)));
  EXPECT_EQ(db->pool().total_pins(), 0u);
  FR_ASSERT_OK(db->SetWorkerThreads(1));
  ExpectCleanIntegrity(db.get());
}

// Batched eviction write-back under a concurrent writer: one writer keeps
// re-dirtying rows while two readers' stage read-ahead evicts their pages
// through a small pool. A dirty victim must stay unreachable until its
// write-back lands; if the writer could re-dirty it after staging, the
// settle would mark newer bytes clean and the update would be lost. After
// every round the pool is dropped (clean pages are simply discarded) and
// every row is checked against a value oracle, then the integrity checker
// runs.
TEST(ConcurrencyTest, ReadAheadEvictionKeepsRedirtiedPages) {
  Database::Options options;
  options.buffer_pool_frames = 48;  // read-ahead budget 12
  auto db_or = Database::Open(options);
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "ROW", {Int32Attr("key"), Int32Attr("val"), CharAttr("pad", 200)})));
  FR_ASSERT_OK(db->CreateSet("T", "ROW"));
  constexpr int kRows = 1200;  // ~70 pages through 48 frames
  std::vector<Oid> oids(kRows);
  for (int i = 0; i < kRows; ++i) {
    FR_ASSERT_OK(db->Insert(
        "T",
        Object(0, {Value(int32_t{i}), Value(int32_t{0}), Value(std::string("p"))}),
        &oids[static_cast<size_t>(i)]));
  }
  std::vector<int32_t> oracle(kRows, 0);

  ReadQuery query;
  query.set_name = std::string{"T"};
  query.projections = {"key", "val"};
  constexpr int kRounds = 3;
  constexpr int kWritesPerRound = 300;
  for (int round = 1; round <= kRounds; ++round) {
    std::atomic<bool> stop{false};
    std::atomic<int> reader_errors{0};
    auto reader = [&] {
      do {
        ReadResult result;
        if (!db->Retrieve(query, &result).ok() ||
            result.rows.size() != static_cast<size_t>(kRows)) {
          ++reader_errors;
          return;
        }
      } while (!stop.load());
    };
    std::thread r1(reader);
    std::thread r2(reader);
    int writer_errors = 0;
    for (int i = 0; i < kWritesPerRound; ++i) {
      const size_t k = static_cast<size_t>((i * 37 + round * 11) % kRows);
      const int32_t val = round * 1000 + i;
      if (!db->Update("T", oids[k], "val", Value(val)).ok()) ++writer_errors;
      oracle[k] = val;
    }
    stop.store(true);
    r1.join();
    r2.join();
    ASSERT_EQ(reader_errors.load(), 0) << "round " << round;
    ASSERT_EQ(writer_errors, 0) << "round " << round;

    // Drop the pool: what survives is exactly what reached the device.
    FR_ASSERT_OK(db->ColdStart());
    ReadResult result;
    FR_ASSERT_OK(db->Retrieve(query, &result));
    ASSERT_EQ(result.rows.size(), static_cast<size_t>(kRows));
    int lost = 0;
    for (const auto& row : result.rows) {
      const size_t key = static_cast<size_t>(row[0].as_int32());
      if (row[1].as_int32() != oracle[key]) ++lost;
    }
    EXPECT_EQ(lost, 0) << "round " << round << ": updates lost";
    ExpectCleanIntegrity(db.get());
  }
  EXPECT_GT(db->io_stats().batched_reads, 0u);
  EXPECT_EQ(db->pool().total_pins(), 0u);
}

// Pure reader scale-out: after a serial warmup, many threads issue the
// same retrieval concurrently; all of them succeed, return the full
// result, and leave no pins behind.
TEST(ConcurrencyTest, ParallelReadersLeaveNoPins) {
  auto db = OpenEmployeeDatabase();
  constexpr int kEmps = 300;
  PopulateEmployees(db.get(), 2, 6, kEmps);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));

  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name", "salary", "dept.name"};
  ReadResult warm;
  FR_ASSERT_OK(db->Retrieve(query, &warm));
  const size_t expected_rows = warm.rows.size();
  ASSERT_EQ(expected_rows, static_cast<size_t>(kEmps));

  constexpr int kThreads = 8;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        ReadResult result;
        Status s = db->Retrieve(query, &result);
        if (!s.ok() || result.rows.size() != expected_rows) {
          ++errors;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(db->pool().total_pins(), 0u);
}

// --- Concurrent embedded writers (per-set 2PL, DESIGN.md §14) -----------------

UpdateQuery WriteVal(const char* set_name, int32_t key, int32_t val) {
  UpdateQuery query;
  query.set_name = set_name;
  query.predicate = Predicate::Compare("key", CompareOp::kEq, Value(key));
  query.assignments.emplace_back("val", Value(val));
  return query;
}

/// Two embedded writer threads on sets of distinct types, fsck'd after
/// every round: the write-lock closures are disjoint singletons, so the
/// blocking acquire path must never record a conflict or a wait-or-die
/// abort, and no update may be lost across the interleavings.
TEST(ConcurrencyTest, WritersOnDisjointSetsRunConflictFree) {
  auto db_or = Database::Open({});
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  constexpr int kRowsPerSet = 6;
  for (const char* set_name : {"A", "B"}) {
    const std::string type_name = std::string("ROW") + set_name;
    FR_ASSERT_OK(db->DefineType(
        TypeDescriptor(type_name, {Int32Attr("key"), Int32Attr("val")})));
    FR_ASSERT_OK(db->CreateSet(set_name, type_name));
    for (int i = 0; i < kRowsPerSet; ++i) {
      Oid oid;
      FR_ASSERT_OK(db->Insert(
          set_name, Object(0, {Value(int32_t{i}), Value(int32_t{0})}),
          &oid));
    }
  }

  constexpr int kRounds = 4;
  constexpr int kWritesPerRound = 20;
  std::atomic<int> errors{0};
  for (int round = 1; round <= kRounds; ++round) {
    auto writer = [&, round](const char* set_name) {
      for (int i = 0; i < kWritesPerRound; ++i) {
        UpdateResult ur;
        Status s = db->Replace(
            WriteVal(set_name, i % kRowsPerSet, round * 1000 + i), &ur);
        if (!s.ok() || ur.objects_updated != 1) ++errors;
      }
    };
    std::thread ta(writer, "A");
    std::thread tb(writer, "B");
    ta.join();
    tb.join();
    ExpectCleanIntegrity(db.get());
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(db->lock_table().conflicts(), 0u);
  EXPECT_EQ(db->lock_table().aborts(), 0u);
  EXPECT_EQ(db->lock_table().held(), 0u);

  // Last writer round fully applied on both sets: no lost updates.
  for (const char* set_name : {"A", "B"}) {
    ReadQuery query;
    query.set_name = set_name;
    query.projections = {"key", "val"};
    ReadResult result;
    FR_ASSERT_OK(db->Retrieve(query, &result));
    ASSERT_EQ(result.rows.size(), static_cast<size_t>(kRowsPerSet));
    for (const auto& row : result.rows) {
      const int32_t key = row[0].as_int32();
      const int expected =
          kRounds * 1000 +
          (key < kWritesPerRound % kRowsPerSet
               ? (kWritesPerRound / kRowsPerSet) * kRowsPerSet + key
               : (kWritesPerRound / kRowsPerSet - 1) * kRowsPerSet + key);
      EXPECT_EQ(row[1].as_int32(), expected) << set_name << " key " << key;
    }
  }
}

/// Four embedded writers hammering one set: every transaction conflicts
/// on the set's X lock and the blocking acquire path serializes them.
/// Each thread owns one key, so after the dust settles each key holds its
/// writer's final value — a lost update would leave an earlier one.
TEST(ConcurrencyTest, WritersOnOneSetSerializeWithoutLostUpdates) {
  auto db_or = Database::Open({});
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  FR_ASSERT_OK(db->DefineType(
      TypeDescriptor("ROW", {Int32Attr("key"), Int32Attr("val")})));
  FR_ASSERT_OK(db->CreateSet("T", "ROW"));
  constexpr int kThreads = 4;
  for (int i = 0; i < kThreads; ++i) {
    Oid oid;
    FR_ASSERT_OK(db->Insert(
        "T", Object(0, {Value(int32_t{i}), Value(int32_t{0})}), &oid));
  }

  constexpr int kRounds = 3;
  constexpr int kWritesPerRound = 15;
  std::atomic<int> errors{0};
  for (int round = 1; round <= kRounds; ++round) {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, round, t] {
        for (int i = 1; i <= kWritesPerRound; ++i) {
          UpdateResult ur;
          Status s =
              db->Replace(WriteVal("T", t, round * 100 + i), &ur);
          if (!s.ok() || ur.objects_updated != 1) ++errors;
        }
      });
    }
    for (auto& w : writers) w.join();
    ExpectCleanIntegrity(db.get());
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(db->lock_table().held(), 0u);
  EXPECT_EQ(db->lock_table().waiters(), 0u);

  ReadQuery query;
  query.set_name = "T";
  query.projections = {"key", "val"};
  ReadResult result;
  FR_ASSERT_OK(db->Retrieve(query, &result));
  ASSERT_EQ(result.rows.size(), static_cast<size_t>(kThreads));
  for (const auto& row : result.rows) {
    EXPECT_EQ(row[1].as_int32(), kRounds * 100 + kWritesPerRound)
        << "lost update on key " << row[0].as_int32();
  }
}

}  // namespace
}  // namespace fieldrep
