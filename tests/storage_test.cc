#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "common/strings.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/memory_device.h"
#include "storage/record_file.h"
#include "storage/slotted_page.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::EmployeeFixture;

// --- Oid --------------------------------------------------------------------

TEST(OidTest, PackedRoundTrip) {
  Oid oid(3, 123456, 42);
  EXPECT_EQ(Oid::FromPacked(oid.Packed()), oid);
  EXPECT_TRUE(oid.valid());
  EXPECT_FALSE(Oid::Invalid().valid());
}

TEST(OidTest, PackedOrderIsPhysicalOrder) {
  // file, then page, then slot — the clustered order Section 4.1 relies on.
  EXPECT_LT(Oid(1, 5, 9), Oid(2, 0, 0));
  EXPECT_LT(Oid(1, 5, 9), Oid(1, 6, 0));
  EXPECT_LT(Oid(1, 5, 9), Oid(1, 5, 10));
}

// --- Devices ----------------------------------------------------------------

TEST(MemoryDeviceTest, AllocateReadWrite) {
  MemoryDevice device;
  PageId id;
  FR_ASSERT_OK(device.AllocatePage(&id));
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(device.page_count(), 1u);
  char out[kPageSize];
  char in[kPageSize];
  std::fill(in, in + kPageSize, 'x');
  FR_ASSERT_OK(device.WritePage(id, in));
  FR_ASSERT_OK(device.ReadPage(id, out));
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
}

TEST(MemoryDeviceTest, RejectsUnallocatedAccess) {
  MemoryDevice device;
  char buf[kPageSize];
  EXPECT_FALSE(device.ReadPage(5, buf).ok());
  EXPECT_FALSE(device.WritePage(5, buf).ok());
}

// --- Slotted page -----------------------------------------------------------

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : page_(data_) { SlottedPage::Init(data_, PageType::kHeap); }
  uint8_t data_[kPageSize] = {};
  SlottedPage page_;
};

TEST_F(SlottedPageTest, InitState) {
  EXPECT_EQ(page_.page_type(), PageType::kHeap);
  EXPECT_EQ(page_.slot_count(), 0);
  EXPECT_EQ(page_.live_count(), 0);
  EXPECT_EQ(page_.next_page(), kInvalidPageId);
  EXPECT_EQ(page_.FreeSpace(), kUserBytesPerPage);
}

TEST_F(SlottedPageTest, InsertRead) {
  int slot = page_.Insert("hello world");
  ASSERT_GE(slot, 0);
  std::string out;
  ASSERT_TRUE(page_.ReadString(slot, &out));
  EXPECT_EQ(out, "hello world");
  EXPECT_EQ(page_.live_count(), 1);
}

TEST_F(SlottedPageTest, DeleteTombstonesAndReusesSlot) {
  int a = page_.Insert("aaa");
  int b = page_.Insert("bbb");
  ASSERT_TRUE(page_.Delete(a));
  EXPECT_FALSE(page_.IsLive(a));
  EXPECT_TRUE(page_.IsLive(b));
  int c = page_.Insert("ccc");
  EXPECT_EQ(c, a);  // tombstoned slot reused
  std::string out;
  ASSERT_TRUE(page_.ReadString(c, &out));
  EXPECT_EQ(out, "ccc");
}

TEST_F(SlottedPageTest, UpdateShrinkGrowInPlace) {
  int slot = page_.Insert(std::string(100, 'a'));
  ASSERT_TRUE(page_.Update(slot, std::string(50, 'b')));
  std::string out;
  ASSERT_TRUE(page_.ReadString(slot, &out));
  EXPECT_EQ(out, std::string(50, 'b'));
  ASSERT_TRUE(page_.Update(slot, std::string(200, 'c')));
  ASSERT_TRUE(page_.ReadString(slot, &out));
  EXPECT_EQ(out, std::string(200, 'c'));
}

TEST_F(SlottedPageTest, FillsToCapacityAndCompacts) {
  // Fill with 100-byte records until full.
  std::vector<int> slots;
  while (true) {
    int slot = page_.Insert(std::string(100, 'x'));
    if (slot < 0) break;
    slots.push_back(slot);
  }
  // 4056 / 104 = 39 records.
  EXPECT_EQ(slots.size(), kUserBytesPerPage / 104);
  // Delete every other record, then insert larger ones into the holes —
  // possible only via compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page_.Delete(slots[i]));
  }
  int grown = page_.Insert(std::string(150, 'y'));
  EXPECT_GE(grown, 0);
  std::string out;
  ASSERT_TRUE(page_.ReadString(grown, &out));
  EXPECT_EQ(out, std::string(150, 'y'));
  // Survivors intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    ASSERT_TRUE(page_.ReadString(slots[i], &out));
    EXPECT_EQ(out, std::string(100, 'x'));
  }
}

TEST_F(SlottedPageTest, GrowBeyondSpaceFails) {
  int slot = page_.Insert(std::string(4000, 'x'));
  ASSERT_GE(slot, 0);
  EXPECT_FALSE(page_.Update(slot, std::string(4100, 'y')));
}

TEST(SlottedPagePropertyTest, RandomOpsMatchShadowModel) {
  uint8_t data[kPageSize];
  SlottedPage::Init(data, PageType::kHeap);
  SlottedPage page(data);
  std::map<int, std::string> shadow;
  Random rng(2024);
  for (int step = 0; step < 3000; ++step) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 5) {  // insert
      std::string payload(10 + rng.Uniform(120), 'a' + step % 26);
      int slot = page.Insert(payload);
      if (slot >= 0) {
        ASSERT_EQ(shadow.count(slot), 0u) << "live slot reissued";
        shadow[slot] = payload;
      }
    } else if (action < 8 && !shadow.empty()) {  // update
      auto it = shadow.begin();
      std::advance(it, rng.Uniform(shadow.size()));
      std::string payload(10 + rng.Uniform(150), 'A' + step % 26);
      if (page.Update(it->first, payload)) it->second = payload;
    } else if (!shadow.empty()) {  // delete
      auto it = shadow.begin();
      std::advance(it, rng.Uniform(shadow.size()));
      ASSERT_TRUE(page.Delete(it->first));
      shadow.erase(it);
    }
    // Verify all shadow records every 100 steps (cheap enough).
    if (step % 100 == 0) {
      for (const auto& [slot, expected] : shadow) {
        std::string out;
        ASSERT_TRUE(page.ReadString(slot, &out));
        ASSERT_EQ(out, expected);
      }
      ASSERT_EQ(page.live_count(), shadow.size());
    }
  }
}

// --- Buffer pool -------------------------------------------------------------

TEST(BufferPoolTest, NewPageAndFetch) {
  MemoryDevice device;
  BufferPool pool(&device, 4);
  PageGuard guard;
  FR_ASSERT_OK(pool.NewPage(&guard));
  PageId id = guard.page_id();
  guard.data()[0] = 0x5A;
  guard.MarkDirty();
  guard.Release();
  PageGuard again;
  FR_ASSERT_OK(pool.FetchPage(id, &again));
  EXPECT_EQ(again.data()[0], 0x5A);
  EXPECT_EQ(pool.stats().hits, 1u);  // still cached
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  MemoryDevice device;
  BufferPool pool(&device, 2);
  std::vector<PageId> pages;
  for (int i = 0; i < 6; ++i) {
    PageGuard guard;
    FR_ASSERT_OK(pool.NewPage(&guard));
    guard.data()[0] = static_cast<uint8_t>(i);
    guard.MarkDirty();
    pages.push_back(guard.page_id());
  }
  // All six pages must read back correctly despite only 2 frames.
  for (int i = 0; i < 6; ++i) {
    PageGuard guard;
    FR_ASSERT_OK(pool.FetchPage(pages[i], &guard));
    EXPECT_EQ(guard.data()[0], static_cast<uint8_t>(i));
  }
  EXPECT_GT(pool.stats().disk_writes, 0u);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  MemoryDevice device;
  BufferPool pool(&device, 2);
  PageGuard pinned1, pinned2;
  FR_ASSERT_OK(pool.NewPage(&pinned1));
  FR_ASSERT_OK(pool.NewPage(&pinned2));
  PageGuard third;
  Status s = pool.NewPage(&third);
  EXPECT_FALSE(s.ok());  // every frame pinned
  pinned1.Release();
  FR_ASSERT_OK(pool.NewPage(&third));
}

TEST(BufferPoolTest, EvictAllColdStart) {
  MemoryDevice device;
  BufferPool pool(&device, 8);
  PageGuard guard;
  FR_ASSERT_OK(pool.NewPage(&guard));
  PageId id = guard.page_id();
  guard.MarkDirty();
  guard.Release();
  FR_ASSERT_OK(pool.EvictAll());
  EXPECT_EQ(pool.pages_cached(), 0u);
  pool.ResetStats();
  PageGuard again;
  FR_ASSERT_OK(pool.FetchPage(id, &again));
  EXPECT_EQ(pool.stats().disk_reads, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(BufferPoolTest, EvictAllFailsWithPins) {
  MemoryDevice device;
  BufferPool pool(&device, 4);
  PageGuard guard;
  FR_ASSERT_OK(pool.NewPage(&guard));
  EXPECT_FALSE(pool.EvictAll().ok());
  guard.Release();
  FR_ASSERT_OK(pool.EvictAll());
}

TEST(BufferPoolTest, GuardMoveSemantics) {
  MemoryDevice device;
  BufferPool pool(&device, 4);
  PageGuard a;
  FR_ASSERT_OK(pool.NewPage(&a));
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.Release();
  EXPECT_EQ(pool.total_pins(), 0u);
}

TEST(BufferPoolPropertyTest, RandomWorkloadMatchesShadow) {
  MemoryDevice device;
  BufferPool pool(&device, 8);
  Random rng(77);
  std::map<PageId, uint8_t> shadow;
  for (int step = 0; step < 2000; ++step) {
    if (shadow.empty() || rng.Bernoulli(0.2)) {
      PageGuard guard;
      ASSERT_TRUE(pool.NewPage(&guard).ok());
      uint8_t stamp = static_cast<uint8_t>(rng.Uniform(256));
      guard.data()[17] = stamp;
      guard.MarkDirty();
      shadow[guard.page_id()] = stamp;
    } else {
      auto it = shadow.begin();
      std::advance(it, rng.Uniform(shadow.size()));
      PageGuard guard;
      ASSERT_TRUE(pool.FetchPage(it->first, &guard).ok());
      ASSERT_EQ(guard.data()[17], it->second);
      if (rng.Bernoulli(0.5)) {
        uint8_t stamp = static_cast<uint8_t>(rng.Uniform(256));
        guard.data()[17] = stamp;
        guard.MarkDirty();
        it->second = stamp;
      }
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  // Validate directly against the device.
  for (const auto& [page, stamp] : shadow) {
    uint8_t buf[kPageSize];
    ASSERT_TRUE(device.ReadPage(page, buf).ok());
    ASSERT_EQ(buf[17], stamp);
  }
}

// --- Record file --------------------------------------------------------------

class RecordFileTest : public ::testing::Test {
 protected:
  RecordFileTest() : pool_(&device_, 64), file_(&pool_, 7) {}
  MemoryDevice device_;
  BufferPool pool_;
  RecordFile file_;
};

TEST_F(RecordFileTest, InsertReadDelete) {
  Oid oid;
  FR_ASSERT_OK(file_.Insert("record one", &oid));
  EXPECT_EQ(oid.file_id, 7);
  std::string out;
  FR_ASSERT_OK(file_.Read(oid, &out));
  EXPECT_EQ(out, "record one");
  EXPECT_EQ(file_.record_count(), 1u);
  FR_ASSERT_OK(file_.Delete(oid));
  EXPECT_EQ(file_.record_count(), 0u);
  EXPECT_TRUE(file_.Read(oid, &out).IsNotFound());
}

TEST_F(RecordFileTest, CellOutsideCellAreaIsCorruption) {
  Oid first, second;
  FR_ASSERT_OK(file_.Insert("record one", &first));
  FR_ASSERT_OK(file_.Insert("record two", &second));
  ASSERT_EQ(first.page_id, second.page_id);
  {
    // Slot 0's cell now starts at the page's last byte and runs off the
    // end; slot 1's starts inside the slot directory.
    PageGuard guard;
    FR_ASSERT_OK(pool_.FetchPage(first.page_id, &guard));
    EncodeU16(guard.data() + kPageHeaderBytes, 4095);
    EncodeU16(guard.data() + kPageHeaderBytes + 4, kPageHeaderBytes);
    guard.MarkDirty();
  }
  std::string out;
  for (const Oid& oid : {first, second}) {
    Status s = file_.Read(oid, &out);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find(StringPrintf("page %u slot %u", oid.page_id,
                                             oid.slot)),
              std::string::npos)
        << s.ToString();
    EXPECT_TRUE(file_.Update(oid, "new").IsCorruption());
    EXPECT_TRUE(file_.Delete(oid).IsCorruption());
  }
}

TEST_F(RecordFileTest, InsertionOrderIsScanOrder) {
  std::vector<Oid> oids;
  for (int i = 0; i < 500; ++i) {
    Oid oid;
    FR_ASSERT_OK(file_.Insert(StringPrintf("rec%04d", i), &oid));
    oids.push_back(oid);
  }
  EXPECT_GT(file_.page_count(), 1u);
  std::vector<Oid> scanned;
  FR_ASSERT_OK(file_.ListOids(&scanned));
  EXPECT_EQ(scanned, oids);
  // Physical order: OIDs ascend.
  for (size_t i = 1; i < oids.size(); ++i) EXPECT_LT(oids[i - 1], oids[i]);
}

TEST_F(RecordFileTest, UpdateInPlace) {
  Oid oid;
  FR_ASSERT_OK(file_.Insert(std::string(50, 'a'), &oid));
  FR_ASSERT_OK(file_.Update(oid, std::string(60, 'b')));
  std::string out;
  FR_ASSERT_OK(file_.Read(oid, &out));
  EXPECT_EQ(out, std::string(60, 'b'));
}

TEST_F(RecordFileTest, UpdateRelocatesWithStableOid) {
  // Fill a page, then grow one record far beyond the page's free space.
  std::vector<Oid> oids;
  for (int i = 0; i < 39; ++i) {
    Oid oid;
    FR_ASSERT_OK(file_.Insert(std::string(100, 'x'), &oid));
    oids.push_back(oid);
  }
  Oid victim = oids[5];
  FR_ASSERT_OK(file_.Update(victim, std::string(2000, 'y')));
  std::string out;
  FR_ASSERT_OK(file_.Read(victim, &out));
  EXPECT_EQ(out, std::string(2000, 'y'));
  // Update the relocated record again (in place at its new home).
  FR_ASSERT_OK(file_.Update(victim, std::string(2100, 'z')));
  FR_ASSERT_OK(file_.Read(victim, &out));
  EXPECT_EQ(out, std::string(2100, 'z'));
  // Scan still shows exactly one record for the victim, with its logical
  // OID.
  std::vector<Oid> scanned;
  FR_ASSERT_OK(file_.ListOids(&scanned));
  EXPECT_EQ(scanned.size(), oids.size());
  EXPECT_EQ(std::count(scanned.begin(), scanned.end(), victim), 1);
  // Delete reclaims both stub and body.
  uint64_t before = file_.record_count();
  FR_ASSERT_OK(file_.Delete(victim));
  EXPECT_EQ(file_.record_count(), before - 1);
  EXPECT_TRUE(file_.Read(victim, &out).IsNotFound());
}

TEST_F(RecordFileTest, RejectsReservedPrefix) {
  std::string evil;
  evil.push_back('\xFF');
  evil.push_back('\xFF');
  evil += "payload";
  Oid oid;
  EXPECT_FALSE(file_.Insert(evil, &oid).ok());
}

TEST_F(RecordFileTest, TruncateEmptiesFile) {
  for (int i = 0; i < 100; ++i) {
    Oid oid;
    FR_ASSERT_OK(file_.Insert("data", &oid));
  }
  FR_ASSERT_OK(file_.Truncate());
  EXPECT_EQ(file_.record_count(), 0u);
  EXPECT_EQ(file_.page_count(), 0u);
  std::vector<Oid> oids;
  FR_ASSERT_OK(file_.ListOids(&oids));
  EXPECT_TRUE(oids.empty());
}

TEST_F(RecordFileTest, MetadataRoundTrip) {
  for (int i = 0; i < 50; ++i) {
    Oid oid;
    FR_ASSERT_OK(file_.Insert("payload", &oid));
  }
  std::string encoded = file_.EncodeMetadata();
  RecordFile reopened(&pool_, 7);
  FR_ASSERT_OK(reopened.DecodeMetadata(encoded));
  EXPECT_EQ(reopened.record_count(), 50u);
  EXPECT_EQ(reopened.page_count(), file_.page_count());
  std::vector<Oid> oids;
  FR_ASSERT_OK(reopened.ListOids(&oids));
  EXPECT_EQ(oids.size(), 50u);
}

TEST_F(RecordFileTest, RandomOpsMatchShadow) {
  Random rng(31337);
  std::map<uint64_t, std::string> shadow;
  std::vector<Oid> live;
  for (int step = 0; step < 4000; ++step) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 5 || live.empty()) {
      std::string payload(1 + rng.Uniform(300), 'a' + step % 26);
      Oid oid;
      ASSERT_TRUE(file_.Insert(payload, &oid).ok());
      shadow[oid.Packed()] = payload;
      live.push_back(oid);
    } else if (action < 8) {
      size_t pick = rng.Uniform(live.size());
      std::string payload(1 + rng.Uniform(600), 'A' + step % 26);
      ASSERT_TRUE(file_.Update(live[pick], payload).ok());
      shadow[live[pick].Packed()] = payload;
    } else {
      size_t pick = rng.Uniform(live.size());
      ASSERT_TRUE(file_.Delete(live[pick]).ok());
      shadow.erase(live[pick].Packed());
      live.erase(live.begin() + pick);
    }
  }
  ASSERT_EQ(file_.record_count(), shadow.size());
  for (const auto& [packed, expected] : shadow) {
    std::string out;
    ASSERT_TRUE(file_.Read(Oid::FromPacked(packed), &out).ok());
    ASSERT_EQ(out, expected);
  }
  // Scan agrees with shadow.
  std::map<uint64_t, std::string> scanned;
  ASSERT_TRUE(file_
                  .Scan([&](const Oid& oid, const std::string& payload) {
                    scanned[oid.Packed()] = payload;
                    return true;
                  })
                  .ok());
  ASSERT_EQ(scanned, shadow);
}

TEST_F(RecordFileTest, FreeSpaceHintsRefillPages) {
  // Fill several pages, delete most records, and insert again: the file
  // should reuse the holes instead of growing.
  std::vector<Oid> oids;
  for (int i = 0; i < 300; ++i) {
    Oid oid;
    FR_ASSERT_OK(file_.Insert(std::string(100, 'x'), &oid));
    oids.push_back(oid);
  }
  uint32_t pages_before = file_.page_count();
  for (size_t i = 0; i < oids.size(); i += 2) {
    FR_ASSERT_OK(file_.Delete(oids[i]));
  }
  for (int i = 0; i < 100; ++i) {
    Oid oid;
    FR_ASSERT_OK(file_.Insert(std::string(100, 'y'), &oid));
  }
  EXPECT_EQ(file_.page_count(), pages_before);
}

TEST_F(RecordFileTest, GrowthReserveLeavesRoomForGrowth) {
  file_.set_growth_reserve(30);
  std::vector<Oid> oids;
  for (int i = 0; i < 200; ++i) {
    Oid oid;
    FR_ASSERT_OK(file_.Insert(std::string(100, 'x'), &oid));
    oids.push_back(oid);
  }
  // Every record can grow by the reserve without relocating: after the
  // growth each record still reads back and no forwarding stub was needed
  // (scan order stays identical to insert order).
  for (const Oid& oid : oids) {
    FR_ASSERT_OK(file_.Update(oid, std::string(130, 'y')));
  }
  std::vector<Oid> scanned;
  FR_ASSERT_OK(file_.ListOids(&scanned));
  EXPECT_EQ(scanned, oids);
  // Packing matches the model: floor(4056 / (100 + 4 + 30)) = 30 per page.
  EXPECT_EQ(file_.page_count(), (200 + 29) / 30);
}

TEST(IoStatsTest, DiffAndToString) {
  IoStats a;
  a.fetches = 10;
  a.hits = 4;
  a.disk_reads = 6;
  a.disk_writes = 2;
  IoStats b;
  b.fetches = 3;
  b.hits = 1;
  b.disk_reads = 2;
  b.disk_writes = 1;
  IoStats d = a - b;
  EXPECT_EQ(d.fetches, 7u);
  EXPECT_EQ(d.disk_reads, 4u);
  EXPECT_EQ(d.TotalIo(), 5u);
  EXPECT_NE(a.ToString().find("reads=6"), std::string::npos);
}

}  // namespace
}  // namespace fieldrep
