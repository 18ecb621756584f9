#include <cstring>
#include <string>
#include <vector>

#include "storage/fault_injecting_device.h"
#include "storage/file_device.h"
#include "storage/memory_device.h"
#include "test_util.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"
#include "wal/recovery_manager.h"
#include "wal/wal_manager.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::ExpectCleanIntegrity;
using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;
using ::fieldrep::testing::TraversePath;

// ---------------------------------------------------------------------------
// Record wire format
// ---------------------------------------------------------------------------

TEST(Crc32Test, MatchesIeeeCheckValue) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(LogRecordTest, PageWriteRoundtrip) {
  LogRecord rec;
  rec.type = LogRecordType::kPageWrite;
  rec.epoch = 7;
  rec.txn_id = 42;
  rec.page_id = 9;
  rec.offset = 100;
  rec.bytes = std::string(33, 'x');

  std::string wire;
  rec.AppendTo(&wire);
  ASSERT_EQ(wire.size(), rec.WireSize());

  LogRecord parsed;
  ASSERT_TRUE(LogRecord::ParseBody(
      reinterpret_cast<const uint8_t*>(wire.data()) + 8, wire.size() - 8,
      &parsed));
  EXPECT_EQ(parsed.type, LogRecordType::kPageWrite);
  EXPECT_EQ(parsed.epoch, 7u);
  EXPECT_EQ(parsed.txn_id, 42u);
  EXPECT_EQ(parsed.page_id, 9u);
  EXPECT_EQ(parsed.offset, 100u);
  EXPECT_EQ(parsed.bytes, rec.bytes);
}

TEST(LogRecordTest, RejectsMalformedBodies) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = 1;
  std::string wire;
  rec.AppendTo(&wire);
  uint8_t* body = reinterpret_cast<uint8_t*>(wire.data()) + 8;
  size_t body_len = wire.size() - 8;

  LogRecord parsed;
  ASSERT_TRUE(LogRecord::ParseBody(body, body_len, &parsed));
  // Invalid type byte (after the u64 epoch).
  body[8] = 99;
  EXPECT_FALSE(LogRecord::ParseBody(body, body_len, &parsed));
  body[8] = 0;
  EXPECT_FALSE(LogRecord::ParseBody(body, body_len, &parsed));
  // Truncated body.
  body[8] = static_cast<uint8_t>(LogRecordType::kCommit);
  EXPECT_FALSE(LogRecord::ParseBody(body, body_len - 1, &parsed));
}

TEST(LogRecordTest, RejectsOutOfPageRanges) {
  LogRecord rec;
  rec.type = LogRecordType::kPageWrite;
  rec.txn_id = 1;
  rec.page_id = 1;
  rec.offset = kPageSize - 8;
  rec.bytes = std::string(16, 'y');  // offset + length > kPageSize
  std::string wire;
  rec.AppendTo(&wire);
  LogRecord parsed;
  EXPECT_FALSE(LogRecord::ParseBody(
      reinterpret_cast<const uint8_t*>(wire.data()) + 8, wire.size() - 8,
      &parsed));
}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

LogRecord MakeWrite(uint64_t txn, PageId page, uint32_t offset,
                    const std::string& bytes) {
  LogRecord rec;
  rec.type = LogRecordType::kPageWrite;
  rec.txn_id = txn;
  rec.page_id = page;
  rec.offset = offset;
  rec.bytes = bytes;
  return rec;
}

TEST(LogWriterReaderTest, RoundtripAcrossPageBoundaries) {
  MemoryDevice device;
  LogWriter writer(&device);
  FR_ASSERT_OK(writer.Reset(1));

  // Payloads near page size force records to straddle page boundaries.
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    FR_ASSERT_OK(writer.Append(
        MakeWrite(i, i, i * 3, std::string(3000 + i * 17, 'a' + i % 26))));
  }
  FR_ASSERT_OK(writer.Sync());
  EXPECT_EQ(writer.durable_lsn(), writer.next_lsn());
  EXPECT_EQ(writer.records_appended(), static_cast<uint64_t>(n));

  LogReader reader(&device);
  bool valid = false;
  FR_ASSERT_OK(reader.Open(&valid));
  ASSERT_TRUE(valid);
  EXPECT_EQ(reader.epoch(), 1u);
  for (int i = 0; i < n; ++i) {
    LogRecord rec;
    bool end = true;
    FR_ASSERT_OK(reader.ReadNext(&rec, &end));
    ASSERT_FALSE(end) << "record " << i;
    EXPECT_EQ(rec.txn_id, static_cast<uint64_t>(i));
    EXPECT_EQ(rec.page_id, static_cast<PageId>(i));
    EXPECT_EQ(rec.bytes.size(), 3000u + i * 17);
  }
  LogRecord rec;
  bool end = false;
  FR_ASSERT_OK(reader.ReadNext(&rec, &end));
  EXPECT_TRUE(end);
}

TEST(LogWriterReaderTest, ReaderStopsAtCorruption) {
  MemoryDevice device;
  LogWriter writer(&device);
  FR_ASSERT_OK(writer.Reset(3));
  for (int i = 0; i < 6; ++i) {
    FR_ASSERT_OK(writer.Append(MakeWrite(i, 1, 0, std::string(200, 'z'))));
  }
  FR_ASSERT_OK(writer.Sync());

  // Flip one byte in the middle of the stream (page 1 holds the first
  // few records).
  uint8_t page[kPageSize];
  FR_ASSERT_OK(device.ReadPage(1, page));
  page[700] ^= 0xFF;
  FR_ASSERT_OK(device.WritePage(1, page));

  LogReader reader(&device);
  bool valid = false;
  FR_ASSERT_OK(reader.Open(&valid));
  ASSERT_TRUE(valid);
  int read = 0;
  while (true) {
    LogRecord rec;
    bool end = true;
    FR_ASSERT_OK(reader.ReadNext(&rec, &end));
    if (end) break;
    ++read;
  }
  EXPECT_LT(read, 6);  // the scan stopped at the corrupt record, cleanly
}

TEST(LogWriterReaderTest, EpochResetLogicallyTruncates) {
  MemoryDevice device;
  LogWriter writer(&device);
  FR_ASSERT_OK(writer.Reset(1));
  for (int i = 0; i < 20; ++i) {
    FR_ASSERT_OK(writer.Append(MakeWrite(i, 1, 0, std::string(500, 'o'))));
  }
  FR_ASSERT_OK(writer.Sync());

  // New epoch: the stream restarts at LSN 0; the device is NOT truncated,
  // stale epoch-1 bytes remain beyond the new tail.
  FR_ASSERT_OK(writer.Reset(2));
  FR_ASSERT_OK(writer.Append(MakeWrite(100, 2, 8, "fresh")));
  FR_ASSERT_OK(writer.Sync());

  LogReader reader(&device);
  bool valid = false;
  FR_ASSERT_OK(reader.Open(&valid));
  ASSERT_TRUE(valid);
  EXPECT_EQ(reader.epoch(), 2u);
  LogRecord rec;
  bool end = true;
  FR_ASSERT_OK(reader.ReadNext(&rec, &end));
  ASSERT_FALSE(end);
  EXPECT_EQ(rec.txn_id, 100u);
  EXPECT_EQ(rec.bytes, "fresh");
  FR_ASSERT_OK(reader.ReadNext(&rec, &end));
  EXPECT_TRUE(end);  // stale epoch-1 records are invisible
}

TEST(LogReaderTest, EmptyOrForeignDeviceIsNotALog) {
  MemoryDevice empty;
  LogReader reader(&empty);
  bool valid = true;
  FR_ASSERT_OK(reader.Open(&valid));
  EXPECT_FALSE(valid);

  MemoryDevice garbage;
  PageId id;
  FR_ASSERT_OK(garbage.AllocatePage(&id));
  uint8_t page[kPageSize];
  std::memset(page, 0xAB, sizeof(page));
  FR_ASSERT_OK(garbage.WritePage(0, page));
  LogReader reader2(&garbage);
  valid = true;
  FR_ASSERT_OK(reader2.Open(&valid));
  EXPECT_FALSE(valid);
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

TEST(RecoveryTest, AppliesCommittedSkipsUncommitted) {
  MemoryDevice db;
  // Two pages of known content.
  for (int i = 0; i < 2; ++i) {
    PageId id;
    FR_ASSERT_OK(db.AllocatePage(&id));
  }
  uint8_t page[kPageSize];
  std::memset(page, 0x11, sizeof(page));
  FR_ASSERT_OK(db.WritePage(0, page));
  FR_ASSERT_OK(db.WritePage(1, page));

  MemoryDevice log;
  LogWriter writer(&log);
  FR_ASSERT_OK(writer.Reset(5));
  // Txn 1 commits: writes "AAAA" at offset 10 of page 0, and extends the
  // device with page 2.
  LogRecord begin;
  begin.type = LogRecordType::kBegin;
  begin.txn_id = 1;
  FR_ASSERT_OK(writer.Append(begin));
  FR_ASSERT_OK(writer.Append(MakeWrite(1, 0, 10, "AAAA")));
  FR_ASSERT_OK(writer.Append(MakeWrite(1, 2, 0, "NEWPAGE")));
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn_id = 1;
  FR_ASSERT_OK(writer.Append(commit));
  // Txn 2 never commits: its write must not be applied.
  begin.txn_id = 2;
  FR_ASSERT_OK(writer.Append(begin));
  FR_ASSERT_OK(writer.Append(MakeWrite(2, 1, 0, "LOST")));
  FR_ASSERT_OK(writer.Sync());

  RecoveryStats stats;
  FR_ASSERT_OK(RecoveryManager::Recover(&db, &log, &stats));
  EXPECT_TRUE(stats.log_found);
  EXPECT_EQ(stats.epoch, 5u);
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.skipped_txns, 1u);
  EXPECT_EQ(stats.pages_written, 2u);

  FR_ASSERT_OK(db.ReadPage(0, page));
  EXPECT_EQ(std::memcmp(page + 10, "AAAA", 4), 0);
  EXPECT_EQ(page[9], 0x11);
  EXPECT_EQ(page[14], 0x11);
  FR_ASSERT_OK(db.ReadPage(1, page));
  EXPECT_EQ(page[0], 0x11);  // uncommitted write discarded
  ASSERT_EQ(db.page_count(), 3u);
  FR_ASSERT_OK(db.ReadPage(2, page));
  EXPECT_EQ(std::memcmp(page, "NEWPAGE", 7), 0);

  // Replay is idempotent: recovering again changes nothing.
  RecoveryStats again;
  FR_ASSERT_OK(RecoveryManager::Recover(&db, &log, &again));
  EXPECT_EQ(again.committed_txns, 1u);
  FR_ASSERT_OK(db.ReadPage(0, page));
  EXPECT_EQ(std::memcmp(page + 10, "AAAA", 4), 0);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjectingDeviceTest, CrashesAfterBudgetAndRevivesOnReset) {
  MemoryDevice base;
  FaultPlan plan;
  FaultInjectingDevice device(&base, &plan);

  PageId id;
  FR_ASSERT_OK(device.AllocatePage(&id));  // unarmed: passes
  uint8_t page[kPageSize];
  std::memset(page, 1, sizeof(page));
  FR_ASSERT_OK(device.WritePage(0, page));

  plan.Arm(2);
  FR_ASSERT_OK(device.WritePage(0, page));   // op 1
  EXPECT_FALSE(device.Sync().ok());          // op 2 trips the crash
  EXPECT_TRUE(plan.crashed);
  EXPECT_FALSE(device.WritePage(0, page).ok());  // machine is down
  EXPECT_FALSE(device.ReadPage(0, page).ok());
  EXPECT_FALSE(device.AllocatePage(&id).ok());

  plan.Reset();  // reboot: surviving data is intact
  FR_ASSERT_OK(device.ReadPage(0, page));
  EXPECT_EQ(page[0], 1);
  FR_ASSERT_OK(device.WritePage(0, page));
}

TEST(FaultInjectingDeviceTest, TornWritePersistsFirstHalfOnly) {
  MemoryDevice base;
  FaultPlan plan;
  FaultInjectingDevice device(&base, &plan);
  PageId id;
  FR_ASSERT_OK(device.AllocatePage(&id));
  uint8_t old_page[kPageSize];
  std::memset(old_page, 0xAA, sizeof(old_page));
  FR_ASSERT_OK(device.WritePage(0, old_page));

  plan.Arm(1, /*torn=*/true);
  uint8_t new_page[kPageSize];
  std::memset(new_page, 0xBB, sizeof(new_page));
  EXPECT_FALSE(device.WritePage(0, new_page).ok());
  EXPECT_TRUE(plan.crashed);

  plan.Reset();
  uint8_t got[kPageSize];
  FR_ASSERT_OK(device.ReadPage(0, got));
  EXPECT_EQ(got[0], 0xBB);                  // first half: new bytes
  EXPECT_EQ(got[kPageSize / 2 - 1], 0xBB);
  EXPECT_EQ(got[kPageSize / 2], 0xAA);      // second half: old bytes
  EXPECT_EQ(got[kPageSize - 1], 0xAA);
}

// ---------------------------------------------------------------------------
// WAL-enabled database
// ---------------------------------------------------------------------------

Database::Options WalMemoryOptions(StorageDevice* disk, StorageDevice* log,
                                   bool sync_on_commit = true) {
  Database::Options options;
  options.buffer_pool_frames = 512;
  options.device = disk;
  options.wal_device = log;
  options.enable_wal = true;
  options.wal_sync_on_commit = sync_on_commit;
  return options;
}

TEST(WalDatabaseTest, NormalOperationsWorkAndCommitTransactions) {
  MemoryDevice disk, log;
  auto db_or = Database::Open(WalMemoryOptions(&disk, &log));
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  ASSERT_NE(db->wal(), nullptr);

  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
  FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
  Oid dept;
  FR_ASSERT_OK(db->Insert(
      "Dept", Object(0, {Value("sales"), Value(int32_t{100})}), &dept));
  FR_ASSERT_OK(db->Update("Dept", dept, "budget", Value(int32_t{250})));

  const WalStats& stats = db->wal()->stats();
  EXPECT_GE(stats.transactions, 2u);  // insert + update at minimum
  EXPECT_GT(stats.records, 0u);
  EXPECT_GT(stats.delta_bytes, 0u);
  EXPECT_FALSE(db->wal()->broken());

  Object got;
  FR_ASSERT_OK(db->Get("Dept", dept, &got));
  EXPECT_EQ(got.field(1).as_int32(), 250);
}

TEST(WalDatabaseTest, CommittedStateSurvivesCrashWithoutCheckpoint) {
  MemoryDevice disk, log;
  FaultPlan plan;
  FaultInjectingDevice db_dev(&disk, &plan);
  FaultInjectingDevice log_dev(&log, &plan);
  Oid dept;
  {
    auto db_or = Database::Open(WalMemoryOptions(&db_dev, &log_dev));
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->Insert(
        "Dept", Object(0, {Value("sales"), Value(int32_t{100})}), &dept));
    FR_ASSERT_OK(db->Update("Dept", dept, "budget", Value(int32_t{777})));
    // Crash NOW: no Checkpoint ran, no data page was ever flushed — the
    // committed state exists only in the log. Every write from here on
    // (including destructor writeback) is lost.
    plan.Arm(1);
  }
  plan.Reset();

  auto db_or = Database::Open(WalMemoryOptions(&db_dev, &log_dev));
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  EXPECT_TRUE(db->recovery_stats().log_found);
  EXPECT_GE(db->recovery_stats().committed_txns, 2u);
  Object got;
  FR_ASSERT_OK(db->Get("Dept", dept, &got));
  EXPECT_EQ(got.field(1).as_int32(), 777);
}

TEST(WalDatabaseTest, CheckpointTruncatesLogAndSurvivesReopen) {
  MemoryDevice disk, log;
  Oid emp;
  std::string spec = "Emp1.dept.name";
  {
    auto db_or = Database::Open(WalMemoryOptions(&disk, &log));
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(
        TypeDescriptor("DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "EMP", {CharAttr("name", 20), Int32Attr("salary"),
                RefAttr("dept", "DEPT")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->CreateSet("Emp1", "EMP"));
    Oid dept;
    FR_ASSERT_OK(db->Insert(
        "Dept", Object(0, {Value("sales"), Value(int32_t{1})}), &dept));
    FR_ASSERT_OK(db->Insert(
        "Emp1", Object(0, {Value("alice"), Value(int32_t{10}), Value(dept)}),
        &emp));
    FR_ASSERT_OK(db->Replicate(spec, {}));
    uint64_t epoch_before = db->wal()->epoch();
    uint64_t log_before = db->wal()->log_bytes();
    EXPECT_GT(log_before, 0u);
    FR_ASSERT_OK(db->Checkpoint());
    EXPECT_GT(db->wal()->epoch(), epoch_before);  // new epoch = truncated
    EXPECT_EQ(db->wal()->log_bytes(), 0u);
    EXPECT_EQ(db->wal()->stats().checkpoints, 1u);
  }

  auto db_or = Database::Open(WalMemoryOptions(&disk, &log));
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  const ReplicationPathInfo* path = db->replication().FindPath(spec);
  ASSERT_NE(path, nullptr);
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(path->id));
  Object got;
  FR_ASSERT_OK(db->Get("Emp1", emp, &got));
}

// A clean close checkpoints: a deferred propagation still queued at
// close is applied before the log is truncated, so after reopen the
// replica agrees with the join and nothing is replayed. Without the
// checkpoint the queue is lost at close and the replica stays stale.
TEST(WalDatabaseTest, CleanCloseAppliesQueuedPropagationAndReplaysNothing) {
  MemoryDevice disk, log;
  Oid emp;
  const std::string spec = "Emp1.dept.name";
  {
    auto db_or = Database::Open(WalMemoryOptions(&disk, &log));
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(
        TypeDescriptor("DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "EMP", {CharAttr("name", 20), Int32Attr("salary"),
                RefAttr("dept", "DEPT")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->CreateSet("Emp1", "EMP"));
    Oid dept;
    FR_ASSERT_OK(db->Insert(
        "Dept", Object(0, {Value("old"), Value(int32_t{1})}), &dept));
    FR_ASSERT_OK(db->Insert(
        "Emp1", Object(0, {Value("alice"), Value(int32_t{10}), Value(dept)}),
        &emp));
    ReplicateOptions deferred;
    deferred.deferred = true;
    FR_ASSERT_OK(db->Replicate(spec, deferred));
    FR_ASSERT_OK(db->Update("Dept", dept, "name", Value("new")));
    ASSERT_EQ(db->replication().pending_propagation_count(), 1u);
  }  // clean close

  auto db_or = Database::Open(WalMemoryOptions(&disk, &log));
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  EXPECT_EQ(db->recovery_stats().committed_txns, 0u);
  EXPECT_EQ(db->recovery_stats().records_scanned, 0u);
  const ReplicationPathInfo* path = db->catalog().FindPathBySpec(spec);
  ASSERT_NE(path, nullptr);
  Object head;
  FR_ASSERT_OK(db->Get("Emp1", emp, &head));
  const ReplicaValueSlot* slot = head.FindReplicaValues(path->id);
  ASSERT_NE(slot, nullptr);
  ASSERT_FALSE(slot->values.empty());
  const Value joined = TraversePath(db.get(), "Emp1", emp, {"dept", "name"});
  ASSERT_TRUE(joined.is_string());
  EXPECT_EQ(joined.as_string().substr(0, 3), "new");
  EXPECT_EQ(slot->values[0], joined);
  ExpectCleanIntegrity(db.get());
}

TEST(WalDatabaseTest, GroupCommitSyncsLogBeforeAnyPageFlush) {
  MemoryDevice disk, log;
  auto db_or = Database::Open(
      WalMemoryOptions(&disk, &log, /*sync_on_commit=*/false));
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
  FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
  Oid dept;
  FR_ASSERT_OK(db->Insert(
      "Dept", Object(0, {Value("sales"), Value(int32_t{5})}), &dept));

  // Group commit: the commit is flushed but not yet durable.
  EXPECT_LT(db->wal()->durable_lsn(), db->wal()->log_bytes());
  uint64_t syncs_before = db->wal()->stats().log_syncs;

  // Flushing a data page must first make the log durable through that
  // page's commit record — the write-ahead invariant.
  FR_ASSERT_OK(db->pool().FlushAll());
  EXPECT_EQ(db->wal()->durable_lsn(), db->wal()->log_bytes());
  EXPECT_GT(db->wal()->stats().log_syncs, syncs_before);
}

TEST(WalDatabaseTest, FileBackedEndToEnd) {
  std::string dir = ::testing::TempDir();
  std::string db_path = dir + "/wal_e2e.frdb";
  std::string wal_path = db_path + ".wal";
  ::remove(db_path.c_str());
  ::remove(wal_path.c_str());

  Database::Options options;
  options.buffer_pool_frames = 256;
  options.file_path = db_path;
  options.enable_wal = true;
  Oid dept;
  {
    // The same two files, behind fault injection so the session can end
    // in a crash rather than a clean close (which would checkpoint).
    FileDevice db_file;
    FileDevice wal_file;
    FR_ASSERT_OK(db_file.Open(db_path));
    FR_ASSERT_OK(wal_file.Open(wal_path));
    FaultPlan plan;
    FaultInjectingDevice db_dev(&db_file, &plan);
    FaultInjectingDevice wal_dev(&wal_file, &plan);
    Database::Options crash_options = options;
    crash_options.file_path.clear();
    crash_options.device = &db_dev;
    crash_options.wal_device = &wal_dev;
    auto db_or = Database::Open(crash_options);
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->Insert(
        "Dept", Object(0, {Value("ops"), Value(int32_t{9})}), &dept));
    FR_ASSERT_OK(db->Checkpoint());
    FR_ASSERT_OK(db->Update("Dept", dept, "budget", Value(int32_t{11})));
    // Power off after the update, before any checkpoint: reopen must
    // recover it from the .wal file.
    plan.crashed = true;
  }
  {
    auto db_or = Database::Open(options);
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    EXPECT_GE(db->recovery_stats().committed_txns, 1u);
    Object got;
    FR_ASSERT_OK(db->Get("Dept", dept, &got));
    EXPECT_EQ(got.field(1).as_int32(), 11);
  }
  ::remove(db_path.c_str());
  ::remove(wal_path.c_str());
}

TEST(WalDatabaseTest, WalOffBehavesAsBefore) {
  auto db = OpenEmployeeDatabase();
  EXPECT_EQ(db->wal(), nullptr);
  EXPECT_FALSE(db->recovery_stats().log_found);
  PopulateEmployees(db.get(), 2, 4, 16);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  const ReplicationPathInfo* path =
      db->replication().FindPath("Emp1.dept.name");
  ASSERT_NE(path, nullptr);
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(path->id));
}

}  // namespace
}  // namespace fieldrep
