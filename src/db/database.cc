#include "db/database.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "check/integrity_checker.h"
#include "common/bytes.h"
#include "common/strings.h"
#include "storage/slotted_page.h"

namespace fieldrep {

namespace {
// Header page (page 0) layout: 8-byte magic, u64 blob size, u32 blob page
// count, then that many u32 page ids.
// Format v2: checkpoint blob pages carry a 40-byte kMeta page header (with
// a per-page checksum) instead of raw full-page chunks.
constexpr char kHeaderMagic[8] = {'F', 'R', 'E', 'P', '0', '0', '0', '2'};

// Blob bytes stored per meta page: everything after the page header.
constexpr size_t kMetaChunkBytes = kPageSize - kPageHeaderBytes;
}  // namespace

// ---------------------------------------------------------------------------
// Session transactions (DESIGN.md §14)
// ---------------------------------------------------------------------------

struct Database::SessionTxn {
  Database* db = nullptr;
  /// The two-phase lock set, managed by the database's LockTable.
  LockTable::Txn locks;
  /// Created by BeginSessionTransaction (vs. the stack bracket of a
  /// single-statement WriteOp). Only explicit sessions are heap-owned,
  /// counted in open_sessions_, and detachable.
  bool explicit_session = false;
  /// The outer WAL bracket exists. Opened lazily on the first mutating
  /// statement, so idle Begin'd sessions never hold a live WAL
  /// transaction (which would block checkpoints).
  bool wal_begun = false;
  /// Publish scope for the committed-state registry: everything (DDL,
  /// checkpoint) or the write-locked sets.
  bool publish_all = false;
  std::set<std::string> publish_sets;
  /// The WAL transaction handle while the session is detached from any
  /// thread (between network statements).
  WalTxn* wal_txn = nullptr;
  SessionTxn* tls_prev = nullptr;
};

namespace {
/// The stack of transactions attached to this thread, one node per
/// database (tests open several databases on one thread; a server worker
/// can hold one database's session while flushing another's).
thread_local Database::SessionTxn* tls_db_txn_head = nullptr;

void TlsPush(Database::SessionTxn* t) {
  t->tls_prev = tls_db_txn_head;
  tls_db_txn_head = t;
}

void TlsUnlink(Database::SessionTxn* t) {
  Database::SessionTxn** p = &tls_db_txn_head;
  while (*p != nullptr && *p != t) p = &(*p)->tls_prev;
  if (*p == t) {
    *p = t->tls_prev;
    t->tls_prev = nullptr;
  }
}
}  // namespace

Database::SessionTxn* Database::CurrentTxn() const {
  for (SessionTxn* t = tls_db_txn_head; t != nullptr; t = t->tls_prev) {
    if (t->db == this) return t;
  }
  return nullptr;
}

Result<std::unique_ptr<Database>> Database::Open(const Options& options) {
  std::unique_ptr<Database> db(new Database());
  if (options.device != nullptr) {
    db->device_ = options.device;
  } else if (options.file_path.empty()) {
    db->owned_device_ = std::make_unique<MemoryDevice>();
    db->device_ = db->owned_device_.get();
  } else {
    auto file_device = std::make_unique<FileDevice>();
    FileDevice::Options device_options;
    device_options.o_direct = options.o_direct;
    device_options.async_io =
        options.storage_backend == StorageBackend::kUring;
    FIELDREP_RETURN_IF_ERROR(
        file_device->Open(options.file_path, device_options));
    db->device_ = file_device.get();
    db->owned_device_ = std::move(file_device);
  }

  StorageDevice* wal_device = nullptr;
  if (options.enable_wal) {
    if (options.wal_device != nullptr) {
      wal_device = options.wal_device;
    } else if (!options.wal_path.empty() || !options.file_path.empty()) {
      auto f = std::make_unique<FileDevice>();
      FIELDREP_RETURN_IF_ERROR(f->Open(options.wal_path.empty()
                                           ? options.file_path + ".wal"
                                           : options.wal_path));
      wal_device = f.get();
      db->owned_wal_device_ = std::move(f);
    } else {
      db->owned_wal_device_ = std::make_unique<MemoryDevice>();
      wal_device = db->owned_wal_device_.get();
    }
    // Crash recovery runs straight against the devices, before the buffer
    // pool exists: replay the committed log tail, then start a fresh
    // epoch above the recovered one.
    FIELDREP_RETURN_IF_ERROR(RecoveryManager::Recover(
        db->device_, wal_device, &db->recovery_stats_));
  }
  db->wal_device_ = wal_device;
  bool restore = db->device_->page_count() > 0;

  size_t frames = options.buffer_pool_frames == 0 ? 1
                                                  : options.buffer_pool_frames;
  db->pool_ = std::make_unique<BufferPool>(db->device_, frames);
  db->pool_->set_read_ahead(options.read_ahead);
  Database* raw = db.get();
  if (options.enable_wal) {
    WalManager::Options wal_options;
    wal_options.sync_on_commit = options.wal_sync_on_commit;
    wal_options.group_commit = options.wal_group_commit;
    wal_options.checkpoint_threshold_bytes =
        options.wal_checkpoint_threshold_bytes;
    db->wal_ = std::make_unique<WalManager>(wal_device, db->pool_.get(),
                                            wal_options);
    FIELDREP_RETURN_IF_ERROR(db->wal_->Initialize(db->recovery_stats_.epoch + 1));
    db->pool_->SetObserver(db->wal_.get());
    // The committing transaction's metadata is published into the
    // committed-state registry first (inside the commit, serialized by
    // the WAL's commit mutex), so the meta-page image below describes
    // exactly the committed transactions including this one — never a
    // concurrent transaction's uncommitted state. Commits outside any
    // tracked transaction (component tests driving the WAL directly)
    // refresh the whole registry from live state.
    db->wal_->set_precommit_hook([raw] {
      SessionTxn* txn = raw->CurrentTxn();
      if (txn != nullptr) {
        raw->PublishCommittedState(txn);
      } else {
        raw->RefreshAllCommitted();
      }
      return raw->WriteStateToMetaPages();
    });
  }
  db->indexes_ =
      std::make_unique<IndexManager>(db->pool_.get(), &db->catalog_, db.get());
  db->replication_ = std::make_unique<ReplicationManager>(
      &db->catalog_, db.get(), db->indexes_.get());
  db->executor_ = std::make_unique<Executor>(&db->catalog_, db.get(),
                                             db->indexes_.get(),
                                             db->replication_.get());
  if (db->wal_ != nullptr) db->replication_->set_wal(db->wal_.get());
  db->replication_->set_pool(db->pool_.get());
  // Deferred-propagation flushes triggered by read queries run as locked
  // write transactions on the path's head set.
  db->executor_->set_flush_deferred(
      [raw](uint16_t path_id) { return raw->FlushDeferredPath(path_id); });
  if (options.worker_threads > 1) {
    db->workers_ = std::make_unique<ThreadPool>(options.worker_threads);
    db->executor_->set_worker_pool(db->workers_.get());
  }
  db->slow_query_ns_ = options.slow_query_ns;
  db->slow_query_hook_ = options.slow_query_hook;
  if (options.enable_telemetry) {
    db->metrics_ = std::make_unique<MetricsRegistry>();
    db->profiler_ = std::make_unique<WorkloadProfiler>();
    db->executor_->set_profiler(db->profiler_.get());
    db->replication_->set_profiler(db->profiler_.get());
    // Components keep their always-on relaxed-atomic instruments; the
    // registry only names and renders them, so samples are computed at
    // Collect() time and telemetry adds nothing to any hot path.
    BufferPool* pool = db->pool_.get();
    db->metrics_->AddCollector(
        [pool](std::vector<MetricSample>* out) { pool->CollectMetrics(out); });
    if (db->wal_ != nullptr) {
      WalManager* wal = db->wal_.get();
      db->metrics_->AddCollector(
          [wal](std::vector<MetricSample>* out) { wal->CollectMetrics(out); });
    }
    ReplicationManager* repl = db->replication_.get();
    db->metrics_->AddCollector(
        [repl](std::vector<MetricSample>* out) { repl->CollectMetrics(out); });
    LockTable* locks = &db->lock_table_;
    db->metrics_->AddCollector([locks](std::vector<MetricSample>* out) {
      locks->CollectMetrics(out);
    });
    WorkloadProfiler* prof = db->profiler_.get();
    db->metrics_->AddCollector(
        [prof](std::vector<MetricSample>* out) { prof->CollectMetrics(out); });
    // The worker pool is swappable (SetWorkerThreads), so the collector
    // reads through the database each render. SetWorkerThreads already
    // requires quiesced queries; that covers concurrent Collect() too.
    db->metrics_->AddCollector([raw](std::vector<MetricSample>* out) {
      ThreadPool* workers = raw->workers_.get();
      if (workers != nullptr) workers->CollectMetrics(out);
    });
    // The owned device outlives the pool (declaration order above), and
    // the registry is destroyed last, so the capture stays valid for the
    // database's lifetime.
    if (auto* file = dynamic_cast<FileDevice*>(db->owned_device_.get())) {
      db->metrics_->AddCollector([file](std::vector<MetricSample>* out) {
        file->CollectMetrics(out);
      });
    }
  }
  if (restore) {
    FIELDREP_RETURN_IF_ERROR(db->RestoreFromDevice());
  } else {
    // Reserve page 0 as the checkpoint header.
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(db->pool_->NewPage(&guard));
    if (guard.page_id() != 0) {
      return Status::Internal("header page is not page 0");
    }
    guard.MarkDirty();
  }
  // Seed the committed-state registry with the opening state.
  db->RefreshAllCommitted();
  db->open_complete_ = true;
  return db;
}

Database::~Database() {
  if (!open_complete_ || wal_ == nullptr || wal_->broken() ||
      InSessionTransaction()) {
    return;
  }
  Status s = Checkpoint();
  if (!s.ok()) {
    std::fprintf(stderr,
                 "fieldrep: checkpoint at close failed, the next open "
                 "replays the log: %s\n",
                 s.ToString().c_str());
  }
}

// ---------------------------------------------------------------------------
// Two-phase locking
// ---------------------------------------------------------------------------

Status Database::WriteLockClosure(
    const std::string& set_name, std::map<uint32_t, std::string>* locks) const {
  FIELDREP_ASSIGN_OR_RETURN(const SetInfo* target, catalog_.GetSet(set_name));
  std::set<std::string> closure_sets = {set_name};
  std::set<std::string> closure_types = {target->type_name};
  const std::vector<std::string> all_sets = catalog_.SetNames();
  const std::vector<uint16_t> all_paths = catalog_.AllPathIds();
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint16_t path_id : all_paths) {
      const ReplicationPathInfo* path = catalog_.GetPath(path_id);
      if (path == nullptr) continue;
      // Every type a propagation along this path reads or writes.
      std::set<std::string> chain;
      for (const PathStep& step : path->bound.steps) {
        chain.insert(step.source_type);
        chain.insert(step.target_type);
      }
      chain.insert(path->bound.terminal_type);
      bool relevant = closure_sets.count(path->bound.set_name) != 0;
      for (auto it = chain.begin(); !relevant && it != chain.end(); ++it) {
        relevant = closure_types.count(*it) != 0;
      }
      if (!relevant) continue;
      if (closure_sets.insert(path->bound.set_name).second) changed = true;
      for (const std::string& type : chain) {
        if (closure_types.insert(type).second) changed = true;
      }
    }
    for (const std::string& name : all_sets) {
      if (closure_sets.count(name) != 0) continue;
      auto info = catalog_.GetSet(name);
      if (info.ok() && closure_types.count(info.value()->type_name) != 0) {
        closure_sets.insert(name);
        changed = true;
      }
    }
  }
  for (const std::string& name : closure_sets) {
    auto info = catalog_.GetSet(name);
    if (!info.ok()) continue;
    (*locks)[LockTable::LockIdForFile(info.value()->file_id)] = name;
  }
  return Status::OK();
}

Status Database::AcquireWriteLocks(SessionTxn* txn,
                                   const std::string& set_name) {
  // Schema lock (id 0, the globally lowest) first, then the closure in
  // ascending set-lock-id order: acquisition never reaches down the id
  // space, so wait-or-die never kills a single-statement writer.
  FIELDREP_RETURN_IF_ERROR(lock_table_.Acquire(
      &txn->locks, LockTable::kSchemaLockId, LockTable::Mode::kShared));
  std::map<uint32_t, std::string> closure;
  FIELDREP_RETURN_IF_ERROR(WriteLockClosure(set_name, &closure));
  for (const auto& [lock_id, name] : closure) {
    FIELDREP_RETURN_IF_ERROR(
        lock_table_.Acquire(&txn->locks, lock_id, LockTable::Mode::kExclusive));
  }
  for (const auto& [lock_id, name] : closure) txn->publish_sets.insert(name);
  return Status::OK();
}

Status Database::AcquireSchemaExclusive(SessionTxn* txn) {
  FIELDREP_RETURN_IF_ERROR(lock_table_.Acquire(
      &txn->locks, LockTable::kSchemaLockId, LockTable::Mode::kExclusive));
  txn->publish_all = true;
  return Status::OK();
}

Status Database::TryLockSetForWrite(const std::string* set_name,
                                    LockTable::TryOutcome* outcome) {
  *outcome = LockTable::TryOutcome::kAcquired;
  SessionTxn* txn = CurrentTxn();
  if (txn == nullptr) {
    return Status::FailedPrecondition(
        "no transaction attached to this thread");
  }
  if (set_name == nullptr) {
    *outcome = lock_table_.TryAcquire(&txn->locks, LockTable::kSchemaLockId,
                                      LockTable::Mode::kExclusive);
    if (*outcome == LockTable::TryOutcome::kAcquired) txn->publish_all = true;
    return Status::OK();
  }
  *outcome = lock_table_.TryAcquire(&txn->locks, LockTable::kSchemaLockId,
                                    LockTable::Mode::kShared);
  if (*outcome != LockTable::TryOutcome::kAcquired) return Status::OK();
  std::map<uint32_t, std::string> closure;
  FIELDREP_RETURN_IF_ERROR(WriteLockClosure(*set_name, &closure));
  for (const auto& [lock_id, name] : closure) {
    *outcome = lock_table_.TryAcquire(&txn->locks, lock_id,
                                      LockTable::Mode::kExclusive);
    if (*outcome != LockTable::TryOutcome::kAcquired) return Status::OK();
  }
  for (const auto& [lock_id, name] : closure) txn->publish_sets.insert(name);
  return Status::OK();
}

Status Database::WriteOp(const std::string* set_name,
                         const std::function<Status()>& fn, bool wal_bracket) {
  SessionTxn* joined = CurrentTxn();
  if (joined != nullptr) {
    // Statement inside an attached transaction (an explicit session, or
    // nested in another WriteOp): its locks accumulate there — strict
    // 2PL holds them to that transaction's commit/abort — and the WAL
    // bracket opens lazily on this first mutation. Commit, durability,
    // and publication happen when the owning transaction ends.
    FIELDREP_RETURN_IF_ERROR(set_name != nullptr
                                 ? AcquireWriteLocks(joined, *set_name)
                                 : AcquireSchemaExclusive(joined));
    if (wal_bracket && wal_ != nullptr && !joined->wal_begun) {
      FIELDREP_RETURN_IF_ERROR(wal_->BeginTransaction());
      joined->wal_begun = true;
    }
    return fn();
  }

  // The operation is its own transaction.
  SessionTxn local;
  local.db = this;
  lock_table_.RegisterTxn(&local.locks);
  TlsPush(&local);
  Status s = set_name != nullptr ? AcquireWriteLocks(&local, *set_name)
                                 : AcquireSchemaExclusive(&local);
  uint64_t durable = 0;
  if (s.ok()) {
    if (wal_bracket && wal_ != nullptr) {
      s = wal_->BeginTransaction();
      local.wal_begun = s.ok();
    }
    if (s.ok()) {
      s = fn();
      if (local.wal_begun) {
        if (s.ok()) {
          uint64_t lsn = 0;
          s = wal_->CommitTransaction(&lsn);
          if (s.ok() && wal_->group_commit_enabled()) durable = lsn;
        } else {
          // Redo-only log: nothing was logged, recovery lands on the
          // last committed state.
          (void)wal_->AbortTransaction();
        }
      } else if (s.ok() && wal_bracket) {
        // Unlogged database: no commit hook runs, publish directly.
        PublishCommittedState(&local);
      }
    }
  }
  lock_table_.ReleaseAll(&local.locks);
  TlsUnlink(&local);
  if (s.ok() && durable != 0) s = WaitWalDurable(durable);
  if (s.ok() && wal_bracket) MaybeAutoCheckpoint();
  return s;
}

void Database::MaybeAutoCheckpoint() {
  if (wal_ == nullptr || !wal_->needs_auto_checkpoint()) return;
  // Best-effort: skip when explicit sessions are open anywhere (the
  // exclusive schema lock below would stall until they commit) or any
  // WAL transaction is live (the checkpoint would be refused); any
  // failure surfaces at the next explicit Checkpoint.
  if (InSessionTransaction() || wal_->active_transactions() > 0) return;
  (void)Checkpoint();
}

// ---------------------------------------------------------------------------
// Committed-state registry
// ---------------------------------------------------------------------------

void Database::RefreshAllCommitted() {
  const FileId output_id =
      executor_ != nullptr ? executor_->output_file_id() : kInvalidFileId;
  MutexLock committed_lock(committed_mu_);
  committed_set_meta_.clear();
  committed_aux_meta_.clear();
  committed_tree_meta_.clear();
  ReaderMutexLock maps_lock(maps_mu_);
  for (const auto& [name, set] : sets_) {
    committed_set_meta_[name] = set->file().EncodeMetadata();
  }
  for (const auto& [file_id, file] : aux_files_) {
    // The output file is scratch state written by concurrent readers;
    // EncodeState reads it live under the executor's output lock.
    if (file_id == output_id) continue;
    committed_aux_meta_[file_id] = file->EncodeMetadata();
  }
  for (const std::string& set_name : catalog_.SetNames()) {
    for (const IndexInfo* info : catalog_.IndexesOnSet(set_name)) {
      auto tree = indexes_->GetIndex(info->name);
      if (tree.ok()) {
        committed_tree_meta_[info->name] = tree.value()->EncodeMetadata();
      }
    }
  }
}

void Database::PublishCommittedState(SessionTxn* txn) {
  if (txn->publish_all) {
    RefreshAllCommitted();
    return;
  }
  if (txn->publish_sets.empty()) return;
  MutexLock committed_lock(committed_mu_);
  ReaderMutexLock maps_lock(maps_mu_);
  for (const std::string& set_name : txn->publish_sets) {
    auto set_it = sets_.find(set_name);
    if (set_it == sets_.end()) continue;
    committed_set_meta_[set_name] = set_it->second->file().EncodeMetadata();
    // Auxiliary files owned by this head set — the S' replica files of
    // paths headed here and the link sets anchored here — are covered by
    // the set's exclusive lock, so their live metadata is this
    // transaction's too.
    for (uint16_t path_id : catalog_.PathsHeadedAt(set_name)) {
      const ReplicationPathInfo* path = catalog_.GetPath(path_id);
      if (path == nullptr) continue;
      auto aux_it = aux_files_.find(path->replica_set_file);
      if (aux_it != aux_files_.end()) {
        committed_aux_meta_[aux_it->first] = aux_it->second->EncodeMetadata();
      }
    }
    for (uint8_t link_id : catalog_.link_registry().AllLinkIds()) {
      const LinkInfo* link = catalog_.link_registry().GetLink(link_id);
      if (link == nullptr || link->head_set != set_name) continue;
      auto aux_it = aux_files_.find(link->link_set_file);
      if (aux_it != aux_files_.end()) {
        committed_aux_meta_[aux_it->first] = aux_it->second->EncodeMetadata();
      }
    }
    for (const IndexInfo* info : catalog_.IndexesOnSet(set_name)) {
      auto tree = indexes_->GetIndex(info->name);
      if (tree.ok()) {
        committed_tree_meta_[info->name] = tree.value()->EncodeMetadata();
      }
    }
  }
}

std::string Database::EncodeState() const {
  // The scratch output file is read live, but consistently: its id and
  // metadata come as one pair from under the executor's output lock
  // (released before committed_mu_ below — never nested).
  FileId output_id = kInvalidFileId;
  const std::string output_meta = executor_->EncodeOutputMetadata(&output_id);
  const bool has_output = output_id != kInvalidFileId && !output_meta.empty();
  MutexLock lock(committed_mu_);
  std::string out;
  PutU16(&out, static_cast<uint16_t>(committed_set_meta_.size()));
  for (const auto& [name, meta] : committed_set_meta_) {
    PutLengthPrefixed(&out, name);
    PutLengthPrefixed(&out, meta);
  }
  PutU16(&out, static_cast<uint16_t>(committed_aux_meta_.size() +
                                     (has_output ? 1 : 0)));
  for (const auto& [file_id, meta] : committed_aux_meta_) {
    PutU16(&out, file_id);
    PutLengthPrefixed(&out, meta);
  }
  if (has_output) {
    PutU16(&out, output_id);
    PutLengthPrefixed(&out, output_meta);
  }
  PutU16(&out, static_cast<uint16_t>(committed_tree_meta_.size()));
  for (const auto& [name, meta] : committed_tree_meta_) {
    PutLengthPrefixed(&out, name);
    PutLengthPrefixed(&out, meta);
  }
  PutU16(&out, has_output ? output_id : kInvalidFileId);
  return out;
}

Status Database::DecodeState(ByteReader* reader) {
  uint16_t set_count;
  if (!reader->GetU16(&set_count)) {
    return Status::Corruption("truncated state: sets");
  }
  for (uint16_t i = 0; i < set_count; ++i) {
    std::string name, metadata;
    if (!reader->GetLengthPrefixed(&name) ||
        !reader->GetLengthPrefixed(&metadata)) {
      return Status::Corruption("truncated set state");
    }
    FIELDREP_ASSIGN_OR_RETURN(const SetInfo* info, catalog_.GetSet(name));
    FIELDREP_ASSIGN_OR_RETURN(const TypeDescriptor* type,
                              catalog_.GetType(info->type_name));
    auto set =
        std::make_unique<ObjectSet>(pool_.get(), info->file_id, name, type);
    FIELDREP_RETURN_IF_ERROR(set->file().DecodeMetadata(metadata));
    WriterMutexLock lock(maps_mu_);
    sets_by_file_[info->file_id] = set.get();
    sets_.emplace(name, std::move(set));
  }
  uint16_t aux_count;
  if (!reader->GetU16(&aux_count)) {
    return Status::Corruption("truncated state: aux files");
  }
  for (uint16_t i = 0; i < aux_count; ++i) {
    uint16_t file_id;
    std::string metadata;
    if (!reader->GetU16(&file_id) ||
        !reader->GetLengthPrefixed(&metadata)) {
      return Status::Corruption("truncated aux file state");
    }
    auto file = std::make_unique<RecordFile>(pool_.get(), file_id);
    FIELDREP_RETURN_IF_ERROR(file->DecodeMetadata(metadata));
    WriterMutexLock lock(maps_mu_);
    aux_files_.emplace(file_id, std::move(file));
  }
  uint16_t tree_count;
  if (!reader->GetU16(&tree_count)) {
    return Status::Corruption("truncated state: trees");
  }
  for (uint16_t i = 0; i < tree_count; ++i) {
    std::string name, metadata;
    if (!reader->GetLengthPrefixed(&name) ||
        !reader->GetLengthPrefixed(&metadata)) {
      return Status::Corruption("truncated tree state");
    }
    FIELDREP_RETURN_IF_ERROR(indexes_->RestoreIndex(name, metadata));
  }
  uint16_t output_id;
  if (!reader->GetU16(&output_id)) {
    return Status::Corruption("truncated state: output file");
  }
  executor_->restore_output_file_id(output_id);
  return Status::OK();
}

Status Database::SetWorkerThreads(size_t n) {
  // Lock-only quiescence of writers; callers quiesce read queries.
  return WriteOp(
      nullptr,
      [&] {
        // Detach before destroying so a pool is never visible to the
        // executor while its threads are joining.
        executor_->set_worker_pool(nullptr);
        workers_.reset();
        if (n > 1) {
          workers_ = std::make_unique<ThreadPool>(n);
          executor_->set_worker_pool(workers_.get());
        }
        return Status::OK();
      },
      /*wal_bracket=*/false);
}

Status Database::Checkpoint() {
  if (CurrentTxn() != nullptr) {
    return Status::FailedPrecondition(
        "checkpoint inside an open transaction");
  }
  SessionTxn local;
  local.db = this;
  lock_table_.RegisterTxn(&local.locks);
  TlsPush(&local);
  // The exclusive schema lock quiesces every writer (writers hold it
  // shared for their whole transaction), so no WAL transaction is live
  // anywhere — the no-steal precondition for the pool flush below.
  Status s = AcquireSchemaExclusive(&local);
  if (s.ok()) s = replication_->FlushAllPendingPropagation();
  if (s.ok() && wal_ != nullptr && wal_->active_transactions() > 0) {
    // A WAL transaction holding no schema lock (none should exist) would
    // make the WAL refuse the checkpoint below; refuse before the state
    // blob is logged, so a failed attempt leaves the log untouched.
    s = Status::FailedPrecondition("checkpoint with live transactions");
  }
  if (s.ok()) {
    if (wal_ != nullptr) {
      // The pre-commit hook publishes and writes the state blob inside
      // this (otherwise empty) transaction, so the catalog update itself
      // is logged; the WAL checkpoint then flushes the pool and
      // truncates the log.
      WalTransaction txn(wal_.get());
      s = txn.begin_status();
      if (s.ok()) s = txn.Commit();
      if (s.ok()) s = wal_->Checkpoint();
    } else {
      PublishCommittedState(&local);
      s = WriteStateToMetaPages();
      if (s.ok()) s = pool_->FlushAll();
    }
  }
  lock_table_.ReleaseAll(&local.locks);
  TlsUnlink(&local);
  return s;
}

Status Database::WriteStateToMetaPages() {
  std::string blob;
  catalog_.EncodeTo(&blob);
  blob += EncodeState();

  // Lay the blob across kMeta pages, reusing prior checkpoint pages. Each
  // page holds a header (type, chunk index, chunk length, checksum slot)
  // followed by one kMetaChunkBytes chunk of the blob.
  size_t pages_needed = (blob.size() + kMetaChunkBytes - 1) / kMetaChunkBytes;
  while (meta_pages_.size() < pages_needed) {
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(pool_->NewPage(&guard));
    guard.MarkDirty();
    meta_pages_.push_back(guard.page_id());
  }
  for (size_t i = 0; i < pages_needed; ++i) {
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(meta_pages_[i], &guard));
    size_t offset = i * kMetaChunkBytes;
    size_t n = std::min<size_t>(kMetaChunkBytes, blob.size() - offset);
    std::memset(guard.data(), 0, kPageSize);
    uint16_t type = static_cast<uint16_t>(PageType::kMeta);
    std::memcpy(guard.data(), &type, sizeof(type));
    uint32_t chunk_index = static_cast<uint32_t>(i);
    uint32_t chunk_len = static_cast<uint32_t>(n);
    std::memcpy(guard.data() + 4, &chunk_index, sizeof(chunk_index));
    std::memcpy(guard.data() + 8, &chunk_len, sizeof(chunk_len));
    std::memcpy(guard.data() + kPageHeaderBytes, blob.data() + offset, n);
    guard.MarkDirty();
  }
  // Header page.
  if ((meta_pages_.size() + 3) * 4 + 20 > kPageSize) {
    return Status::OutOfRange("checkpoint blob too large for header page");
  }
  PageGuard header;
  FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(0, &header));
  std::string head;
  head.append(kHeaderMagic, sizeof(kHeaderMagic));
  PutU64(&head, blob.size());
  PutU32(&head, static_cast<uint32_t>(pages_needed));
  for (size_t i = 0; i < pages_needed; ++i) PutU32(&head, meta_pages_[i]);
  std::memcpy(header.data(), head.data(), head.size());
  header.MarkDirty();
  header.Release();
  return Status::OK();
}

std::string Database::StorageReport() {
  ReaderMutexLock lock(maps_mu_);
  std::string out = "storage report\n";
  out += StringPrintf("  device pages: %u (%.1f KiB)\n",
                      device_->page_count(),
                      device_->page_count() * kPageSize / 1024.0);
  out += StringPrintf("  buffer pool: %zu frames, %zu cached, %s\n",
                      pool_->capacity(), pool_->pages_cached(),
                      pool_->stats().ToString().c_str());
  for (const auto& [name, set] : sets_) {
    out += StringPrintf("  set %-12s file %-3u %8llu objects %6u pages\n",
                        name.c_str(), set->file().file_id(),
                        static_cast<unsigned long long>(
                            set->file().record_count()),
                        set->file().page_count());
  }
  for (const auto& [file_id, file] : aux_files_) {
    // Identify the role of each auxiliary file from the catalog.
    std::string role = "aux";
    for (uint8_t link_id : catalog_.link_registry().AllLinkIds()) {
      const LinkInfo* link = catalog_.link_registry().GetLink(link_id);
      if (link != nullptr && link->link_set_file == file_id) {
        role = "link set " + link->key;
        break;
      }
    }
    for (uint16_t path_id : catalog_.AllPathIds()) {
      const ReplicationPathInfo* path = catalog_.GetPath(path_id);
      if (path != nullptr && path->replica_set_file == file_id) {
        role = "replica set (S') for " + path->spec;
        break;
      }
    }
    if (file_id == executor_->output_file_id()) role = "output file (T)";
    out += StringPrintf("  %-16s file %-3u %8llu records %6u pages  [%s]\n",
                        "aux", file_id,
                        static_cast<unsigned long long>(file->record_count()),
                        file->page_count(), role.c_str());
  }
  for (const std::string& set_name : catalog_.SetNames()) {
    for (const IndexInfo* info : catalog_.IndexesOnSet(set_name)) {
      auto tree = indexes_->GetIndex(info->name);
      if (!tree.ok()) continue;
      auto pages = tree.value()->PageCount();
      out += StringPrintf(
          "  index %-12s on %s.%s: %llu entries, %u pages\n",
          info->name.c_str(), info->set_name.c_str(), info->key_expr.c_str(),
          static_cast<unsigned long long>(tree.value()->size()),
          pages.ok() ? *pages : 0);
    }
  }
  return out;
}

Status Database::RestoreFromDevice() {
  PageGuard header;
  FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(0, &header));
  if (std::memcmp(header.data(), kHeaderMagic, sizeof(kHeaderMagic)) != 0) {
    return Status::Corruption(
        "backing file has no fieldrep checkpoint header (was Checkpoint() "
        "called before closing?)");
  }
  uint64_t blob_size = DecodeU64(header.data() + 8);
  uint32_t page_count = DecodeU32(header.data() + 16);
  meta_pages_.clear();
  for (uint32_t i = 0; i < page_count; ++i) {
    meta_pages_.push_back(DecodeU32(header.data() + 20 + i * 4));
  }
  header.Release();
  std::string blob;
  blob.reserve(blob_size);
  for (uint32_t i = 0; i < page_count; ++i) {
    PageGuard guard;
    FIELDREP_RETURN_IF_ERROR(pool_->FetchPage(meta_pages_[i], &guard));
    if (DecodeU16(guard.data()) != static_cast<uint16_t>(PageType::kMeta)) {
      return Status::Corruption(StringPrintf(
          "checkpoint page %u is not a meta page", meta_pages_[i]));
    }
    size_t n = std::min<uint64_t>(kMetaChunkBytes, blob_size - blob.size());
    blob.append(reinterpret_cast<const char*>(guard.data()) + kPageHeaderBytes,
                n);
  }
  ByteReader reader(blob);
  FIELDREP_RETURN_IF_ERROR(catalog_.DecodeFrom(&reader));
  return DecodeState(&reader);
}

std::vector<FileId> Database::AuxFileIds() const {
  ReaderMutexLock lock(maps_mu_);
  std::vector<FileId> ids;
  ids.reserve(aux_files_.size());
  for (const auto& [file_id, file] : aux_files_) ids.push_back(file_id);
  return ids;
}

Status Database::CheckIntegrity(const CheckOptions& options,
                                CheckReport* report) {
  IntegrityChecker checker(this, options);
  return checker.Run(report);
}

Status Database::CheckIntegrity(CheckReport* report) {
  return CheckIntegrity(CheckOptions(), report);
}

// ---------------------------------------------------------------------------
// Session transaction API
// ---------------------------------------------------------------------------

Status Database::BeginSessionTransaction() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "session transactions require write-ahead logging");
  }
  if (CurrentTxn() != nullptr) {
    return Status::FailedPrecondition("a session transaction is already open");
  }
  auto* txn = new SessionTxn;
  txn->db = this;
  txn->explicit_session = true;
  lock_table_.RegisterTxn(&txn->locks);
  TlsPush(txn);
  open_sessions_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

void Database::FinishSessionTxn(SessionTxn* txn) {
  lock_table_.ReleaseAll(&txn->locks);
  TlsUnlink(txn);
  if (txn->explicit_session) {
    open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
    delete txn;
  }
}

Status Database::CommitSessionTransaction(uint64_t* commit_lsn) {
  if (commit_lsn != nullptr) *commit_lsn = 0;
  SessionTxn* txn = CurrentTxn();
  if (txn == nullptr || !txn->explicit_session) {
    return Status::FailedPrecondition("no open session transaction");
  }
  Status s;
  if (txn->wal_begun) {
    uint64_t lsn = 0;
    s = wal_->CommitTransaction(&lsn);
    if (s.ok() && commit_lsn != nullptr && wal_->group_commit_enabled()) {
      *commit_lsn = lsn;
    }
  }
  FinishSessionTxn(txn);
  if (s.ok()) MaybeAutoCheckpoint();
  return s;
}

Status Database::AbortSessionTransaction() {
  SessionTxn* txn = CurrentTxn();
  if (txn == nullptr || !txn->explicit_session) {
    return Status::FailedPrecondition("no open session transaction");
  }
  Status s;
  if (txn->wal_begun) s = wal_->AbortTransaction();
  FinishSessionTxn(txn);
  return s;
}

bool Database::InSessionTransaction() const {
  return open_sessions_.load(std::memory_order_acquire) > 0;
}

Database::SessionTxn* Database::DetachSessionTransaction() {
  SessionTxn* txn = CurrentTxn();
  if (txn == nullptr || !txn->explicit_session) return nullptr;
  if (txn->wal_begun) txn->wal_txn = wal_->DetachTransaction();
  lock_table_.UnregisterHeldFromThread(txn->locks);
  TlsUnlink(txn);
  return txn;
}

void Database::AttachSessionTransaction(SessionTxn* txn) {
  if (txn == nullptr) return;
  TlsPush(txn);
  lock_table_.RegisterHeldOnThread(txn->locks);
  if (txn->wal_txn != nullptr) {
    wal_->AttachTransaction(txn->wal_txn);
    txn->wal_txn = nullptr;
  }
}

Status Database::WaitWalDurable(uint64_t lsn) {
  if (wal_ == nullptr || lsn == 0) return Status::OK();
  return wal_->WaitDurable(lsn);
}

Status Database::FlushDeferredPath(uint16_t path_id) {
  const ReplicationPathInfo* path = catalog_.GetPath(path_id);
  if (path == nullptr) {
    return Status::NotFound(StringPrintf("no replication path %u", path_id));
  }
  const std::string head_set = path->bound.set_name;
  return WriteOp(&head_set, [&] {
    return replication_->FlushPendingPropagation(path_id);
  });
}

// ---------------------------------------------------------------------------
// Schema and data operations
// ---------------------------------------------------------------------------

Status Database::DefineType(TypeDescriptor type) {
  return WriteOp(nullptr,
                 [&] { return catalog_.DefineType(std::move(type)); });
}

Status Database::CreateSet(const std::string& name,
                           const std::string& type_name) {
  return WriteOp(nullptr, [&] {
    FileId file_id;
    FIELDREP_RETURN_IF_ERROR(catalog_.CreateSet(name, type_name, &file_id));
    FIELDREP_ASSIGN_OR_RETURN(const TypeDescriptor* type,
                              catalog_.GetType(type_name));
    auto set = std::make_unique<ObjectSet>(pool_.get(), file_id, name, type);
    WriterMutexLock maps_lock(maps_mu_);
    sets_by_file_[file_id] = set.get();
    sets_.emplace(name, std::move(set));
    return Status::OK();
  });
}

Status Database::Replicate(const std::string& spec,
                           const ReplicateOptions& options,
                           uint16_t* path_id) {
  return WriteOp(nullptr, [&] {
    uint16_t id;
    FIELDREP_RETURN_IF_ERROR(replication_->CreatePath(spec, options, &id));
    if (path_id != nullptr) *path_id = id;
    return Status::OK();
  });
}

Status Database::DropReplication(const std::string& spec) {
  return WriteOp(nullptr, [&] {
    const ReplicationPathInfo* path = catalog_.FindPathBySpec(spec);
    if (path == nullptr) {
      return Status::NotFound("no replication path " + spec);
    }
    return replication_->DropPath(path->id);
  });
}

Status Database::BuildIndex(const std::string& index_name,
                            const std::string& set_name,
                            const std::string& key_expr, bool clustered) {
  return WriteOp(nullptr, [&] {
    return indexes_->BuildIndex(index_name, set_name, key_expr, clustered);
  });
}

Status Database::Insert(const std::string& set_name, const Object& object,
                        Oid* oid) {
  return WriteOp(&set_name, [&] {
    return replication_->InsertObject(set_name, object, oid);
  });
}

Status Database::Get(const std::string& set_name, const Oid& oid,
                     Object* object) {
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, GetSet(set_name));
  return set->Read(oid, object);
}

Status Database::Update(const std::string& set_name, const Oid& oid,
                        const std::string& attr_name, const Value& value) {
  return WriteOp(&set_name, [&] {
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, GetSet(set_name));
    int attr = set->type().FindAttribute(attr_name);
    if (attr < 0) {
      return Status::InvalidArgument("type " + set->type().name() +
                                     " has no attribute " + attr_name);
    }
    return replication_->UpdateField(set_name, oid, attr, value);
  });
}

Status Database::Delete(const std::string& set_name, const Oid& oid) {
  return WriteOp(&set_name,
                 [&] { return replication_->DeleteObject(set_name, oid); });
}

Status Database::Retrieve(const ReadQuery& query, ReadResult* result) {
  if (slow_query_ns_ == 0) return executor_->ExecuteRead(query, result);
  // Slow-query log armed: trace every query so threshold crossings have
  // a full stage breakdown to report.
  QueryTrace trace;
  return Retrieve(query, result, &trace);
}

Status Database::Retrieve(const ReadQuery& query, ReadResult* result,
                          QueryTrace* trace) {
  Status s = executor_->ExecuteRead(query, result, trace);
  if (s.ok() && trace != nullptr) MaybeLogSlowQuery(*trace);
  return s;
}

Status Database::Replace(const UpdateQuery& query, UpdateResult* result) {
  if (slow_query_ns_ == 0) {
    return WriteOp(&query.set_name,
                   [&] { return executor_->ExecuteUpdate(query, result); });
  }
  QueryTrace trace;
  return Replace(query, result, &trace);
}

Status Database::Replace(const UpdateQuery& query, UpdateResult* result,
                         QueryTrace* trace) {
  Status s = WriteOp(&query.set_name, [&] {
    return executor_->ExecuteUpdate(query, result, trace);
  });
  if (s.ok() && trace != nullptr) MaybeLogSlowQuery(*trace);
  return s;
}

void Database::MaybeLogSlowQuery(const QueryTrace& trace) const {
  if (slow_query_ns_ == 0 || trace.wall_ns < slow_query_ns_) return;
  if (slow_query_hook_) {
    slow_query_hook_(trace);
    return;
  }
  std::fprintf(stderr, "[fieldrep] slow query: %s\n", trace.Summary().c_str());
}

WorkloadProfile Database::Stats() const {
  return profiler_ != nullptr ? profiler_->Snapshot() : WorkloadProfile();
}

std::string Database::MetricsPrometheus() const {
  return metrics_ != nullptr ? metrics_->RenderPrometheus() : std::string();
}

std::string Database::MetricsJson() const {
  return metrics_ != nullptr ? metrics_->RenderJson() : std::string();
}

Status Database::DumpMetricsJson(const std::string& path) const {
  if (metrics_ == nullptr) {
    return Status::FailedPrecondition("telemetry is disabled");
  }
  std::string json = metrics_->RenderJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Status Database::ColdStart() {
  // Lock-only quiescence (no WAL bracket: the sweep must not snapshot
  // pages, and ResetStats must be the last cost-model event). Evicting
  // every frame requires no pinned pages anyway; the exclusive schema
  // lock keeps a late writer from dirtying pages mid-eviction.
  return WriteOp(
      nullptr,
      [&] {
        FIELDREP_RETURN_IF_ERROR(pool_->EvictAll());
        pool_->ResetStats();
        return Status::OK();
      },
      /*wal_bracket=*/false);
}

Result<ObjectSet*> Database::GetSet(const std::string& name) {
  ReaderMutexLock lock(maps_mu_);
  auto it = sets_.find(name);
  if (it == sets_.end()) return Status::NotFound("no set named " + name);
  return it->second.get();
}

Result<ObjectSet*> Database::GetSetByFile(FileId file_id) {
  ReaderMutexLock lock(maps_mu_);
  auto it = sets_by_file_.find(file_id);
  if (it == sets_by_file_.end()) {
    return Status::NotFound(StringPrintf("no set stored in file %u", file_id));
  }
  return it->second;
}

Result<RecordFile*> Database::GetAuxFile(FileId file_id) {
  ReaderMutexLock lock(maps_mu_);
  auto it = aux_files_.find(file_id);
  if (it == aux_files_.end()) {
    return Status::NotFound(
        StringPrintf("no auxiliary file with id %u", file_id));
  }
  return it->second.get();
}

Result<RecordFile*> Database::CreateAuxFile(FileId* file_id) {
  *file_id = catalog_.AllocateFileId();
  auto file = std::make_unique<RecordFile>(pool_.get(), *file_id);
  RecordFile* raw = file.get();
  WriterMutexLock lock(maps_mu_);
  aux_files_.emplace(*file_id, std::move(file));
  return raw;
}

}  // namespace fieldrep
