#include "wal/wal_manager.h"

#include <chrono>
#include <cstring>
#include <vector>

#include "common/strings.h"

namespace fieldrep {

namespace {
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

/// Thread-bound transaction state. `tls_prev` threads the (tiny) stack
/// of managers the current thread holds transactions on — tests open
/// several databases on one thread, and a server worker may run a
/// statement for one database while another's transaction is attached.
struct WalTxn {
  WalManager* mgr = nullptr;
  int depth = 0;
  /// Pre-images of pages first accessed inside the transaction.
  std::unordered_map<PageId, std::string> snapshots;
  /// Pages this transaction dirtied (ordered: deterministic log layout).
  std::set<PageId> dirty;
  WalTxn* tls_prev = nullptr;
};

namespace {
thread_local WalTxn* tls_txn_head = nullptr;

void TlsPush(WalTxn* t) {
  t->tls_prev = tls_txn_head;
  tls_txn_head = t;
}

void TlsUnlink(WalTxn* t) {
  WalTxn** p = &tls_txn_head;
  while (*p != nullptr && *p != t) p = &(*p)->tls_prev;
  if (*p == t) {
    *p = t->tls_prev;
    t->tls_prev = nullptr;
  }
}
}  // namespace

std::string WalStats::ToString() const {
  return StringPrintf(
      "WalStats{txns=%llu empty=%llu records=%llu delta_bytes=%llu "
      "log_writes=%llu log_syncs=%llu checkpoints=%llu ckpt_pages=%llu "
      "group_batches=%llu group_commits=%llu}",
      static_cast<unsigned long long>(transactions),
      static_cast<unsigned long long>(empty_commits),
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(delta_bytes),
      static_cast<unsigned long long>(log_page_writes),
      static_cast<unsigned long long>(log_syncs),
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(checkpoint_pages),
      static_cast<unsigned long long>(group_batches),
      static_cast<unsigned long long>(group_commits));
}

WalManager::WalManager(StorageDevice* log_device, BufferPool* pool,
                       const Options& options)
    : log_device_(log_device),
      pool_(pool),
      writer_(log_device),
      options_(options) {}

Status WalManager::Initialize(uint64_t epoch) {
  MutexLock lock(log_mu_);
  return writer_.Reset(epoch);
}

WalTxn* WalManager::CurrentTxn() const {
  for (WalTxn* t = tls_txn_head; t != nullptr; t = t->tls_prev) {
    if (t->mgr == this) return t;
  }
  return nullptr;
}

bool WalManager::in_transaction() const { return CurrentTxn() != nullptr; }

Status WalManager::BeginTransaction() {
  if (broken()) {
    return Status::FailedPrecondition(
        "write-ahead log is in a failed state; reopen the database");
  }
  WalTxn* t = CurrentTxn();
  if (t != nullptr) {
    ++t->depth;
    return Status::OK();
  }
  t = new WalTxn;
  t->mgr = this;
  t->depth = 1;
  TlsPush(t);
  active_txns_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

WalTxn* WalManager::DetachTransaction() {
  WalTxn* t = CurrentTxn();
  if (t == nullptr) return nullptr;
  TlsUnlink(t);
  return t;
}

void WalManager::AttachTransaction(WalTxn* txn) {
  if (txn == nullptr) return;
  TlsPush(txn);
}

void WalManager::FinishTxn(WalTxn* txn, bool keep_protected) {
  if (!keep_protected) {
    MutexLock lock(state_mu_);
    for (PageId page_id : txn->dirty) {
      auto it = protected_.find(page_id);
      if (it != protected_.end() && --it->second == 0) protected_.erase(it);
    }
  }
  TlsUnlink(txn);
  delete txn;
  active_txns_.fetch_sub(1, std::memory_order_acq_rel);
}

Status WalManager::CommitTransaction(uint64_t* commit_lsn) {
  if (commit_lsn != nullptr) *commit_lsn = 0;
  WalTxn* t = CurrentTxn();
  if (t == nullptr) {
    return Status::FailedPrecondition("commit without matching begin");
  }
  if (t->depth > 1) {
    --t->depth;
    return Status::OK();
  }
  const uint64_t start_ns = NowNs();
  Status s = CommitTopLevel(t, commit_lsn);
  commit_latency_ns_.Observe(NowNs() - start_ns);
  // On failure the log is broken: the transaction's pages stay in the
  // frozen protection set forever so no partially-logged byte can reach
  // the device.
  FinishTxn(t, /*keep_protected=*/!s.ok());
  return s;
}

Status WalManager::AbortTransaction() {
  WalTxn* t = CurrentTxn();
  if (t == nullptr) {
    return Status::FailedPrecondition("abort without matching begin");
  }
  if (--t->depth > 0) return Status::OK();
  // Redo-only log: the in-memory partial effects stay (exactly the
  // pre-WAL failure behaviour), but none of them were logged, so a
  // crash-and-recover still lands on the last committed state. Once
  // broken, the protection set stays frozen.
  FinishTxn(t, /*keep_protected=*/broken());
  return Status::OK();
}

Status WalManager::CommitTopLevel(WalTxn* txn, uint64_t* commit_lsn) {
  // One commit at a time, end to end: the precommit hook's metadata
  // image, the page diffs, and the page-LSN stamps must not interleave
  // with another commit touching the same meta pages.
  MutexLock commit_lock(commit_mu_);
  if (broken()) {
    return Status::FailedPrecondition(
        "write-ahead log is in a failed state; reopen the database");
  }
  if (precommit_hook_) {
    Status s = precommit_hook_();
    if (!s.ok()) return s;
  }

  // The hook may have dirtied meta pages into this transaction; collect
  // the write set only now. The set is thread-owned — no lock needed.
  std::vector<PageId> dirty_pages(txn->dirty.begin(), txn->dirty.end());

  // Diff every dirtied page against its pre-image. Absolute byte ranges
  // replayed in log order are idempotent, so recovery needs no page LSNs
  // on the device.
  struct Delta {
    PageId page_id;
    uint32_t offset;
    const uint8_t* data;
    uint32_t length;
  };
  std::vector<Delta> deltas;
  deltas.reserve(dirty_pages.size());
  for (PageId page_id : dirty_pages) {
    const uint8_t* cur = pool_->PeekPage(page_id);
    if (cur == nullptr) {
      // No-steal (CanEvict) keeps every transaction page resident; a miss
      // here means the invariant broke.
      broken_.store(true, std::memory_order_relaxed);
      return Status::Internal(
          StringPrintf("transaction page %u left the buffer pool before "
                       "commit",
                       page_id));
    }
    auto snap_it = txn->snapshots.find(page_id);
    if (snap_it == txn->snapshots.end()) {
      // Page was never observed before the first write (freshly allocated
      // inside the transaction): log the whole page.
      deltas.push_back(Delta{page_id, 0, cur, kPageSize});
      continue;
    }
    const uint8_t* old =
        reinterpret_cast<const uint8_t*>(snap_it->second.data());
    uint32_t first = 0;
    while (first < kPageSize && cur[first] == old[first]) ++first;
    if (first == kPageSize) continue;  // Dirtied but byte-identical.
    uint32_t last = kPageSize;
    while (last > first && cur[last - 1] == old[last - 1]) --last;
    deltas.push_back(Delta{page_id, first, cur + first, last - first});
  }

  if (deltas.empty()) {
    MutexLock lock(log_mu_);
    ++stats_.empty_commits;
    return Status::OK();
  }

  const uint64_t txn_id = next_txn_id_++;
  uint64_t end_lsn = 0;
  Status s;
  {
    // Appends and the commit sync run under log_mu_ because an evicting
    // reader may concurrently sync through BeforePageFlush. The delta
    // byte pointers stay valid: the pages are pinned against eviction by
    // the no-steal veto, and the 2PL layer keeps other writers off them.
    MutexLock lock(log_mu_);
    LogRecord rec;
    rec.txn_id = txn_id;
    rec.type = LogRecordType::kBegin;
    s = writer_.Append(rec);
    if (s.ok()) {
      for (const Delta& d : deltas) {
        LogRecord w;
        w.type = LogRecordType::kPageWrite;
        w.txn_id = txn_id;
        w.page_id = d.page_id;
        w.offset = d.offset;
        w.bytes.assign(reinterpret_cast<const char*>(d.data), d.length);
        s = writer_.Append(w);
        if (!s.ok()) break;
        stats_.delta_bytes += d.length;
      }
    }
    if (s.ok()) {
      LogRecord commit;
      commit.type = LogRecordType::kCommit;
      commit.txn_id = txn_id;
      s = writer_.Append(commit, &end_lsn);
      end_lsn += lsn_base_;
    }
    if (s.ok()) {
      // Group-commit mode never syncs inline: the committer flushes and
      // then amortizes durability through WaitDurable with its peers.
      const bool sync_now =
          options_.sync_on_commit && !options_.group_commit;
      s = sync_now ? writer_.Sync() : writer_.Flush();
    }
    if (s.ok()) {
      ++stats_.transactions;
      stats_.records += 2 + deltas.size();
      stats_.log_page_writes = writer_.page_writes();
      stats_.log_syncs = writer_.syncs();
    }
  }
  if (!s.ok()) {
    // The log device failed mid-commit. The transaction's pages must
    // never reach the database device now (their deltas may be only
    // partially logged), so freeze the protection set and refuse all
    // further work.
    broken_.store(true, std::memory_order_relaxed);
    return s;
  }

  last_commit_lsn_.store(end_lsn, std::memory_order_release);
  if (commit_lsn != nullptr) *commit_lsn = end_lsn;

  // Stamp the commit record's end LSN onto every changed page: the flush
  // invariant (BeforePageFlush) then guarantees no page overtakes its
  // commit record onto the device, even in group-commit mode. Done
  // outside log_mu_ — SetPageLsn takes a shard lock.
  for (const Delta& d : deltas) pool_->SetPageLsn(d.page_id, end_lsn);
  return Status::OK();
}

Status WalManager::WaitDurable(uint64_t lsn) {
  if (lsn == 0) return Status::OK();
  UniqueMutexLock glock(group_mu_);
  for (;;) {
    // Lock order group_mu_ -> log_mu_; nothing takes them the other way
    // around.
    {
      MutexLock lock(log_mu_);
      if (lsn_base_ + writer_.durable_lsn() >= lsn) return Status::OK();
    }
    if (broken()) {
      return Status::FailedPrecondition(
          "write-ahead log is in a failed state; reopen the database");
    }
    if (group_leader_active_) {
      // Follower: the in-flight sync (or the next one) will cover us.
      ++group_waiters_;
      group_cv_.wait(glock);
      --group_waiters_;
      continue;
    }
    // Leader. Everyone parked right now commits with one device sync;
    // sessions that append during the sync form the next batch.
    group_leader_active_ = true;
    const uint64_t batch = 1 + group_waiters_;
    glock.unlock();

    uint64_t target = 0;
    Status s;
    {
      MutexLock lock(log_mu_);
      s = writer_.Flush();
      target = lsn_base_ + writer_.next_lsn();
    }
    const uint64_t sync_start_ns = NowNs();
    if (s.ok()) s = log_device_->Sync();
    if (s.ok()) {
      group_sync_ns_.Observe(NowNs() - sync_start_ns);
      group_batch_size_.Observe(batch);
      MutexLock lock(log_mu_);
      // A checkpoint that restarted the log meanwhile already made
      // everything through `target` durable.
      if (target > lsn_base_) writer_.MarkDurable(target - lsn_base_);
      stats_.log_syncs = writer_.syncs();
      stats_.log_page_writes = writer_.page_writes();
      ++stats_.group_batches;
      stats_.group_commits += batch;
    } else {
      broken_.store(true, std::memory_order_relaxed);
    }

    glock.lock();
    group_leader_active_ = false;
    group_cv_.notify_all();
    if (!s.ok()) return s;
  }
}

Status WalManager::Checkpoint() {
  const uint64_t start_ns = NowNs();
  Status s = CheckpointImpl();
  if (s.ok()) checkpoint_ns_.Observe(NowNs() - start_ns);
  return s;
}

Status WalManager::CheckpointImpl() {
  if (active_transactions() > 0) {
    // No-steal makes this a hard requirement, not a courtesy: FlushAll
    // below would write every dirty page, including pages carrying some
    // live transaction's uncommitted bytes. The database guarantees
    // quiescence by holding the schema lock exclusively.
    return Status::FailedPrecondition("checkpoint with live transactions");
  }
  if (broken()) {
    return Status::FailedPrecondition(
        "write-ahead log is in a failed state; reopen the database");
  }
  // Make every committed record durable before its pages can be flushed
  // (group-commit mode may still hold records in memory).
  {
    MutexLock lock(log_mu_);
    Status s = writer_.Sync();
    if (!s.ok()) {
      broken_.store(true, std::memory_order_relaxed);
      return s;
    }
  }
  // log_mu_ must be released here: FlushAll re-enters this manager
  // through BeforePageFlush, which takes it again.
  size_t dirty = pool_->DirtyPageIds().size();
  FIELDREP_RETURN_IF_ERROR(pool_->FlushAll());
  FIELDREP_RETURN_IF_ERROR(pool_->SyncDevice());
  // Every logged effect is now on the database device: the log content is
  // dead. Start the next epoch, which logically truncates it.
  MutexLock lock(log_mu_);
  const uint64_t epoch_bytes = writer_.next_lsn();
  FIELDREP_RETURN_IF_ERROR(writer_.Reset(writer_.epoch() + 1));
  lsn_base_ += epoch_bytes;
  ++stats_.checkpoints;
  stats_.checkpoint_pages += dirty;
  stats_.log_page_writes = writer_.page_writes();
  stats_.log_syncs = writer_.syncs();
  return Status::OK();
}

void WalManager::CollectMetrics(std::vector<MetricSample>* out) const {
  auto add = [out](const char* name, const char* help, MetricKind kind,
                   double value) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.kind = kind;
    s.value = value;
    out->push_back(std::move(s));
  };
  const WalStats ws = stats();
  add("fieldrep_wal_transactions_total", "Committed transactions.",
      MetricKind::kCounter, static_cast<double>(ws.transactions));
  add("fieldrep_wal_empty_commits_total",
      "Commits that changed no page bytes.", MetricKind::kCounter,
      static_cast<double>(ws.empty_commits));
  add("fieldrep_wal_records_total", "Log records appended.",
      MetricKind::kCounter, static_cast<double>(ws.records));
  add("fieldrep_wal_delta_bytes_total",
      "Payload bytes of page-write records.", MetricKind::kCounter,
      static_cast<double>(ws.delta_bytes));
  add("fieldrep_wal_log_page_writes_total",
      "Pages written to the log device.", MetricKind::kCounter,
      static_cast<double>(ws.log_page_writes));
  add("fieldrep_wal_log_syncs_total", "Sync calls on the log device.",
      MetricKind::kCounter, static_cast<double>(ws.log_syncs));
  add("fieldrep_wal_checkpoints_total", "Completed checkpoints.",
      MetricKind::kCounter, static_cast<double>(ws.checkpoints));
  add("fieldrep_wal_checkpoint_pages_total",
      "Dirty pages flushed by checkpoints.", MetricKind::kCounter,
      static_cast<double>(ws.checkpoint_pages));
  add("fieldrep_wal_group_batches_total",
      "Group-commit sync batches (leader syncs).", MetricKind::kCounter,
      static_cast<double>(ws.group_batches));
  add("fieldrep_wal_group_batched_commits_total",
      "Commits made durable by group-commit batches.", MetricKind::kCounter,
      static_cast<double>(ws.group_commits));
  add("fieldrep_wal_log_bytes", "Bytes in the current log epoch.",
      MetricKind::kGauge, static_cast<double>(log_bytes()));
  add("fieldrep_wal_active_transactions",
      "Write transactions currently open (including detached sessions).",
      MetricKind::kGauge, static_cast<double>(active_transactions()));
  add("fieldrep_wal_broken", "1 when the log is in a failed state.",
      MetricKind::kGauge, broken() ? 1.0 : 0.0);
  MetricSample commit;
  commit.name = "fieldrep_wal_commit_latency_ns";
  commit.help = "Top-level commit latency (append + sync), nanoseconds.";
  commit.kind = MetricKind::kHistogram;
  commit.histogram = commit_latency_ns_.TakeSnapshot();
  out->push_back(std::move(commit));
  MetricSample ckpt;
  ckpt.name = "fieldrep_wal_checkpoint_duration_ns";
  ckpt.help = "Successful checkpoint duration, nanoseconds.";
  ckpt.kind = MetricKind::kHistogram;
  ckpt.histogram = checkpoint_ns_.TakeSnapshot();
  out->push_back(std::move(ckpt));
  MetricSample batch;
  batch.name = "fieldrep_wal_group_batch_size";
  batch.help = "Commits released per group-commit leader sync.";
  batch.kind = MetricKind::kHistogram;
  batch.histogram = group_batch_size_.TakeSnapshot();
  out->push_back(std::move(batch));
  MetricSample gsync;
  gsync.name = "fieldrep_wal_group_sync_ns";
  gsync.help = "Group-commit leader sync latency, nanoseconds.";
  gsync.kind = MetricKind::kHistogram;
  gsync.histogram = group_sync_ns_.TakeSnapshot();
  out->push_back(std::move(gsync));
}

void WalManager::OnPageAccess(PageId page_id, const uint8_t* data) {
  // Fires only for exclusive fetches, i.e. on a thread that is writing —
  // which, under 2PL, is a thread with an open transaction (or none, for
  // maintenance paths that bypass transactions entirely).
  WalTxn* t = CurrentTxn();
  if (t == nullptr || broken()) return;
  if (t->snapshots.count(page_id) != 0) return;
  // Only pages the transaction later dirties need their pre-image, but
  // we cannot know which those are yet; the map dies with the
  // transaction so the cost is bounded by its working set.
  t->snapshots.emplace(page_id,
                       std::string(reinterpret_cast<const char*>(data),
                                   kPageSize));
}

void WalManager::OnPageDirtied(PageId page_id) {
  WalTxn* t = CurrentTxn();
  if (t == nullptr || broken()) return;
  if (t->dirty.insert(page_id).second) {
    MutexLock lock(state_mu_);
    ++protected_[page_id];
  }
}

bool WalManager::CanEvict(PageId page_id) const {
  // No-steal: pages carrying uncommitted (or unloggable, once broken)
  // transaction writes must not reach the device. Called from any thread
  // that considers evicting a dirty page.
  MutexLock lock(state_mu_);
  return protected_.count(page_id) == 0;
}

Status WalManager::BeforePageFlush(PageId /*page_id*/, uint64_t page_lsn) {
  MutexLock lock(log_mu_);
  if (page_lsn == 0 || page_lsn <= lsn_base_ + writer_.durable_lsn()) {
    return Status::OK();
  }
  // Write-ahead rule: the log must be durable through this page's last
  // commit record before the page itself may be written.
  Status s = writer_.Sync();
  if (!s.ok()) broken_.store(true, std::memory_order_relaxed);
  stats_.log_syncs = writer_.syncs();
  stats_.log_page_writes = writer_.page_writes();
  return s;
}

WalTransaction::WalTransaction(WalManager* wal) : wal_(wal) {
  if (wal_ == nullptr) return;
  begin_status_ = wal_->BeginTransaction();
  active_ = begin_status_.ok();
}

WalTransaction::~WalTransaction() {
  if (active_) wal_->AbortTransaction().ok();
}

Status WalTransaction::Commit(uint64_t* commit_lsn) {
  if (!active_) return Status::OK();
  active_ = false;
  return wal_->CommitTransaction(commit_lsn);
}

}  // namespace fieldrep
