#ifndef FIELDREP_COMMON_LOCK_RANK_H_
#define FIELDREP_COMMON_LOCK_RANK_H_

#include <cstddef>
#include <cstdint>

namespace fieldrep {

/// \brief Deadlock freedom by construction: every lock in the engine
/// carries a rank, and a thread may only acquire a lock whose rank is
/// strictly greater than every rank it already holds (DESIGN.md §13).
///
/// Ranks are spaced so future locks can slot between existing ones. The
/// ordering is derived from the real nesting observed in the engine; the
/// key chains with their evidence:
///
///   server.mu -> threadpool.mu         EnqueueFrame submits work under mu_.
///   metrics.mu -> {wal.log_mu,         MetricsRegistry::Collect invokes
///     pool.shard.mu, profiler.mu}      collectors while holding its lock.
///   db.setlock -> db.lock_table.mu     a transaction holding set locks
///                                      acquires further ones through the
///                                      table's internal mutex.
///   db.setlock -> wal.commit_mu        strict 2PL: locks are held across
///   -> db.committed_mu -> db.maps_mu   commit, whose precommit hook
///                                      publishes committed metadata and
///                                      walks the set maps.
///   frame.latch -> record.chain_mu     RecordFile::AppendPage caches chain
///                                      links while page guards are live.
///   frame.latch -> pool.victim         documented pool order (DESIGN.md
///   -> wal.log_mu -> pool.shard.mu     §10): victim selection never takes
///   -> wal.state_mu                    a latch; fetch paths never hold a
///                                      shard lock while latching.
///   wal.group_mu -> wal.log_mu         WaitDurable reads durable_lsn() while
///                                      deciding whether to lead a sync.
///   frame.latch -> wal.group_mu        write-back honours BeforePageFlush
///                                      (flush ordering) on a fetching
///                                      thread that may hold page latches.
///   frame.latch -> device.mu           the same write-back, and misses,
///                                      reach the device (never under
///                                      pool.victim).
///   frame.latch -> repl.pending_mu     deferred propagation queues entries
///                                      while mutation page guards are live.
enum class LockRank : uint16_t {
  kServer = 100,           ///< net::Server::mu_ (sessions, parking, admission)
  kMetricsRegistry = 150,  ///< telemetry::MetricsRegistry::mu_
  kSetLock = 180,          ///< logical per-set 2PL locks (same-rank ok; the
                           ///< LockTable's ascending-id wait policy keeps the
                           ///< same-rank set acyclic)
  kLockTable = 190,        ///< LockTable::mu_ (lock-table internals)
  kWalCommit = 250,        ///< WalManager::commit_mu_ (one commit at a time)
  kCommittedState = 270,   ///< Database::committed_mu_ (checkpoint metadata)
  kExecutorOutput = 280,   ///< Executor::output_mu_ (output-file spooling)
  kDatabaseMaps = 300,     ///< Database::maps_mu_ (set/aux-file maps)
  kFrameLatch = 500,       ///< BufferPool per-frame latches (same-rank ok)
  kRecordChain = 550,      ///< RecordFile::chain_mu_ (page-chain cache)
  kPoolVictim = 600,       ///< BufferPool::victim_mutex_
  kWalGroup = 650,         ///< WalManager::group_mu_ (group-commit batches)
  kWalLog = 700,           ///< WalManager::log_mu_ (log writer + stats)
  kPoolShard = 800,        ///< BufferPool page-table shard mutexes
  kWalState = 900,         ///< WalManager::state_mu_ (txn dirty-page sets)
  kThreadPool = 1000,      ///< ThreadPool::mu_ (task queue)
  kSessionWrite = 1100,    ///< net::Server per-session response write lock
  kDevice = 1200,          ///< MemoryDevice::mu_ (page vector growth)
  kProfiler = 1300,        ///< WorkloadProfiler::mu_
  kReplicationPending = 1400,  ///< ReplicationManager::pending_mu_
  kLeaf = 1500,            ///< strictly-leaf locks (ThreadPool batch state)
};

/// True for rank classes whose members may be held together at the same
/// rank: per-frame latches (elevator write-back and multi-page appends
/// legitimately hold several frames at once; each frame's pin protocol
/// makes the set acyclic) and the logical per-set transaction locks (a
/// write transaction holds its whole replication closure; the LockTable
/// only ever *waits* for ids above everything held, so the same-rank set
/// cannot close a cycle).
constexpr bool LockRankAllowsSameRank(LockRank rank) {
  return rank == LockRank::kFrameLatch || rank == LockRank::kSetLock;
}

/// Whether the runtime checker is compiled in. Defined by CMake for every
/// build type except Release, so tier-1 (RelWithDebInfo) and the sanitizer
/// lanes enforce ranks while release binaries pay nothing.
#if defined(FIELDREP_LOCK_RANK_CHECKS)
inline constexpr bool kLockRankChecksEnabled = true;
#else
inline constexpr bool kLockRankChecksEnabled = false;
#endif

namespace lock_rank {

#if defined(FIELDREP_LOCK_RANK_CHECKS)

/// Records an acquisition of `lock` on this thread's held stack, aborting
/// (with both lock names) if it would invert the rank order or re-acquire
/// a lock the thread already holds. `blocking` is false for try_lock-style
/// acquisitions, which cannot deadlock and are therefore recorded but not
/// order-checked.
void OnAcquire(const void* lock, LockRank rank, const char* name,
               bool blocking);

/// Pops the most recent acquisition of `lock`; aborts if it is not held
/// (an unlock on a thread that never locked is a bug by itself).
void OnRelease(const void* lock, const char* name);

/// Number of lock acquisitions currently recorded for this thread. Test
/// hook.
size_t HeldCount();

#else

inline void OnAcquire(const void*, LockRank, const char*, bool) {}
inline void OnRelease(const void*, const char*) {}
inline size_t HeldCount() { return 0; }

#endif  // FIELDREP_LOCK_RANK_CHECKS

}  // namespace lock_rank
}  // namespace fieldrep

#endif  // FIELDREP_COMMON_LOCK_RANK_H_
