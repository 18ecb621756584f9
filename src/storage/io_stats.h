#ifndef FIELDREP_STORAGE_IO_STATS_H_
#define FIELDREP_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace fieldrep {

/// \brief The single source of truth for the I/O counter set.
///
/// Every member of IoStats / AtomicIoStats and every derived operation
/// (Snapshot, Reset, operator-, operator+=, ToString, metric exposition)
/// is generated from this list, so adding a counter is one line here and
/// cannot silently skip a code path. The first five counters are the
/// *logical* set (buffer behaviour plus the paper's page-I/O cost unit);
/// the rest describe *physical* batching and timing and are allowed to
/// vary with scheduling (read-ahead window, elevator write-back).
///
///   fetches          buffer-pool page requests
///   hits             requests satisfied without device I/O
///   disk_reads       pages read from the device (logical)
///   disk_writes      pages written to the device (logical)
///   disk_syncs       device Sync (fsync) calls
///   batched_reads    pages physically read via read-ahead batches
///   coalesced_writes pages written inside multi-page contiguous runs
///   bytes_read       bytes physically read from the device
///   bytes_written    bytes physically written to the device
///   read_batches     read-ahead batches handed to the device
///                    (batched_reads / read_batches = pages per batch)
///   write_batches    write-back batches handed to the device: one per
///                    on-demand eviction, read-ahead victim set, or flush,
///                    whatever the device
///                    (disk_writes / write_batches = pages per submission)
///   read_ns          wall-clock nanoseconds in device reads
///   write_ns         wall-clock nanoseconds in device writes
///   sync_ns          wall-clock nanoseconds in device syncs
#define FIELDREP_IO_STATS_FIELDS(X) \
  X(fetches)                        \
  X(hits)                           \
  X(disk_reads)                     \
  X(disk_writes)                    \
  X(disk_syncs)                     \
  X(batched_reads)                  \
  X(coalesced_writes)               \
  X(read_batches)                   \
  X(write_batches)                  \
  X(bytes_read)                     \
  X(bytes_written)                  \
  X(read_ns)                        \
  X(write_ns)                       \
  X(sync_ns)

/// \brief Page I/O counters maintained by the buffer pool.
///
/// The paper's entire evaluation is in units of page I/Os, so these counters
/// are the primary measurement surface of the engine: `disk_reads` and
/// `disk_writes` count *logical* device transfers (buffer misses / dirty
/// evictions + flushes), `fetches`/`hits` describe cache behaviour.
///
/// Batched I/O (read-ahead, elevator write-back) is accounted so
/// that the logical counters are unchanged by batching: a prefetched page is
/// charged to `disk_reads` the first time a caller actually fetches it, and
/// a prefetched page that is never fetched is never charged. The physical
/// side of batching is visible separately through `batched_reads`,
/// `coalesced_writes`, the byte counters, and the per-operation timers.
struct IoStats {
#define FIELDREP_IO_DECL(name) uint64_t name = 0;
  FIELDREP_IO_STATS_FIELDS(FIELDREP_IO_DECL)
#undef FIELDREP_IO_DECL

  /// Total logical device transfers — the paper's cost unit. Defined purely
  /// as disk_reads + disk_writes; unchanged by batching or read-ahead.
  uint64_t TotalIo() const { return disk_reads + disk_writes; }

  void Reset() { *this = IoStats(); }

  IoStats operator-(const IoStats& rhs) const;
  IoStats& operator+=(const IoStats& rhs);
  bool operator==(const IoStats& rhs) const;
  std::string ToString() const;
};

/// \brief Lock-free counterpart of IoStats, used internally by the (now
/// concurrent) buffer pool. Counters are relaxed atomics: each increment
/// is an independent event count, never a synchronization point, so
/// snapshots are exact whenever the pool is quiesced (how every
/// measurement path uses them) and merely monotone mid-flight.
struct AtomicIoStats {
#define FIELDREP_IO_DECL(name) std::atomic<uint64_t> name{0};
  FIELDREP_IO_STATS_FIELDS(FIELDREP_IO_DECL)
#undef FIELDREP_IO_DECL

  IoStats Snapshot() const {
    IoStats out;
#define FIELDREP_IO_LOAD(name) \
  out.name = name.load(std::memory_order_relaxed);
    FIELDREP_IO_STATS_FIELDS(FIELDREP_IO_LOAD)
#undef FIELDREP_IO_LOAD
    return out;
  }

  void Reset() {
#define FIELDREP_IO_ZERO(name) name.store(0, std::memory_order_relaxed);
    FIELDREP_IO_STATS_FIELDS(FIELDREP_IO_ZERO)
#undef FIELDREP_IO_ZERO
  }
};

}  // namespace fieldrep

#endif  // FIELDREP_STORAGE_IO_STATS_H_
