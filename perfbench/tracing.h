#ifndef FIELDREP_PERFBENCH_TRACING_H_
#define FIELDREP_PERFBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "db/database.h"
#include "net/server.h"
#include "telemetry/metrics.h"
#include "telemetry/query_trace.h"

namespace fieldrep::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The engine counters the benchmark snapshots at span and phase
/// boundaries, read through the engine's always-on accessors.
struct Counters {
  IoStats io;
  // WalStats fields.
  uint64_t wal_transactions = 0;
  uint64_t wal_records = 0;
  uint64_t wal_delta_bytes = 0;
  uint64_t wal_log_page_writes = 0;
  uint64_t wal_log_syncs = 0;
  uint64_t wal_checkpoints = 0;
  uint64_t wal_group_batches = 0;
  uint64_t wal_group_commits = 0;
  // BufferPool::ConcurrencyStats.
  uint64_t evictions = 0;
  uint64_t latch_waits = 0;
  uint64_t single_flight_waits = 0;
  // ReplicationManager::Telemetry.
  uint64_t heads_updated = 0;
  uint64_t link_traversals = 0;
  uint64_t separate_writes = 0;
  // LockTable.
  uint64_t lock_conflicts = 0;
  uint64_t lock_aborts = 0;
  uint64_t lock_wait_ns = 0;
  // net::NetMetrics (zero without a server).
  uint64_t net_parks = 0;

  static Counters Take(Database& db, const net::Server* server);
  Counters operator-(const Counters& rhs) const;
};

/// Histogram-valued engine metrics, read from the metrics registry at
/// phase boundaries (Database::metrics(), the MetricsJson surface).
class HistogramSnapshot {
 public:
  static HistogramSnapshot Take(Database& db);

  /// Value of a gauge or counter (summed over label sets); 0 when absent.
  double Value(const std::string& name) const;
  /// Percentile `p` of the observations made between `before` and this
  /// snapshot, interpolated inside its bucket; 0 without observations.
  double DeltaPercentile(const HistogramSnapshot& before,
                         const std::string& name, double p) const;
  /// Sum of the observations between `before` and this snapshot.
  double DeltaSum(const HistogramSnapshot& before,
                  const std::string& name) const;

 private:
  const Histogram::Snapshot* Find(const std::string& name) const;

  std::vector<MetricSample> samples_;
};

/// One recorded interval: name, start, end, parent and op id, plus the
/// counter deltas across it (zero where the span does not own them).
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t op = 0;      ///< operation id; 0 for phase-level spans
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  Counters delta;
  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span log, written out once the run ends. Thread-safe.
class SpanLog {
 public:
  /// Records a finished span and returns its id.
  uint64_t Add(Span span);
  /// Adds one child span per QueryTrace stage under `parent`, laid back to
  /// back from `start_ns` (the engine reports stage durations, not their
  /// offsets, so children start at the call and keep their exact length).
  void AddStages(uint64_t parent, uint64_t op, uint64_t start_ns,
                 const QueryTrace& trace);

  /// Self time of every span: its duration minus the part its children
  /// cover. Also counts spans whose children fall outside them or cover
  /// more than their duration.
  struct SelfTimes {
    std::vector<uint64_t> self_ns;  ///< indexed like spans()
    uint64_t violations = 0;
  };
  SelfTimes ComputeSelfTimes() const;

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line.
  Status WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

}  // namespace fieldrep::perfbench

#endif  // FIELDREP_PERFBENCH_TRACING_H_
