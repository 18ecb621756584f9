#include "tracing.h"

#include <algorithm>
#include <cstdio>

namespace fieldrep::perfbench {

Counters Counters::Take(Database& db, const net::Server* server) {
  Counters c;
  c.io = db.io_stats();
  if (WalManager* wal = db.wal()) {
    const WalStats ws = wal->stats();
    c.wal_transactions = ws.transactions;
    c.wal_records = ws.records;
    c.wal_delta_bytes = ws.delta_bytes;
    c.wal_log_page_writes = ws.log_page_writes;
    c.wal_log_syncs = ws.log_syncs;
    c.wal_checkpoints = ws.checkpoints;
    c.wal_group_batches = ws.group_batches;
    c.wal_group_commits = ws.group_commits;
  }
  const BufferPool::ConcurrencyStats cs = db.pool().concurrency_stats();
  c.evictions = cs.evictions;
  c.latch_waits = cs.latch_waits;
  c.single_flight_waits = cs.single_flight_waits;
  const ReplicationManager::Telemetry rt = db.replication().telemetry();
  c.heads_updated = rt.heads_updated;
  c.link_traversals = rt.link_traversals;
  c.separate_writes = rt.separate_replica_writes;
  c.lock_conflicts = db.lock_table().conflicts();
  c.lock_aborts = db.lock_table().aborts();
  c.lock_wait_ns = db.lock_table().wait_ns();
  if (server != nullptr) {
    c.net_parks = server->metrics().parks.load();
  }
  return c;
}

Counters Counters::operator-(const Counters& rhs) const {
  Counters d;
  d.io = io - rhs.io;
#define PERFBENCH_SUB(field) d.field = field - rhs.field;
  PERFBENCH_SUB(wal_transactions)
  PERFBENCH_SUB(wal_records)
  PERFBENCH_SUB(wal_delta_bytes)
  PERFBENCH_SUB(wal_log_page_writes)
  PERFBENCH_SUB(wal_log_syncs)
  PERFBENCH_SUB(wal_checkpoints)
  PERFBENCH_SUB(wal_group_batches)
  PERFBENCH_SUB(wal_group_commits)
  PERFBENCH_SUB(evictions)
  PERFBENCH_SUB(latch_waits)
  PERFBENCH_SUB(single_flight_waits)
  PERFBENCH_SUB(heads_updated)
  PERFBENCH_SUB(link_traversals)
  PERFBENCH_SUB(separate_writes)
  PERFBENCH_SUB(lock_conflicts)
  PERFBENCH_SUB(lock_aborts)
  PERFBENCH_SUB(lock_wait_ns)
  PERFBENCH_SUB(net_parks)
#undef PERFBENCH_SUB
  return d;
}

HistogramSnapshot HistogramSnapshot::Take(Database& db) {
  HistogramSnapshot snap;
  if (db.metrics() != nullptr) snap.samples_ = db.metrics()->Collect();
  return snap;
}

double HistogramSnapshot::Value(const std::string& name) const {
  double total = 0;
  for (const MetricSample& s : samples_) {
    if (s.name == name && !s.histogram) total += s.value;
  }
  return total;
}

const Histogram::Snapshot* HistogramSnapshot::Find(
    const std::string& name) const {
  for (const MetricSample& s : samples_) {
    if (s.name == name && s.histogram) return &*s.histogram;
  }
  return nullptr;
}

double HistogramSnapshot::DeltaPercentile(const HistogramSnapshot& before,
                                          const std::string& name,
                                          double p) const {
  const Histogram::Snapshot* now = Find(name);
  if (now == nullptr) return 0;
  const Histogram::Snapshot* then = before.Find(name);
  std::vector<double> counts(now->buckets.size());
  double total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t prior =
        then != nullptr && i < then->buckets.size() ? then->buckets[i] : 0;
    counts[i] = static_cast<double>(now->buckets[i] - prior);
    total += counts[i];
  }
  if (total == 0) return 0;
  // Linear interpolation inside the bucket that holds the rank; the +Inf
  // bucket reports its lower bound.
  const double rank = p * total;
  double seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0 || seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    const double lo = i == 0 ? 0 : static_cast<double>(now->bounds[i - 1]);
    if (i >= now->bounds.size()) return lo;
    const double hi = static_cast<double>(now->bounds[i]);
    return lo + (hi - lo) * (rank - seen) / counts[i];
  }
  return now->bounds.empty() ? 0 : static_cast<double>(now->bounds.back());
}

double HistogramSnapshot::DeltaSum(const HistogramSnapshot& before,
                                   const std::string& name) const {
  const Histogram::Snapshot* now = Find(name);
  const Histogram::Snapshot* then = before.Find(name);
  if (now == nullptr) return 0;
  return static_cast<double>(now->sum - (then != nullptr ? then->sum : 0));
}

uint64_t SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::AddStages(uint64_t parent, uint64_t op, uint64_t start_ns,
                        const QueryTrace& trace) {
  uint64_t at = start_ns;
  for (const QueryStageTrace& stage : trace.stages) {
    Span span;
    span.name = "stage." + stage.name;
    span.parent = parent;
    span.op = op;
    span.start_ns = at;
    span.end_ns = at + stage.wall_ns;
    span.delta.io = stage.io;
    at = span.end_ns;
    Add(std::move(span));
  }
}

SpanLog::SelfTimes SpanLog::ComputeSelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  SelfTimes out;
  out.self_ns.resize(spans_.size());
  // Ids are assigned densely from 1 in insertion order.
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent == 0) continue;
    const Span& parent = spans_[span.parent - 1];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      ++out.violations;
    }
    covered[span.parent - 1] += span.duration_ns();
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t duration = spans_[i].duration_ns();
    if (covered[i] > duration) ++out.violations;
    out.self_ns[i] = duration - std::min(covered[i], duration);
  }
  return out;
}

Status SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  for (const Span& s : spans_) {
    const Counters& d = s.delta;
    std::fprintf(
        f,
        "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
        "\"start_ns\":%llu,\"end_ns\":%llu,\"disk_reads\":%llu,"
        "\"disk_writes\":%llu,\"fetches\":%llu,\"hits\":%llu,"
        "\"read_ns\":%llu,\"write_ns\":%llu,\"evictions\":%llu,"
        "\"wal_records\":%llu,\"wal_delta_bytes\":%llu,\"wal_syncs\":%llu,"
        "\"checkpoints\":%llu,\"heads_updated\":%llu,"
        "\"separate_writes\":%llu,\"lock_conflicts\":%llu}\n",
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.op), s.name.c_str(),
        static_cast<unsigned long long>(s.start_ns),
        static_cast<unsigned long long>(s.end_ns),
        static_cast<unsigned long long>(d.io.disk_reads),
        static_cast<unsigned long long>(d.io.disk_writes),
        static_cast<unsigned long long>(d.io.fetches),
        static_cast<unsigned long long>(d.io.hits),
        static_cast<unsigned long long>(d.io.read_ns),
        static_cast<unsigned long long>(d.io.write_ns),
        static_cast<unsigned long long>(d.evictions),
        static_cast<unsigned long long>(d.wal_records),
        static_cast<unsigned long long>(d.wal_delta_bytes),
        static_cast<unsigned long long>(d.wal_log_syncs),
        static_cast<unsigned long long>(d.wal_checkpoints),
        static_cast<unsigned long long>(d.heads_updated),
        static_cast<unsigned long long>(d.separate_writes),
        static_cast<unsigned long long>(d.lock_conflicts));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IOError("short write to " + path);
}

}  // namespace fieldrep::perfbench
