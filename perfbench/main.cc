// The repo benchmark: the §6 read+update mix over one database holding all
// three replication strategies, run as one of three workloads (mix_cold,
// mix_warm, served_writes). See perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//
// Prints a metadata line, then one JSON result line (the last line of
// stdout). Exits non-zero when an output check or the integrity check
// fails, or when mix_cold cannot open its file O_DIRECT.

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/strings.h"
#include "fixture.h"
#include "net/server.h"
#include "tracing.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fieldrep::perfbench {
namespace {

/// Set-ups per run; setup_s is their median and the last one is measured.
constexpr int kSetupRepeats = 3;
/// Untimed operations before the measured phase, in seconds of load.
constexpr double kRampSeconds = 1.0;
/// A phase stops early (and says so) after this many times --seconds.
constexpr double kDeadlineFactor = 1.5;
/// Attempts of one served statement that wait-or-die keeps aborting.
constexpr int kMaxAttempts = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    default:
      return StringPrintf("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

// --- Output check ------------------------------------------------------------

/// The expected `repfield` of every S object. Embedded mixes keep the
/// exact current value. Served writers own disjoint keys (key % clients),
/// so each key's writes are sequential; readers take no locks, so a read
/// may see any version issued before it ended and not older than the
/// version acknowledged before it started.
class Oracle {
 public:
  explicit Oracle(uint32_t s_count)
      : current_(s_count), acked_(s_count), issued_(s_count) {
    for (uint32_t k = 0; k < s_count; ++k) current_[k] = InitialRepfield(k);
  }

  // Embedded (single client).
  void Assign(uint32_t lo, uint32_t hi, const std::string& value) {
    for (uint32_t k = lo; k <= hi; ++k) current_[k] = value;
  }
  bool Matches(uint32_t key, const std::string& value) const {
    return current_[key] == value;
  }

  // Served (one writer per key).
  static std::string Versioned(uint32_t key, uint32_t version) {
    return version == 0 ? InitialRepfield(key)
                        : StringPrintf("w%05u-%u", key, version);
  }
  uint32_t Issue(uint32_t key) {
    const uint32_t v = issued_[key].load(std::memory_order_relaxed) + 1;
    issued_[key].store(v, std::memory_order_release);
    return v;
  }
  void Ack(uint32_t key, uint32_t version) {
    acked_[key].store(version, std::memory_order_release);
  }
  uint32_t Acked(uint32_t key) const {
    return acked_[key].load(std::memory_order_acquire);
  }
  uint32_t Issued(uint32_t key) const {
    return issued_[key].load(std::memory_order_acquire);
  }
  static bool InWindow(uint32_t key, const std::string& value, uint32_t lo,
                       uint32_t hi) {
    for (uint32_t v = lo; v <= hi; ++v) {
      if (Versioned(key, v) == value) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> current_;
  std::vector<std::atomic<uint32_t>> acked_;
  std::vector<std::atomic<uint32_t>> issued_;
};

/// Checks one read's rows: exactly the selected keys, each carrying the
/// replicated value `expected(s_key, value)` accepts.
template <typename Expected>
bool CheckRows(const std::vector<std::vector<Value>>& rows, uint32_t lo,
               uint32_t count, const std::vector<uint32_t>& target,
               const Expected& expected) {
  if (rows.size() != count) return false;
  std::vector<char> seen(count, 0);
  for (const std::vector<Value>& row : rows) {
    if (row.size() != 2 || !row[0].is_int32() || !row[1].is_string()) {
      return false;
    }
    const int64_t key = row[0].as_int32();
    if (key < lo || key >= static_cast<int64_t>(lo) + count) return false;
    char& mark = seen[static_cast<size_t>(key - lo)];
    if (mark != 0) return false;
    mark = 1;
    if (!expected(target[static_cast<size_t>(key)], Trim(row[1].as_string()))) {
      return false;
    }
  }
  return true;
}

// --- Measurement -------------------------------------------------------------

/// Per-stage sums of the QueryTraces of one traced phase.
class TraceSums {
 public:
  void Add(const QueryTrace& trace) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const QueryStageTrace& stage : trace.stages) {
      Stage& s = stages_[stage.name];
      s.ns += stage.wall_ns;
      s.disk_reads += stage.io.disk_reads;
      s.fetches += stage.io.fetches;
    }
    if (trace.kind == QueryTrace::Kind::kRead) {
      const int set = SetIndex(trace.set_name);
      if (set >= 0) {
        ++set_reads_[set];
        set_pages_[set] += static_cast<double>(trace.io.disk_reads);
      }
      parallel_ranges_ += trace.parallel_ranges;
    } else {
      update_disk_reads_ += trace.io.disk_reads;
    }
    ++queries_;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    stages_.clear();
    for (int set = 0; set < kHeadSets; ++set) {
      set_reads_[set] = 0;
      set_pages_[set] = 0;
    }
    parallel_ranges_ = 0;
    update_disk_reads_ = 0;
    queries_ = 0;
  }

  struct Stage {
    uint64_t ns = 0;
    uint64_t disk_reads = 0;
    uint64_t fetches = 0;
  };
  Stage stage(const std::string& name) const {
    auto it = stages_.find(name);
    return it == stages_.end() ? Stage{} : it->second;
  }
  uint64_t queries() const { return queries_; }
  double set_reads(int set) const { return set_reads_[set]; }
  double set_pages(int set) const { return set_pages_[set]; }
  uint64_t parallel_ranges() const { return parallel_ranges_; }
  uint64_t update_disk_reads() const { return update_disk_reads_; }

 private:
  static int SetIndex(const std::string& name) {
    for (int set = 0; set < kHeadSets; ++set) {
      if (name == HeadSetName(set)) return set;
    }
    return -1;
  }

  std::mutex mu_;
  std::map<std::string, Stage> stages_;
  double set_reads_[kHeadSets] = {0, 0, 0};
  double set_pages_[kHeadSets] = {0, 0, 0};
  uint64_t parallel_ranges_ = 0;
  uint64_t update_disk_reads_ = 0;
  uint64_t queries_ = 0;
};

/// Latencies and outcomes of one client (merged after the phase).
struct ClientStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  bool deadline_hit = false;
  std::vector<double> read_ms;
  std::vector<double> update_ms;
  std::vector<double> set_read_ms[kHeadSets];

  void Merge(const ClientStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    retries += o.retries;
    deadline_hit = deadline_hit || o.deadline_hit;
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    update_ms.insert(update_ms.end(), o.update_ms.begin(), o.update_ms.end());
    for (int s = 0; s < kHeadSets; ++s) {
      set_read_ms[s].insert(set_read_ms[s].end(), o.set_read_ms[s].begin(),
                            o.set_read_ms[s].end());
    }
  }
};

struct Phase {
  ClientStats ops;
  double seconds = 0;  ///< first call to the end of the closing flush
  Counters delta;
  HistogramSnapshot hist_before;
  HistogramSnapshot hist_after;

  double ops_per_s() const {
    return Ratio(static_cast<double>(ops.attempted), seconds);
  }
};

/// Everything one measured database needs during a run.
struct Bench {
  const WorkloadConfig* config = nullptr;
  Args args;
  std::string db_path;
  DataShape shape;
  size_t pool_frames = 0;
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<Oracle> oracle;
  Random rng{0};
  uint64_t next_op = 1;
  uint64_t update_seq = 0;
  SpanLog spans;
  TraceSums sums;

  uint32_t heads_per_set() const { return shape.heads_per_set(); }
};

ReadQuery MakeRead(int set, uint32_t lo, uint32_t count) {
  ReadQuery q;
  q.set_name = HeadSetName(set);
  q.projections = {"field_r", "sref.repfield"};
  q.predicate = Predicate::Between("field_r", Value(static_cast<int32_t>(lo)),
                                   Value(static_cast<int32_t>(lo + count - 1)));
  return q;
}

Status OpenMeasured(Bench* b, bool with_trace_hook) {
  std::function<void(const QueryTrace&)> hook;
  if (with_trace_hook) {
    TraceSums* sums = &b->sums;
    hook = [sums](const QueryTrace& trace) { sums->Add(trace); };
  }
  FIELDREP_ASSIGN_OR_RETURN(
      b->db, Database::Open(DatabaseOptions(*b->config, b->db_path,
                                            b->pool_frames, false,
                                            std::move(hook))));
  if (b->config->pool_fraction > 0) return Status::OK();
  // Pool holds everything: fill it with one full read of every head set
  // (heads, replicas, S, S' and the clause indexes).
  for (int set = 0; set < kHeadSets; ++set) {
    ReadResult result;
    FIELDREP_RETURN_IF_ERROR(
        b->db->Retrieve(MakeRead(set, 0, b->heads_per_set()), &result));
  }
  return Status::OK();
}

Status StartServer(Bench* b) {
  net::ServerOptions options;
  options.address = "unix:" + b->args.dir + "/server.sock";
  options.max_sessions = static_cast<size_t>(b->config->clients) + 4;
  options.worker_threads = b->config->server_workers;
  FIELDREP_ASSIGN_OR_RETURN(b->server,
                            net::Server::Start(b->db.get(), options));
  return Status::OK();
}

/// Builds, opens (and warms) the database kSetupRepeats times; returns the
/// median wall time. The last set-up stays open for measurement.
Status SetUp(Bench* b, double* setup_s) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    b->db.reset();
    // A fresh file per set-up: deleting the previous one now would put
    // the filesystem's block freeing inside the timed set-up. All of them
    // are removed when the run ends.
    b->db_path = StringPrintf("%s/fieldrep-%d.db", b->args.dir.c_str(), i);
    const uint64_t t0 = NowNs();
    b->shape = DataShape();
    FIELDREP_RETURN_IF_ERROR(
        BuildDatabase(*b->config, b->args.seed, b->db_path, &b->shape));
    b->pool_frames =
        b->config->pool_fraction > 0
            ? std::max<size_t>(64, static_cast<size_t>(
                                       b->shape.data_pages *
                                       b->config->pool_fraction))
            : b->shape.data_pages + b->shape.data_pages / 8 + 256;
    FIELDREP_RETURN_IF_ERROR(OpenMeasured(b, false));
    if (b->config->served) FIELDREP_RETURN_IF_ERROR(StartServer(b));
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i + 1 < kSetupRepeats && b->server) {
      b->server->Stop();
      b->server.reset();
    }
  }
  *setup_s = Percentile(times, 0.5);
  return Status::OK();
}

/// Ends a phase: the closing flush is part of the measured time.
Status FinishPhase(Bench* b, uint64_t start_ns, const Counters& before,
                   bool traced, Phase* phase) {
  const Counters pre_flush = Counters::Take(*b->db, b->server.get());
  const uint64_t flush_start = NowNs();
  FIELDREP_RETURN_IF_ERROR(b->db->pool().FlushAll());
  const uint64_t end = NowNs();
  if (traced) {
    Span span;
    span.name = "flush";
    span.start_ns = flush_start;
    span.end_ns = end;
    span.delta = Counters::Take(*b->db, b->server.get()) - pre_flush;
    b->spans.Add(std::move(span));
  }
  phase->seconds = static_cast<double>(end - start_ns) / 1e9;
  phase->delta = Counters::Take(*b->db, b->server.get()) - before;
  phase->hist_after = HistogramSnapshot::Take(*b->db);
  return Status::OK();
}

uint64_t DeadlineNs(const Bench& b) {
  return static_cast<uint64_t>(b.args.seconds * kDeadlineFactor * 1e9);
}

/// One embedded closed-loop client: `ops` operations from b->rng.
Status RunEmbeddedPhase(Bench* b, uint64_t ops, bool traced, Phase* phase) {
  const WorkloadConfig& c = *b->config;
  Database& db = *b->db;
  const uint32_t heads = b->heads_per_set();
  const std::string filler = UpdateFiller();
  phase->hist_before = HistogramSnapshot::Take(db);
  const Counters before = Counters::Take(db, nullptr);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + DeadlineNs(*b);
  for (uint64_t i = 0; i < ops; ++i) {
    if (NowNs() > deadline) {
      phase->ops.deadline_hit = true;
      break;
    }
    const uint64_t op = b->next_op++;
    const bool update = b->rng.NextDouble() < c.p_update;
    QueryTrace trace;
    QueryTrace* tp = traced ? &trace : nullptr;
    Counters c0;
    if (traced) c0 = Counters::Take(db, nullptr);
    uint64_t t0 = 0;
    uint64_t t1 = 0;
    bool ok = false;
    int set = -1;
    if (update) {
      const uint32_t lo =
          static_cast<uint32_t>(b->rng.Uniform(kSCount - c.update_objects + 1));
      const uint32_t hi = lo + c.update_objects - 1;
      const std::string value = StringPrintf(
          "u%llu", static_cast<unsigned long long>(++b->update_seq));
      UpdateQuery q;
      q.set_name = "S";
      q.predicate = Predicate::Between("field_s",
                                       Value(static_cast<int32_t>(lo)),
                                       Value(static_cast<int32_t>(hi)));
      q.assignments = {{"repfield", Value(value)}, {"filler", Value(filler)}};
      UpdateResult result;
      t0 = NowNs();
      Status s = traced ? db.Replace(q, &result, tp) : db.Replace(q, &result);
      t1 = NowNs();
      ok = s.ok() && result.objects_updated == c.update_objects;
      if (ok) b->oracle->Assign(lo, hi, value);
      phase->ops.update_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    } else {
      set = static_cast<int>(b->rng.Uniform(kHeadSets));
      const uint32_t lo =
          static_cast<uint32_t>(b->rng.Uniform(heads - c.read_heads + 1));
      ReadResult result;
      const ReadQuery q = MakeRead(set, lo, c.read_heads);
      t0 = NowNs();
      Status s = traced ? db.Retrieve(q, &result, tp) : db.Retrieve(q, &result);
      t1 = NowNs();
      const Oracle& oracle = *b->oracle;
      ok = s.ok() &&
           CheckRows(result.rows, lo, c.read_heads, b->shape.head_target[set],
                     [&oracle](uint32_t key, const std::string& v) {
                       return oracle.Matches(key, v);
                     });
      const double ms = static_cast<double>(t1 - t0) / 1e6;
      phase->ops.read_ms.push_back(ms);
      phase->ops.set_read_ms[set].push_back(ms);
    }
    ++phase->ops.attempted;
    if (!ok) ++phase->ops.failed;
    if (traced) {
      Span span;
      span.name = update ? "op.update" : "op.read";
      span.op = op;
      span.start_ns = t0;
      span.end_ns = t1;
      span.delta = Counters::Take(db, nullptr) - c0;
      const uint64_t id = b->spans.Add(std::move(span));
      b->spans.AddStages(id, op, t0, trace);
      b->sums.Add(trace);
    }
  }
  return FinishPhase(b, start, before, traced, phase);
}

/// One served client: its own connection and prepared statements, then a
/// closed loop of `ops` operations once every client is ready.
void ServedClient(Bench* b, int client, uint64_t ops, uint64_t seed,
                  bool traced, std::latch* ready, std::latch* go,
                  const uint64_t* deadline, ClientStats* out) {
  const WorkloadConfig& c = *b->config;
  const int clients = c.clients;
  const uint32_t heads = b->heads_per_set();
  auto fail_all = [&] {
    out->attempted = ops;
    out->failed = ops;
    ready->count_down();
    go->wait();
  };
  auto connected = client::Client::Connect(b->server->address(), "perfbench");
  if (!connected.ok()) return fail_all();
  client::Client& conn = **connected;
  uint32_t read_stmt[kHeadSets];
  for (int set = 0; set < kHeadSets; ++set) {
    net::ReadStatement st;
    st.set_name = HeadSetName(set);
    st.projections = {"field_r", "sref.repfield"};
    st.predicate = net::StatementPredicate{"field_r", CompareOp::kBetween,
                                           net::WireOperand::Param(0),
                                           net::WireOperand::Param(1)};
    auto id = conn.PrepareRead(st);
    if (!id.ok()) return fail_all();
    read_stmt[set] = *id;
  }
  net::UpdateStatement ust;
  ust.set_name = "S";
  ust.predicate = net::StatementPredicate{"field_s", CompareOp::kEq,
                                          net::WireOperand::Param(0), {}};
  ust.assignments = {{"repfield", net::WireOperand::Param(1)},
                     {"filler", net::WireOperand::Lit(Value(UpdateFiller()))}};
  auto update_stmt = conn.PrepareUpdate(ust);
  if (!update_stmt.ok()) return fail_all();

  // This client owns the S keys congruent to its index; the zipfian rank
  // picks among them (rank 0 hottest).
  Random rng(seed);
  const Zipfian zipf(kSCount / static_cast<uint32_t>(clients), kZipfTheta);
  Oracle& oracle = *b->oracle;
  ready->count_down();
  go->wait();

  int next_set = client % kHeadSets;
  for (uint64_t i = 0; i < ops; ++i) {
    if (NowNs() > *deadline) {
      out->deadline_hit = true;
      break;
    }
    const uint64_t op = (static_cast<uint64_t>(client) << 40) | (i + 1);
    const bool update = rng.NextDouble() < c.p_update;
    bool ok = false;
    uint64_t t0 = 0;
    uint64_t t1 = 0;
    if (update) {
      const uint32_t key =
          static_cast<uint32_t>(zipf.Next(&rng)) * clients + client;
      const uint32_t version = oracle.Issue(key);
      const std::vector<Value> params = {
          Value(static_cast<int32_t>(key)),
          Value(Oracle::Versioned(key, version))};
      UpdateResult result;
      Status s;
      t0 = NowNs();
      for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
        s = conn.ExecuteUpdate(*update_stmt, params, &result);
        if (!s.IsAborted()) break;
        ++out->retries;
      }
      t1 = NowNs();
      ok = s.ok() && result.objects_updated == 1;
      if (ok) oracle.Ack(key, version);
      out->update_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    } else {
      const int set = next_set;
      next_set = (next_set + 1) % kHeadSets;
      const uint32_t lo =
          static_cast<uint32_t>(rng.Uniform(heads - c.read_heads + 1));
      const std::vector<uint32_t>& target = b->shape.head_target[set];
      // The oldest version each S object reached by this read may show.
      std::map<uint32_t, uint32_t> low;
      for (uint32_t j = 0; j < c.read_heads; ++j) {
        const uint32_t key = target[lo + j];
        low[key] = oracle.Acked(key);
      }
      ReadResult result;
      t0 = NowNs();
      Status s = conn.ExecuteRead(read_stmt[set],
                                  {Value(static_cast<int32_t>(lo)),
                                   Value(static_cast<int32_t>(
                                       lo + c.read_heads - 1))},
                                  &result);
      t1 = NowNs();
      ok = s.ok() && CheckRows(result.rows, lo, c.read_heads, target,
                               [&](uint32_t key, const std::string& v) {
                                 return Oracle::InWindow(key, v, low[key],
                                                         oracle.Issued(key));
                               });
      const double ms = static_cast<double>(t1 - t0) / 1e6;
      out->read_ms.push_back(ms);
      out->set_read_ms[set].push_back(ms);
    }
    ++out->attempted;
    if (!ok) ++out->failed;
    if (traced) {
      Span span;
      span.name = update ? "op.update" : "op.read";
      span.op = op;
      span.start_ns = t0;
      span.end_ns = t1;
      b->spans.Add(std::move(span));
    }
  }
}

Status RunServedPhase(Bench* b, uint64_t ops, bool traced, Phase* phase) {
  const int clients = b->config->clients;
  std::latch ready(clients);
  std::latch go(1);
  std::vector<ClientStats> stats(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  const uint64_t per_client = std::max<uint64_t>(1, ops / clients);
  uint64_t deadline = 0;  // written before `go` opens, read after
  for (int i = 0; i < clients; ++i) {
    const uint64_t seed = b->rng.NextU64();
    threads.emplace_back(ServedClient, b, i, per_client, seed, traced, &ready,
                         &go, &deadline, &stats[static_cast<size_t>(i)]);
  }
  ready.wait();
  phase->hist_before = HistogramSnapshot::Take(*b->db);
  const Counters before = Counters::Take(*b->db, b->server.get());
  const uint64_t start = NowNs();
  deadline = start + DeadlineNs(*b);
  go.count_down();
  for (std::thread& t : threads) t.join();
  for (const ClientStats& s : stats) phase->ops.Merge(s);
  return FinishPhase(b, start, before, traced, phase);
}

/// Operations in `seconds` of the workload's calibrated rate.
uint64_t OpsFor(const Bench& b, double seconds) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(
             static_cast<double>(b.config->ops_per_second) * seconds));
}

Status RunPhase(Bench* b, uint64_t ops, bool traced, Phase* phase) {
  return b->config->served ? RunServedPhase(b, ops, traced, phase)
                           : RunEmbeddedPhase(b, ops, traced, phase);
}

/// Untimed: a clean CheckIntegrity after the run, recorded as a span.
Status CheckAfterRun(Bench* b, bool* clean) {
  if (b->server) {
    b->server->Stop();
    b->server.reset();
  }
  const uint64_t t0 = NowNs();
  // The check visits every page: reopen with a pool that holds them all,
  // so a small measured pool does not turn it into random device reads.
  if (b->pool_frames < b->shape.data_pages) {
    b->db.reset();
    FIELDREP_ASSIGN_OR_RETURN(
        b->db, Database::Open(DatabaseOptions(*b->config, b->db_path,
                                              b->shape.data_pages + 1024,
                                              false)));
  }
  CheckReport report;
  FIELDREP_RETURN_IF_ERROR(b->db->CheckIntegrity(&report));
  Span span;
  span.name = "fsck";
  span.start_ns = t0;
  span.end_ns = NowNs();
  b->spans.Add(std::move(span));
  *clean = report.ok();
  if (!*clean) {
    std::fprintf(stderr, "integrity check failed:\n%s\n",
                 report.ToString().c_str());
  }
  return Status::OK();
}

// --- Reporting ---------------------------------------------------------------

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += StringPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i == 0 ? "" : ", ", e.name.c_str(), e.value,
                          e.unit.c_str());
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void AddEndToEnd(const Bench& b, const Phase& p, double setup_s,
                 double stored_bytes, Metrics* m) {
  const double ops = static_cast<double>(p.ops.attempted);
  m->Add("setup_s", setup_s, "s");
  m->Add("ops_per_s", p.ops_per_s(), "1/s");
  m->Add("read_p50_ms", Percentile(p.ops.read_ms, 0.50), "ms");
  m->Add("update_p50_ms", Percentile(p.ops.update_ms, 0.50), "ms");
  m->Add("ok_frac", 1.0 - Ratio(static_cast<double>(p.ops.failed), ops),
         "ratio");
  m->Add("pages_per_op",
         Ratio(static_cast<double>(p.delta.io.TotalIo()), ops), "pages");
  m->Add("space_amp", Ratio(stored_bytes, b.shape.user_bytes), "ratio");
  m->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

void AddPerLayer(const Bench& b, const Phase& untraced, const Phase& p,
                 Metrics* m) {
  const WorkloadConfig& c = *b.config;
  const Counters& d = p.delta;
  const double ops = static_cast<double>(p.ops.attempted);
  const double reads = static_cast<double>(p.ops.read_ms.size());
  const double updates = static_cast<double>(p.ops.update_ms.size());
  const auto per_op = [ops](uint64_t v) {
    return Ratio(static_cast<double>(v), ops);
  };
  const auto per_update = [updates](uint64_t v) {
    return Ratio(static_cast<double>(v), updates);
  };
  const HistogramSnapshot& h0 = p.hist_before;
  const HistogramSnapshot& h1 = p.hist_after;

  // Latency tails: per layer, because between runs they drift by more
  // than any end-to-end bound allows on a shared sandbox (see README).
  m->Add("tail.read_p90_ms", Percentile(p.ops.read_ms, 0.90), "ms");
  m->Add("tail.read_p99_ms", Percentile(p.ops.read_ms, 0.99), "ms");
  m->Add("tail.update_p90_ms", Percentile(p.ops.update_ms, 0.90), "ms");
  m->Add("tail.update_p99_ms", Percentile(p.ops.update_ms, 0.99), "ms");

  // storage: buffer pool and device.
  m->Add("pool.hit_ratio",
         Ratio(static_cast<double>(d.io.hits),
               static_cast<double>(d.io.fetches)),
         "ratio");
  m->Add("pool.pages_read_per_op", per_op(d.io.disk_reads), "pages");
  m->Add("pool.pages_written_per_op", per_op(d.io.disk_writes), "pages");
  m->Add("pool.evictions_per_op", per_op(d.evictions), "count");
  m->Add("pool.latch_waits_per_op", per_op(d.latch_waits), "count");
  m->Add("pool.single_flight_waits_per_op", per_op(d.single_flight_waits),
         "count");
  m->Add("device.read_us_per_op", per_op(d.io.read_ns) / 1e3, "us");
  m->Add("device.write_us_per_op", per_op(d.io.write_ns) / 1e3, "us");
  m->Add("device.batched_read_share",
         Ratio(static_cast<double>(d.io.batched_reads),
               static_cast<double>(d.io.bytes_read) / 4096.0),
         "ratio");
  m->Add("device.coalesced_write_share",
         Ratio(static_cast<double>(d.io.coalesced_writes),
               static_cast<double>(d.io.disk_writes)),
         "ratio");
  m->Add("uring.cqe_latency_p50_us",
         h1.DeltaPercentile(h0, "fieldrep_uring_cqe_latency_ns", 0.5) / 1e3,
         "us");
  m->Add("uring.sqes_per_batch",
         Ratio(h1.Value("fieldrep_uring_sqes_submitted_total") -
                   h0.Value("fieldrep_uring_sqes_submitted_total"),
               h1.Value("fieldrep_uring_sqe_batches_total") -
                   h0.Value("fieldrep_uring_sqe_batches_total")),
         "count");

  // wal.
  m->Add("wal.log_bytes_per_update", per_update(d.wal_delta_bytes), "B");
  m->Add("wal.records_per_update", per_update(d.wal_records), "count");
  m->Add("wal.log_pages_per_update", per_update(d.wal_log_page_writes),
         "count");
  m->Add("wal.commit_p50_us",
         h1.DeltaPercentile(h0, "fieldrep_wal_commit_latency_ns", 0.5) / 1e3,
         "us");
  m->Add("wal.checkpoints_per_1k_updates",
         1000.0 * per_update(d.wal_checkpoints), "count");
  m->Add("wal.checkpoint_ms_per_op",
         Ratio(h1.DeltaSum(h0, "fieldrep_wal_checkpoint_duration_ns"), ops) /
             1e6,
         "ms");
  m->Add("wal.syncs_per_commit",
         Ratio(static_cast<double>(d.wal_log_syncs),
               static_cast<double>(d.wal_transactions)),
         "count");
  m->Add("wal.group_batch_size",
         Ratio(static_cast<double>(d.wal_group_commits),
               static_cast<double>(d.wal_group_batches)),
         "count");

  // replication.
  m->Add("repl.heads_updated_per_update", per_update(d.heads_updated),
         "count");
  m->Add("repl.link_traversals_per_update", per_update(d.link_traversals),
         "count");
  m->Add("repl.separate_writes_per_update", per_update(d.separate_writes),
         "count");

  // query: self time per op of each executor stage (stages do not nest,
  // so a stage's wall time is its self time), and read latency per
  // strategy.
  const TraceSums& sums = b.sums;
  for (const char* stage :
       {"plan", "collect", "heads", "replicas", "joins", "output", "update"}) {
    m->Add(StringPrintf("query.%s_us", stage),
           per_op(sums.stage(stage).ns) / 1e3, "us");
  }
  m->Add("query.read_join_ms", Percentile(p.ops.set_read_ms[kRn], 0.5), "ms");
  m->Add("query.read_inplace_ms", Percentile(p.ops.set_read_ms[kRi], 0.5),
         "ms");
  m->Add("query.read_separate_ms", Percentile(p.ops.set_read_ms[kRs], 0.5),
         "ms");
  m->Add("query.heads_pages",
         Ratio(static_cast<double>(sums.stage("heads").disk_reads), reads),
         "pages");
  m->Add("query.joins_pages",
         Ratio(static_cast<double>(sums.stage("joins").disk_reads), reads),
         "pages");

  // index: collect-stage page fetches per query.
  m->Add("index.pages_per_collect",
         Ratio(static_cast<double>(sums.stage("collect").fetches),
               static_cast<double>(sums.queries())),
         "pages");

  // common: the read fan-out pool.
  m->Add("threadpool.task_us_p50",
         h1.DeltaPercentile(h0, "fieldrep_threadpool_task_ns", 0.5) / 1e3,
         "us");
  m->Add("threadpool.ranges_per_read",
         Ratio(static_cast<double>(sums.parallel_ranges()), reads), "count");

  // db: per-set two-phase locks.
  m->Add("lock.conflicts_per_op", per_op(d.lock_conflicts), "count");
  m->Add("lock.aborts_per_op", per_op(d.lock_aborts), "count");
  m->Add("lock.wait_us_per_op", per_op(d.lock_wait_ns) / 1e3, "us");

  // net + client.
  const double server_p50_us =
      h1.DeltaPercentile(h0, "fieldrep_net_request_ns", 0.5) / 1e3;
  std::vector<double> all_ms = p.ops.read_ms;
  all_ms.insert(all_ms.end(), p.ops.update_ms.begin(), p.ops.update_ms.end());
  m->Add("net.request_us_p50", server_p50_us, "us");
  m->Add("net.client_overhead_us",
         c.served ? Percentile(all_ms, 0.5) * 1e3 - server_p50_us : 0, "us");
  m->Add("net.parks_per_op", per_op(d.net_parks), "count");
  m->Add("net.retries_per_op", per_op(p.ops.retries), "count");

  // costmodel: §6 predictions next to measured pages. Reads: device reads
  // of the query (the model's output-file term is excluded; reads here
  // write no output). Updates: device reads inside the update plus every
  // page written in the phase (reads dirty nothing), against the in-place
  // update cost plus the separate strategy's S' terms (one S, two paths).
  const double fr = static_cast<double>(c.read_heads) /
                    static_cast<double>(b.heads_per_set());
  const double fs =
      static_cast<double>(c.update_objects) / static_cast<double>(kSCount);
  for (int set = 0; set < kHeadSets; ++set) {
    const CostModel model(ModelParams(b.shape, set, fr, fs));
    const CostTerms terms =
        model.ReadTerms(StrategyOf(set), IndexSetting::kUnclustered);
    const double predicted = terms.Total() - terms.output;
    const double measured = Ratio(sums.set_pages(set), sums.set_reads(set));
    m->Add(StringPrintf("costmodel.read_pred.%s", StrategyName(set)),
           predicted, "pages");
    m->Add(StringPrintf("costmodel.read_meas.%s", StrategyName(set)),
           measured, "pages");
    m->Add(StringPrintf("costmodel.read_ratio.%s", StrategyName(set)),
           Ratio(measured, predicted), "ratio");
  }
  const CostModel inplace(ModelParams(b.shape, kRi, fr, fs));
  const CostModel separate(ModelParams(b.shape, kRs, fr, fs));
  const CostTerms sep_terms =
      separate.UpdateTerms(ModelStrategy::kSeparate, IndexSetting::kUnclustered);
  const double update_pred =
      inplace.UpdateCost(ModelStrategy::kInPlace, IndexSetting::kUnclustered) +
      sep_terms.update_sprime_read + sep_terms.update_sprime_write;
  const double update_meas =
      Ratio(static_cast<double>(sums.update_disk_reads() + d.io.disk_writes),
            updates);
  m->Add("costmodel.update_pred", update_pred, "pages");
  m->Add("costmodel.update_meas", update_meas, "pages");
  m->Add("costmodel.update_ratio", Ratio(update_meas, update_pred), "ratio");

  // trace: spans, their self times, and what tracing costs.
  const SpanLog::SelfTimes self = b.spans.ComputeSelfTimes();
  double read_self = 0;
  double update_self = 0;
  for (size_t i = 0; i < b.spans.spans().size(); ++i) {
    const std::string& name = b.spans.spans()[i].name;
    if (name == "op.read") read_self += static_cast<double>(self.self_ns[i]);
    if (name == "op.update") {
      update_self += static_cast<double>(self.self_ns[i]);
    }
  }
  m->Add("trace.read_self_us", Ratio(read_self, reads) / 1e3, "us");
  m->Add("trace.update_self_us", Ratio(update_self, updates) / 1e3, "us");
  m->Add("trace.spans", static_cast<double>(b.spans.spans().size()), "count");
  m->Add("trace.violations", static_cast<double>(self.violations), "count");
  m->Add("trace.overhead_pct",
         100.0 * (1.0 - Ratio(p.ops_per_s(), untraced.ops_per_s())), "%");

  // Configuration, so every traced result carries it.
  m->Add("meta.nproc", static_cast<double>(std::thread::hardware_concurrency()),
         "count");
  m->Add("meta.data_pages", b.shape.data_pages, "pages");
  m->Add("meta.pool_frames", static_cast<double>(b.pool_frames), "pages");
  m->Add("meta.o_direct", h1.Value("fieldrep_uring_o_direct"), "count");
  m->Add("meta.ring_active", h1.Value("fieldrep_uring_ring_active"), "count");
}

void PrintMeta(const Bench& b, const Phase& p, bool o_direct, bool ring) {
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"filesystem\": \"%s\", "
      "\"build_type\": \"%s\", \"data_pages\": %u, \"pool_frames\": %zu, "
      "\"o_direct\": %s, \"ring_active\": %s, \"ops\": %llu, "
      "\"deadline_hit\": %s}}\n",
      b.config->name.c_str(), static_cast<unsigned long long>(b.args.seed),
      b.args.seconds, b.args.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      FilesystemName(b.args.dir).c_str(), PERFBENCH_BUILD_TYPE,
      b.shape.data_pages, b.pool_frames, o_direct ? "true" : "false",
      ring ? "true" : "false",
      static_cast<unsigned long long>(p.ops.attempted),
      p.ops.deadline_hit ? "true" : "false");
}

int Fail(const Status& s, const char* what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
  return 2;
}

int Run(const Args& args) {
  Bench b;
  b.config = FindWorkload(args.workload);
  if (b.config == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  b.args = args;
  b.rng = Random(args.seed * 0x9E3779B97F4A7C15ULL + 1);

  double setup_s = 0;
  Status s = SetUp(&b, &setup_s);
  if (!s.ok()) return Fail(s, "set-up");
  b.oracle = std::make_unique<Oracle>(kSCount);

  // Configuration guard: mix_cold measures the device, not the page cache.
  const HistogramSnapshot opened = HistogramSnapshot::Take(*b.db);
  const bool o_direct = opened.Value("fieldrep_uring_o_direct") == 1;
  const bool ring = opened.Value("fieldrep_uring_ring_active") == 1;
  if (!o_direct && b.config->pool_fraction > 0) {
    std::fprintf(stderr,
                 "perfbench: %s needs O_DIRECT, but the device fell back to "
                 "buffered I/O on this filesystem; refusing to report\n",
                 b.config->name.c_str());
    return 3;
  }

  // Ramp: fill the pool and finish lazy initialisation before timing.
  // Its operations are checked like every other.
  Phase ramp;
  s = RunPhase(&b, OpsFor(b, kRampSeconds), false, &ramp);
  if (!s.ok()) return Fail(s, "ramp");
  const uint64_t ops = OpsFor(b, args.seconds);
  Phase untraced;
  s = RunPhase(&b, ops, false, &untraced);
  if (!s.ok()) return Fail(s, "measured phase");
  Phase traced;
  if (args.trace) {
    if (b.config->served) {
      // Server-side QueryTraces come from the slow-query hook, which is
      // armed at Open: reopen (and rewarm) with it for the traced phase.
      b.server->Stop();
      b.server.reset();
      s = b.db->Checkpoint();
      if (s.ok()) {
        b.db.reset();
        s = OpenMeasured(&b, true);
      }
      if (s.ok()) s = StartServer(&b);
      if (s.ok()) s = RunPhase(&b, OpsFor(b, kRampSeconds), false, &ramp);
      if (!s.ok()) return Fail(s, "traced reopen");
      b.sums.Reset();  // the warm-up and ramp queries were traced too
    }
    s = RunPhase(&b, ops, true, &traced);
    if (!s.ok()) return Fail(s, "traced phase");
  }
  const Phase& reported = args.trace ? traced : untraced;
  // Space at the end of the run, before the check reopens anything.
  const double stored_bytes = static_cast<double>(
      FileBytes(b.db_path) + FileBytes(b.db_path + ".wal"));

  bool clean = false;
  const uint64_t check_start = NowNs();
  s = CheckAfterRun(&b, &clean);
  if (!s.ok()) return Fail(s, "integrity check");
  std::fprintf(stderr,
               "perfbench: %s setup %.2f s (median of %d), phase %.2f s, "
               "integrity check %.2f s\n",
               b.config->name.c_str(), setup_s, kSetupRepeats,
               untraced.seconds,
               static_cast<double>(NowNs() - check_start) / 1e9);

  Metrics metrics;
  if (args.trace) {
    AddPerLayer(b, untraced, traced, &metrics);
  } else {
    AddEndToEnd(b, untraced, setup_s, stored_bytes, &metrics);
  }
  if (args.trace) {
    const std::string path = StringPrintf("%s/spans-%s.jsonl", args.dir.c_str(),
                                          b.config->name.c_str());
    s = b.spans.WriteJsonLines(path);
    if (!s.ok()) return Fail(s, "writing spans");
  }
  b.db.reset();
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string path = StringPrintf("%s/fieldrep-%d.db", args.dir.c_str(), i);
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }

  const uint64_t attempted = ramp.ops.attempted + untraced.ops.attempted +
                             (args.trace ? traced.ops.attempted : 0);
  const uint64_t failed = ramp.ops.failed + untraced.ops.failed +
                          (args.trace ? traced.ops.failed : 0) +
                          (clean ? 0 : 1);
  const bool correct = failed == 0;
  PrintMeta(b, reported, o_direct, ring);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fieldrep::perfbench

int main(int argc, char** argv) {
  fieldrep::perfbench::Args args;
  if (!fieldrep::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dir DIR\n");
    return 2;
  }
  return fieldrep::perfbench::Run(args);
}
