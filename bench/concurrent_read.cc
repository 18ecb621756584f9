// Read-query throughput at increasing worker counts on one populated
// database (the PR's tentpole measurement): an in-place-replicated
// workload is built once, the buffer pool is warmed until the whole
// working set is resident, and the same indexed read query (projecting a
// replicated path, so no functional join) is timed at 1/2/4/8 worker
// threads via Database::SetWorkerThreads.
//
// With the data buffer-resident the numbers isolate the query engine's
// parallel speedup — sharded page table, per-frame latches, page-aligned
// range fan-out — from disk scheduling. The logical I/O counters of every
// run are asserted identical to the single-threaded plan's, which is the
// engine-level restatement of the paper's cost model being preserved: the
// parallel executor changes *when* pages are touched, never *how many*.
//
// --mixed=W switches to the mixed read/write workload (DESIGN.md §14):
// two reader threads run the same indexed read query while W writer
// threads concurrently update the replicated field on S (each update
// propagates into the in-place replicas on R). Readers take no set locks
// — the bench reports read throughput with and without the writers
// running, the writers' update rate, and the lock table's conflict
// counters. Reader row counts are still asserted (every query sees all
// |R| rows); the logical-I/O equality check is read-only-ladder only,
// since concurrent writers legitimately perturb page traffic.
//
// Usage: concurrent_read [s_count] [queries_per_step]
//                        [--threads=N] [--read-ahead=0|1] [--mixed[=W]]
//                        [--json[=path]]
// --threads adds one extra ladder step (e.g. --threads=16).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"

namespace fieldrep::bench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Mixed read/write mode: two reader threads against `writers` concurrent
/// updaters of S.repfield (which propagates into the in-place replicas on
/// R, so every write transaction X-locks both sets). Readers never touch
/// the lock table; the interesting numbers are how little read throughput
/// drops and that all writer/writer conflicts land on the S/R locks.
int RunMixed(uint32_t s_count, int queries, int writers, bool read_ahead,
             const std::string& json_path) {
  std::printf(
      "== Mixed read/write: 2 readers vs %d writer%s on the replicated "
      "field ==\n",
      writers, writers == 1 ? "" : "s");
  WorkloadOptions options;
  options.s_count = s_count;
  options.f = 5;
  options.strategy = ModelStrategy::kInPlace;
  options.read_ahead = read_ahead;
  auto workload = BuildModelWorkload(options);
  if (!workload.ok()) {
    std::printf("build failed: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  Database& db = *workload->db;
  const uint32_t r_count = static_cast<uint32_t>(workload->r_oids.size());

  ReadQuery query;
  query.set_name = "R";
  query.projections = {"field_r", "sref.repfield"};
  query.predicate = Predicate::Between(
      "field_r", Value(int32_t{0}), Value(static_cast<int32_t>(r_count - 1)));

  // Warm pass, as in the read-only ladder.
  ReadResult warm;
  Status s = db.Retrieve(query, &warm);
  if (!s.ok() || warm.rows.size() != r_count) {
    std::printf("warmup failed: %s (%zu rows)\n", s.ToString().c_str(),
                warm.rows.size());
    return 1;
  }

  constexpr int kReaders = 2;
  std::atomic<bool> read_failed{false};
  auto read_pass = [&]() -> double {
    const uint64_t start = NowNs();
    std::vector<std::thread> threads;
    for (int t = 0; t < kReaders; ++t) {
      threads.emplace_back([&] {
        for (int q = 0; q < queries && !read_failed.load(); ++q) {
          ReadResult result;
          Status rs = db.Retrieve(query, &result);
          if (!rs.ok() || result.rows.size() != r_count) {
            std::printf("read failed: %s (%zu rows)\n",
                        rs.ToString().c_str(), result.rows.size());
            read_failed.store(true);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double sec = static_cast<double>(NowNs() - start) / 1e9;
    return sec > 0 ? static_cast<double>(kReaders * queries) / sec : 0;
  };

  const double readonly_qps = read_pass();
  if (read_failed.load()) return 1;

  const uint64_t conflicts_before = db.lock_table().conflicts();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::atomic<bool> write_failed{false};
  std::vector<std::thread> writer_threads;
  for (int w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      int trial = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        UpdateQuery update;
        update.set_name = "S";
        update.predicate = Predicate::Compare(
            "field_s", CompareOp::kEq,
            Value(static_cast<int32_t>(
                (static_cast<uint32_t>(w) * 7919u +
                 static_cast<uint32_t>(trial)) %
                s_count)));
        update.assignments.emplace_back(
            "repfield", Value(StringPrintf("mix-%06d", trial)));
        UpdateResult result;
        Status us = db.Replace(update, &result);
        if (!us.ok()) {
          std::printf("write failed: %s\n", us.ToString().c_str());
          write_failed.store(true);
          return;
        }
        writes.fetch_add(1, std::memory_order_relaxed);
        ++trial;
      }
    });
  }
  const uint64_t mixed_start = NowNs();
  const double mixed_qps = read_pass();
  stop.store(true);
  for (auto& t : writer_threads) t.join();
  const double mixed_sec =
      static_cast<double>(NowNs() - mixed_start) / 1e9;
  if (read_failed.load() || write_failed.load()) return 1;
  const double writes_per_sec =
      mixed_sec > 0 ? static_cast<double>(writes.load()) / mixed_sec : 0;
  const uint64_t lock_conflicts =
      db.lock_table().conflicts() - conflicts_before;

  std::printf("  %-28s %12.1f queries/s\n", "read-only (2 readers):",
              readonly_qps);
  std::printf("  %-28s %12.1f queries/s (%.0f%% of read-only)\n",
              StringPrintf("with %d writer%s:", writers,
                           writers == 1 ? "" : "s")
                  .c_str(),
              mixed_qps,
              readonly_qps > 0 ? 100.0 * mixed_qps / readonly_qps : 0);
  std::printf("  %-28s %12.1f updates/s (%llu total)\n", "writer throughput:",
              writes_per_sec, static_cast<unsigned long long>(writes.load()));
  std::printf("  %-28s %12llu\n", "lock conflicts:",
              static_cast<unsigned long long>(lock_conflicts));

  BenchJson json("concurrent_read_mixed");
  json.Add("s_count", s_count);
  json.Add("queries_per_reader", queries);
  json.Add("readers", kReaders);
  json.Add("writers", writers);
  json.Add("mixed.readonly_qps", readonly_qps);
  json.Add("mixed.qps", mixed_qps);
  json.Add("mixed.read_retention",
           readonly_qps > 0 ? mixed_qps / readonly_qps : 0);
  json.Add("mixed.writes_per_sec", writes_per_sec);
  json.Add("mixed.writes", static_cast<double>(writes.load()));
  json.Add("mixed.lock_conflicts", static_cast<double>(lock_conflicts));
  json.SetTelemetry(db.MetricsJson());
  if (!json_path.empty()) {
    s = json.WriteToFile(json_path);
    if (!s.ok()) {
      std::printf("failed to write %s: %s\n", json_path.c_str(),
                  s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

int Run(uint32_t s_count, int queries, size_t extra_threads, bool read_ahead,
        const std::string& json_path) {
  std::printf(
      "== Concurrent read throughput: one warm database, worker ladder ==\n");
  WorkloadOptions options;
  options.s_count = s_count;
  options.f = 5;
  options.strategy = ModelStrategy::kInPlace;
  options.read_ahead = read_ahead;
  auto workload = BuildModelWorkload(options);
  if (!workload.ok()) {
    std::printf("build failed: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  Database& db = *workload->db;
  const uint32_t r_count = static_cast<uint32_t>(workload->r_oids.size());

  ReadQuery query;
  query.set_name = "R";
  query.projections = {"field_r", "sref.repfield"};
  query.predicate = Predicate::Between(
      "field_r", Value(int32_t{0}), Value(static_cast<int32_t>(r_count - 1)));

  std::vector<size_t> ladder = {1, 2, 4, 8};
  if (extra_threads > 1 &&
      std::find(ladder.begin(), ladder.end(), extra_threads) == ladder.end()) {
    ladder.push_back(extra_threads);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  BenchJson json("concurrent_read");
  json.Add("s_count", s_count);
  json.Add("f", options.f);
  json.Add("queries_per_step", queries);
  json.Add("read_ahead", read_ahead);
  json.Add("hw_concurrency", hw);

  // Warm: one full pass leaves R, the index, and the replica bytes (all
  // in place on R) resident; |S|=2000 at f=5 is ~360 data pages against a
  // 32768-frame pool, so nothing is evicted afterwards.
  ReadResult warm;
  Status s = db.Retrieve(query, &warm);
  if (!s.ok() || warm.rows.size() != r_count) {
    std::printf("warmup failed: %s (%zu rows)\n", s.ToString().c_str(),
                warm.rows.size());
    return 1;
  }
  db.pool().ResetStats();
  ReadResult probe;
  if (!db.Retrieve(query, &probe).ok()) return 1;
  const IoStats serial_stats = db.io_stats();
  if (serial_stats.disk_reads != 0) {
    std::printf("warning: working set not buffer-resident (%llu cold reads)\n",
                static_cast<unsigned long long>(serial_stats.disk_reads));
  }

  std::printf("  |R| = %u rows per query, %d queries per step\n", r_count,
              queries);
  std::printf("  hardware concurrency: %u core%s\n", hw, hw == 1 ? "" : "s");
  const size_t max_step = *std::max_element(ladder.begin(), ladder.end());
  if (hw != 0 && hw < max_step) {
    std::printf(
        "  note: ladder tops out at %zu threads but only %u core%s "
        "available;\n  steps beyond the core count measure scheduling "
        "overhead, not speedup\n",
        max_step, hw, hw == 1 ? " is" : "s are");
  }
  std::printf("\n");
  std::printf("  %8s %12s %12s %10s\n", "threads", "ms/query", "queries/s",
              "speedup");
  double base_qps = 0;
  for (size_t threads : ladder) {
    s = db.SetWorkerThreads(threads);
    if (!s.ok()) {
      std::printf("SetWorkerThreads(%zu): %s\n", threads,
                  s.ToString().c_str());
      return 1;
    }
    db.pool().ResetStats();
    uint64_t start = NowNs();
    for (int q = 0; q < queries; ++q) {
      ReadResult result;
      s = db.Retrieve(query, &result);
      if (!s.ok() || result.rows.size() != r_count) {
        std::printf("query failed at %zu threads: %s\n", threads,
                    s.ToString().c_str());
        return 1;
      }
    }
    double elapsed_ms = static_cast<double>(NowNs() - start) / 1e6;
    // The logical plan must not change with the worker count: same hit
    // count per query, zero disk reads (warm pool) at every step.
    IoStats stats = db.io_stats();
    if (stats.disk_reads != serial_stats.disk_reads * queries ||
        stats.fetches != serial_stats.fetches * queries) {
      std::printf(
          "logical I/O diverged at %zu threads: %llu fetches / %llu reads "
          "per query, serial plan does %llu / %llu\n",
          threads, static_cast<unsigned long long>(stats.fetches / queries),
          static_cast<unsigned long long>(stats.disk_reads / queries),
          static_cast<unsigned long long>(serial_stats.fetches),
          static_cast<unsigned long long>(serial_stats.disk_reads));
      return 1;
    }
    double qps = queries / (elapsed_ms / 1e3);
    if (threads == 1) base_qps = qps;
    double speedup = base_qps > 0 ? qps / base_qps : 1.0;
    std::printf("  %8zu %12.2f %12.1f %9.2fx\n", threads,
                elapsed_ms / queries, qps, speedup);
    std::string prefix = StringPrintf("threads.%zu.", threads);
    json.Add(prefix + "ms_per_query", elapsed_ms / queries);
    json.Add(prefix + "qps", qps);
    json.Add(prefix + "speedup", speedup);
    json.Add(prefix + "fetches_per_query",
             static_cast<double>(stats.fetches / queries));
  }
  json.SetTelemetry(db.MetricsJson());
  if (!json_path.empty()) {
    s = json.WriteToFile(json_path);
    if (!s.ok()) {
      std::printf("failed to write %s: %s\n", json_path.c_str(),
                  s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fieldrep::bench

int main(int argc, char** argv) {
  std::string json_path =
      fieldrep::bench::ConsumeJsonFlag(&argc, argv, "concurrent_read");
  bool read_ahead =
      fieldrep::bench::ConsumeUintFlag(&argc, argv, "--read-ahead=", 1) != 0;
  size_t threads = fieldrep::bench::ConsumeThreadsFlag(&argc, argv, 1);
  int mixed_writers = 0;  // 0 = read-only ladder (default mode)
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--mixed") {
      mixed_writers = 2;
    } else if (arg.rfind("--mixed=", 0) == 0) {
      mixed_writers = std::atoi(arg.c_str() + std::strlen("--mixed="));
      if (mixed_writers < 1) mixed_writers = 1;
    } else {
      continue;
    }
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    --argc;
    --i;
  }
  uint32_t s_count =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 2000;
  int queries = argc > 2 ? std::atoi(argv[2]) : 20;
  if (mixed_writers > 0) {
    return fieldrep::bench::RunMixed(s_count, queries, mixed_writers,
                                     read_ahead, json_path);
  }
  return fieldrep::bench::Run(s_count, queries, threads, read_ahead,
                              json_path);
}
