// Micro-benchmarks (google-benchmark) for the substrate the replication
// machinery sits on: B+ tree operations, heap-file access, buffer-pool
// hits, object serialization, and single-object update propagation at
// varying sharing levels.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "index/btree.h"
#include "storage/file_device.h"
#include "storage/memory_device.h"
#include "storage/record_file.h"

namespace fieldrep {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  MemoryDevice device;
  BufferPool pool(&device, 4096);
  BTree tree(&pool);
  if (!tree.Init().ok()) state.SkipWithError("init failed");
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert(key, Oid(1, 0, key % 100)));
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  MemoryDevice device;
  BufferPool pool(&device, 4096);
  BTree tree(&pool);
  if (!tree.Init().ok()) state.SkipWithError("init failed");
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    tree.Insert(i, Oid(1, static_cast<PageId>(i / 50),
                       static_cast<uint16_t>(i % 50)))
        .ok();
  }
  Random rng(1);
  std::vector<Oid> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(
        tree.Lookup(static_cast<int64_t>(rng.Uniform(n)), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(10000)->Arg(100000);

void BM_RecordFileInsert(benchmark::State& state) {
  MemoryDevice device;
  BufferPool pool(&device, 4096);
  RecordFile file(&pool, 1);
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  Oid oid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(file.Insert(payload, &oid));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecordFileInsert)->Arg(100)->Arg(1000);

void BM_BufferPoolHit(benchmark::State& state) {
  MemoryDevice device;
  BufferPool pool(&device, 64);
  PageGuard guard;
  if (!pool.NewPage(&guard).ok()) state.SkipWithError("alloc failed");
  PageId id = guard.page_id();
  guard.Release();
  for (auto _ : state) {
    PageGuard g;
    benchmark::DoNotOptimize(pool.FetchPage(id, &g));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolHit);

void BM_ObjectSerialize(benchmark::State& state) {
  TypeDescriptor type("T", {Int32Attr("a"), CharAttr("b", 20),
                            RefAttr("c", "T"), CharAttr("fill", 80)});
  type.set_type_tag(1);
  Object object(1, {Value(int32_t{7}), Value("twenty-bytes-please"),
                    Value(Oid(1, 2, 3)), Value(std::string(80, 'f'))});
  object.SetReplicaValues(1, {Value("replicated-value")});
  std::string payload;
  for (auto _ : state) {
    payload.clear();
    benchmark::DoNotOptimize(object.Serialize(type, &payload));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_ObjectSerialize);

/// Cold sequential scan of a file-backed heap file with read-ahead off
/// (arg 0: one pread per page) and on (arg 1: the scan announces its known
/// page chain, read in preadv batches). Logical I/O (disk_reads) is the
/// same either way — only the physical scheduling changes.
void BM_FileScanReadAhead(benchmark::State& state) {
  const bool read_ahead = state.range(0) != 0;
  const char* path = "micro_ops_scan.db";
  std::remove(path);
  {
    FileDevice device;
    if (!device.Open(path).ok()) {
      state.SkipWithError("open failed");
      return;
    }
    BufferPool pool(&device, 4096);
    pool.set_read_ahead(read_ahead);
    RecordFile file(&pool, 1);
    const int kRecords = 40000;  // ~1000 pages of 100-byte records
    std::string payload(100, 'x');
    Oid oid;
    for (int i = 0; i < kRecords; ++i) file.Insert(payload, &oid).ok();
    for (auto _ : state) {
      state.PauseTiming();
      pool.EvictAll().ok();
      state.ResumeTiming();
      size_t count = 0;
      file.Scan([&](const Oid&, const std::string&) {
            ++count;
            return true;
          })
          .ok();
      benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * kRecords);
  }
  std::remove(path);
}
BENCHMARK(BM_FileScanReadAhead)->Arg(0)->Arg(1);

/// Elevator write-back on a file-backed pool: dirty a random spread of
/// resident pages, then FlushAll sorts them by PageId and coalesces the
/// contiguous runs into pwritev batches.
void BM_FileFlushElevator(benchmark::State& state) {
  const char* path = "micro_ops_flush.db";
  std::remove(path);
  {
    FileDevice device;
    if (!device.Open(path).ok()) {
      state.SkipWithError("open failed");
      return;
    }
    BufferPool pool(&device, 4096);
    RecordFile file(&pool, 1);
    const int kRecords = 40000;
    std::string payload(100, 'x');
    Oid oid;
    for (int i = 0; i < kRecords; ++i) file.Insert(payload, &oid).ok();
    const PageId pages = device.page_count();
    Random rng(3);
    for (auto _ : state) {
      state.PauseTiming();
      for (int i = 0; i < 512; ++i) {
        PageGuard guard;
        if (pool.FetchPage(static_cast<PageId>(rng.Uniform(pages)), &guard)
                .ok()) {
          guard.MarkDirty();
        }
      }
      state.ResumeTiming();
      pool.FlushAll().ok();
    }
    state.SetItemsProcessed(state.iterations() * 512);
  }
  std::remove(path);
}
BENCHMARK(BM_FileFlushElevator);

/// One terminal-field update on an in-place path with `f` referencing
/// heads: the propagation fan-out the paper's update cost is made of.
void BM_PropagateUpdate(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  Database::Options db_options;
  db_options.buffer_pool_frames = 8192;
  auto db_or = Database::Open(db_options);
  if (!db_or.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  auto db = std::move(db_or).value();
  db->DefineType(TypeDescriptor(
                     "S", {Int32Attr("k"), CharAttr("rep", 20)}))
      .ok();
  db->DefineType(
        TypeDescriptor("R", {Int32Attr("k"), RefAttr("sref", "S")}))
      .ok();
  db->CreateSet("Sset", "S").ok();
  db->CreateSet("Rset", "R").ok();
  auto s_set = db->GetSet("Sset");
  if (s_set.ok()) s_set.value()->file().set_growth_reserve(16);
  uint16_t path_id;
  db->Replicate("Rset.sref.rep", {}, &path_id).ok();
  Oid terminal;
  db->Insert("Sset", Object(0, {Value(int32_t{1}), Value("v")}), &terminal)
      .ok();
  for (int i = 0; i < f; ++i) {
    Oid oid;
    db->Insert("Rset", Object(0, {Value(int32_t{i}), Value(terminal)}), &oid)
        .ok();
  }
  int version = 0;
  for (auto _ : state) {
    Status s = db->Update("Sset", terminal, "rep",
                          Value(StringPrintf("v%d", version++)));
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * f);
}
BENCHMARK(BM_PropagateUpdate)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

/// Warm indexed read query with replicated projections at a configurable
/// worker count (registered from main with the --threads=N value): the
/// whole working set is buffer-resident, so this isolates the query
/// engine's parallel speedup from disk scheduling. See bench/concurrent_read
/// for the full thread ladder.
void RunParallelRead(benchmark::State& state, size_t threads) {
  Database::Options db_options;
  db_options.buffer_pool_frames = 8192;
  db_options.worker_threads = threads;
  auto db_or = Database::Open(db_options);
  if (!db_or.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  auto db = std::move(db_or).value();
  db->DefineType(TypeDescriptor("S", {Int32Attr("k"), CharAttr("rep", 20)}))
      .ok();
  db->DefineType(TypeDescriptor("R", {Int32Attr("k"), RefAttr("sref", "S")}))
      .ok();
  db->CreateSet("Sset", "S").ok();
  db->CreateSet("Rset", "R").ok();
  auto s_set = db->GetSet("Sset");
  if (s_set.ok()) s_set.value()->file().set_growth_reserve(16);
  auto r_set = db->GetSet("Rset");
  if (r_set.ok()) r_set.value()->file().set_growth_reserve(30);
  const int kSCount = 200;
  const int kRCount = 4000;
  std::vector<Oid> s_oids(kSCount);
  for (int i = 0; i < kSCount; ++i) {
    db->Insert("Sset",
               Object(0, {Value(static_cast<int32_t>(i)),
                          Value(StringPrintf("rep-%04d", i))}),
               &s_oids[i])
        .ok();
  }
  Random rng(11);
  for (int i = 0; i < kRCount; ++i) {
    Oid oid;
    db->Insert("Rset",
               Object(0, {Value(static_cast<int32_t>(i)),
                          Value(s_oids[rng.Uniform(kSCount)])}),
               &oid)
        .ok();
  }
  db->Replicate("Rset.sref.rep", {}).ok();
  db->BuildIndex("r_k", "Rset", "k").ok();
  ReadQuery query;
  query.set_name = "Rset";
  query.projections = {"k", "sref.rep"};
  query.predicate = Predicate::Between("k", Value(int32_t{0}),
                                       Value(int32_t{kRCount - 1}));
  ReadResult warm;
  if (!db->Retrieve(query, &warm).ok() ||
      warm.rows.size() != static_cast<size_t>(kRCount)) {
    state.SkipWithError("warmup query failed");
    return;
  }
  for (auto _ : state) {
    ReadResult result;
    Status s = db->Retrieve(query, &result);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result.rows.size());
  }
  state.SetItemsProcessed(state.iterations() * kRCount);
}

}  // namespace
}  // namespace fieldrep

// Custom main: `--json[=path]` maps onto google-benchmark's native JSON
// reporter (--benchmark_out/--benchmark_out_format), and `--threads=N`
// registers BM_ParallelRead at that worker count, so every bench binary
// in this repo shares the same flags.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static std::string out_arg;
  static std::string fmt_arg = "--benchmark_out_format=json";
  size_t threads = 1;
  for (size_t i = 1; i < args.size();) {
    if (std::strncmp(args[i], "--threads=", 10) == 0) {
      int value = std::atoi(args[i] + 10);
      threads = value < 1 ? 1 : static_cast<size_t>(value);
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
  for (size_t i = 1; i < args.size(); ++i) {
    const char* arg = args[i];
    std::string path;
    if (std::strcmp(arg, "--json") == 0) {
      path = "BENCH_micro_ops.json";
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      path = arg + 7;
      if (path.empty()) path = "BENCH_micro_ops.json";
    } else {
      continue;
    }
    out_arg = "--benchmark_out=" + path;
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    args.push_back(out_arg.data());
    args.push_back(fmt_arg.data());
    break;
  }
  const std::string parallel_name =
      fieldrep::StringPrintf("BM_ParallelRead/threads:%zu", threads);
  benchmark::RegisterBenchmark(parallel_name.c_str(),
                               [threads](benchmark::State& state) {
                                 fieldrep::RunParallelRead(state, threads);
                               });
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
