// Telemetry suite: the IoStats X-macro round-trip, MetricsRegistry
// instruments and expositions, query tracing (stage deltas telescoping to
// the query total), the workload profiler, the slow-query log, and a
// concurrency hammer (picked up by the CI tsan lane via the "Concurrency"
// test-name filter) asserting counters stay monotone under concurrent
// readers and a propagating writer.

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "gtest/gtest.h"
#include "storage/io_stats.h"
#include "telemetry/metrics.h"
#include "telemetry/query_trace.h"
#include "telemetry/workload_profiler.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::EmployeeFixture;
using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;

// ---------------------------------------------------------------------------
// IoStats X-macro
// ---------------------------------------------------------------------------

// Mutates EVERY field (via the X-macro, so a newly added field cannot be
// missed) and round-trips through the generated operations.
TEST(IoStatsTest, XMacroMutateEveryFieldRoundTrip) {
  IoStats a;
  uint64_t next = 1;
#define FIELDREP_TEST_SET(field) a.field = next++;
  FIELDREP_IO_STATS_FIELDS(FIELDREP_TEST_SET)
#undef FIELDREP_TEST_SET

  // Every field got a distinct non-zero value.
#define FIELDREP_TEST_NONZERO(field) EXPECT_GT(a.field, 0u);
  FIELDREP_IO_STATS_FIELDS(FIELDREP_TEST_NONZERO)
#undef FIELDREP_TEST_NONZERO

  // operator+= then operator- must round-trip exactly, field by field.
  IoStats b = a;
  b += a;
  IoStats diff = b - a;
  EXPECT_TRUE(diff == a);
#define FIELDREP_TEST_DOUBLED(field) EXPECT_EQ(b.field, 2 * a.field);
  FIELDREP_IO_STATS_FIELDS(FIELDREP_TEST_DOUBLED)
#undef FIELDREP_TEST_DOUBLED

  // ToString must mention every field by name.
  const std::string text = a.ToString();
#define FIELDREP_TEST_NAMED(field) \
  EXPECT_NE(text.find(#field), std::string::npos) << text;
  FIELDREP_IO_STATS_FIELDS(FIELDREP_TEST_NAMED)
#undef FIELDREP_TEST_NAMED

  // Atomic counterpart: accumulate, snapshot, reset.
  AtomicIoStats atomics;
#define FIELDREP_TEST_ADD(field) \
  atomics.field.fetch_add(a.field, std::memory_order_relaxed);
  FIELDREP_IO_STATS_FIELDS(FIELDREP_TEST_ADD)
#undef FIELDREP_TEST_ADD
  EXPECT_TRUE(atomics.Snapshot() == a);
  atomics.Reset();
  EXPECT_TRUE(atomics.Snapshot() == IoStats());

  EXPECT_EQ(a.TotalIo(), a.disk_reads + a.disk_writes);
  a.Reset();
  EXPECT_TRUE(a == IoStats());
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsRenderInPrometheusFormat) {
  MetricsRegistry registry;
  Counter* requests = registry.AddCounter("test_requests_total", "Requests.");
  Gauge* depth = registry.AddGauge("test_queue_depth", "Queue depth.");
  Histogram* latency = registry.AddHistogram("test_latency_ns", "Latency.",
                                             {100, 1000});
  requests->Increment(3);
  depth->Set(7);
  latency->Observe(50);    // bucket le=100
  latency->Observe(500);   // bucket le=1000
  latency->Observe(5000);  // +Inf

  const std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("# HELP test_requests_total Requests."),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("test_requests_total 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_queue_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("test_queue_depth 7"), std::string::npos);
  // Histogram buckets are cumulative in the exposition.
  EXPECT_NE(prom.find("test_latency_ns_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_bucket{le=\"1000\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_sum 5550"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_count 3"), std::string::npos);
}

TEST(MetricsRegistryTest, CallbacksAndCollectorsSampleAtRenderTime) {
  MetricsRegistry registry;
  std::atomic<uint64_t> live{10};
  registry.AddCallback("test_live_value", "Live.", MetricKind::kCounter, "",
                       [&live] { return static_cast<double>(live.load()); });
  registry.AddCollector([](std::vector<MetricSample>* out) {
    MetricSample s;
    s.name = "test_labeled_total";
    s.labels = "shard=\"3\"";
    s.kind = MetricKind::kCounter;
    s.value = 42;
    out->push_back(s);
  });

  std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("test_live_value 10"), std::string::npos);
  EXPECT_NE(prom.find("test_labeled_total{shard=\"3\"} 42"),
            std::string::npos);
  live.store(11);
  prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("test_live_value 11"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonRoundTripsThroughParseSamplesJson) {
  MetricsRegistry registry;
  registry.AddCounter("test_a_total", "A.")->Increment(5);
  registry.AddGauge("test_b", "B.", "kind=\"x\"")->Set(-3);
  registry.AddHistogram("test_h_ns", "H.", {10, 100})->Observe(42);

  const std::string json = registry.RenderJson();
  std::vector<MetricSample> parsed;
  FR_ASSERT_OK(MetricsRegistry::ParseSamplesJson(json, &parsed));
  ASSERT_EQ(parsed.size(), 3u);
  // Re-rendering the parsed samples must reproduce the document exactly —
  // the property `fieldrep_stats --snapshot` relies on.
  EXPECT_EQ(MetricsRegistry::SamplesToJson(parsed), json);
  // And the Prometheus rendering of parsed samples matches the live one.
  EXPECT_EQ(MetricsRegistry::SamplesToPrometheus(parsed),
            registry.RenderPrometheus());
}

// ---------------------------------------------------------------------------
// Query tracing
// ---------------------------------------------------------------------------

// The read-ahead settings reach every exposition (fieldrep_stats renders
// the registry's text form): the on/off switch and the pool-wide budget.
TEST(MetricsRegistryTest, DatabaseExposesReadAheadSwitchAndBudget) {
  auto db = OpenEmployeeDatabase(/*pool_frames=*/64);
  const std::string text = db->metrics()->RenderText();
  EXPECT_NE(text.find("fieldrep_pool_read_ahead_enabled"), std::string::npos);
  EXPECT_NE(text.find("fieldrep_pool_read_ahead_budget"), std::string::npos);
  EXPECT_NE(text.find("fieldrep_pool_read_batches_total"), std::string::npos);
  EXPECT_NE(text.find("fieldrep_pool_write_batches_total"), std::string::npos);
  std::vector<MetricSample> samples;
  FR_ASSERT_OK(MetricsRegistry::ParseSamplesJson(db->MetricsJson(), &samples));
  std::map<std::string, double> gauges;
  for (const MetricSample& s : samples) gauges[s.name] = s.value;
  EXPECT_EQ(gauges["fieldrep_pool_read_ahead_enabled"], 1.0);
  EXPECT_EQ(gauges["fieldrep_pool_read_ahead_budget"], 16.0);
}

TEST(QueryTraceTest, ReadStageDeltasSumToQueryTotal) {
  auto db = OpenEmployeeDatabase();
  PopulateEmployees(db.get(), 2, 4, 200);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  FR_ASSERT_OK(db->ColdStart());

  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name", "salary", "dept.name"};
  ReadResult result;
  QueryTrace trace;
  const IoStats before = db->io_stats();
  FR_ASSERT_OK(db->Retrieve(query, &result, &trace));
  const IoStats pool_delta = db->io_stats() - before;

  EXPECT_EQ(trace.kind, QueryTrace::Kind::kRead);
  EXPECT_EQ(trace.set_name, "Emp1");
  EXPECT_EQ(trace.rows, result.rows.size());
  EXPECT_GT(trace.wall_ns, 0u);
  ASSERT_EQ(trace.strategies.size(), query.projections.size());
  EXPECT_EQ(trace.strategies[0], "attr");
  EXPECT_EQ(trace.strategies[2], "replica-inplace");
  ASSERT_FALSE(trace.stages.empty());

  // Acceptance criterion: the telescoping per-stage IoStats deltas sum
  // exactly to the query's own pool-level delta.
  IoStats stage_sum;
  uint64_t stage_wall = 0;
  for (const QueryStageTrace& stage : trace.stages) {
    stage_sum += stage.io;
    stage_wall += stage.wall_ns;
  }
  EXPECT_TRUE(stage_sum == trace.io) << "stages: " << stage_sum.ToString()
                                     << "\nquery:  " << trace.io.ToString();
  EXPECT_TRUE(trace.io == pool_delta) << "trace: " << trace.io.ToString()
                                      << "\npool:  " << pool_delta.ToString();
  EXPECT_LE(stage_wall, trace.wall_ns);
  // A cold-started query on a replicated projection does real I/O.
  EXPECT_GT(trace.io.fetches, 0u);
  EXPECT_GT(trace.io.disk_reads, 0u);

  // Renderings exist and carry the stage names.
  const std::string text = trace.ToString();
  for (const QueryStageTrace& stage : trace.stages) {
    EXPECT_NE(text.find(stage.name), std::string::npos) << text;
  }
  EXPECT_FALSE(trace.Summary().empty());
}

TEST(QueryTraceTest, UpdateTraceBracketsPlanCollectUpdate) {
  auto db = OpenEmployeeDatabase();
  PopulateEmployees(db.get(), 2, 4, 50);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));

  UpdateQuery update;
  update.set_name = "Dept";
  update.assignments = {{"name", Value(std::string("renamed"))}};
  UpdateResult result;
  QueryTrace trace;
  FR_ASSERT_OK(db->Replace(update, &result, &trace));

  EXPECT_EQ(trace.kind, QueryTrace::Kind::kUpdate);
  EXPECT_EQ(trace.rows, result.objects_updated);
  EXPECT_EQ(result.objects_updated, 4u);
  ASSERT_EQ(trace.stages.size(), 3u);
  EXPECT_EQ(trace.stages[0].name, "plan");
  EXPECT_EQ(trace.stages[1].name, "collect");
  EXPECT_EQ(trace.stages[2].name, "update");
  IoStats stage_sum;
  for (const QueryStageTrace& stage : trace.stages) stage_sum += stage.io;
  EXPECT_TRUE(stage_sum == trace.io);
}

TEST(QueryTraceTest, ParallelReadTraceMatchesPoolDelta) {
  Database::Options options;
  options.worker_threads = 4;
  auto db_or = Database::Open(options);
  FR_ASSERT_OK(db_or.status());
  // Rebuild the employee schema in the parallel database.
  auto db = std::move(db_or).value();
  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "EMP", {CharAttr("name", 20), Int32Attr("salary"),
              RefAttr("dept", "DEPT")})));
  FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
  FR_ASSERT_OK(db->CreateSet("Emp1", "EMP"));
  std::vector<Oid> depts;
  for (int i = 0; i < 8; ++i) {
    Object dept(0, {Value(StringPrintf("dept%d", i)), Value(int32_t{i})});
    Oid oid;
    FR_ASSERT_OK(db->Insert("Dept", dept, &oid));
    depts.push_back(oid);
  }
  for (int i = 0; i < 400; ++i) {
    Object emp(0, {Value(StringPrintf("emp%d", i)), Value(int32_t{i}),
                   Value(depts[i % depts.size()])});
    Oid oid;
    FR_ASSERT_OK(db->Insert("Emp1", emp, &oid));
  }
  FR_ASSERT_OK(db->ColdStart());

  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name", "dept.name"};
  ReadResult result;
  QueryTrace trace;
  const IoStats before = db->io_stats();
  FR_ASSERT_OK(db->Retrieve(query, &result, &trace));
  const IoStats pool_delta = db->io_stats() - before;

  EXPECT_GT(trace.parallel_ranges, 1u);
  IoStats stage_sum;
  for (const QueryStageTrace& stage : trace.stages) stage_sum += stage.io;
  EXPECT_TRUE(stage_sum == trace.io);
  EXPECT_TRUE(trace.io == pool_delta);
  EXPECT_EQ(result.rows.size(), 400u);
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

TEST(SlowQueryLogTest, HookReceivesTracesPastTheThreshold) {
  Database::Options options;
  options.slow_query_ns = 1;  // every query is "slow"
  std::vector<QueryTrace> slow;
  options.slow_query_hook = [&slow](const QueryTrace& t) {
    slow.push_back(t);
  };
  auto db_or = Database::Open(options);
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  FR_ASSERT_OK(db->DefineType(TypeDescriptor("T", {Int32Attr("x")})));
  FR_ASSERT_OK(db->CreateSet("Set", "T"));
  Oid oid;
  FR_ASSERT_OK(db->Insert("Set", Object(0, {Value(int32_t{1})}), &oid));

  ReadQuery query;
  query.set_name = "Set";
  query.projections = {"x"};
  ReadResult result;
  FR_ASSERT_OK(db->Retrieve(query, &result));
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_GT(slow[0].wall_ns, 0u);
  EXPECT_EQ(slow[0].set_name, "Set");
  EXPECT_EQ(slow[0].rows, 1u);
  EXPECT_FALSE(slow[0].Summary().empty());

  // Threshold respected: a database with a huge threshold never logs.
  Database::Options quiet_options;
  quiet_options.slow_query_ns = UINT64_MAX;
  std::vector<QueryTrace> never;
  quiet_options.slow_query_hook = [&never](const QueryTrace& t) {
    never.push_back(t);
  };
  auto quiet_or = Database::Open(quiet_options);
  FR_ASSERT_OK(quiet_or.status());
  auto quiet = std::move(quiet_or).value();
  FR_ASSERT_OK(quiet->DefineType(TypeDescriptor("T", {Int32Attr("x")})));
  FR_ASSERT_OK(quiet->CreateSet("Set", "T"));
  FR_ASSERT_OK(quiet->Insert("Set", Object(0, {Value(int32_t{1})}), &oid));
  FR_ASSERT_OK(quiet->Retrieve(query, &result));
  EXPECT_TRUE(never.empty());
}

// ---------------------------------------------------------------------------
// Workload profiler + Database::Stats()
// ---------------------------------------------------------------------------

TEST(WorkloadProfilerTest, RecordsPathReadsUpdatesAndPropagations) {
  auto db = OpenEmployeeDatabase();
  EmployeeFixture fixture = PopulateEmployees(db.get(), 2, 4, 100);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));

  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name", "dept.name"};
  ReadResult result;
  FR_ASSERT_OK(db->Retrieve(query, &result));

  WorkloadProfile profile = db->Stats();
  ASSERT_EQ(profile.paths.count("Emp1.dept.name"), 1u);
  const PathActivity& path = profile.paths.at("Emp1.dept.name");
  EXPECT_EQ(path.read_queries, 1u);
  EXPECT_EQ(path.derefs, 100u);
  EXPECT_EQ(path.replica_rows, 100u);
  EXPECT_EQ(path.join_rows, 0u);

  // A terminal update propagates: field and path activity both move.
  FR_ASSERT_OK(db->Update("Dept", fixture.depts[0], "name",
                          Value(std::string("renamed"))));
  profile = db->Stats();
  ASSERT_EQ(profile.fields.count("Dept.name"), 1u);
  EXPECT_EQ(profile.fields.at("Dept.name").updates, 1u);
  EXPECT_EQ(profile.fields.at("Dept.name").propagations, 1u);
  EXPECT_EQ(profile.paths.at("Emp1.dept.name").propagations, 1u);
  // 100 employees over 4 departments: 25 head replicas rewritten.
  EXPECT_EQ(profile.paths.at("Emp1.dept.name").heads_touched, 25u);

  // An update to an unreplicated field does not propagate.
  FR_ASSERT_OK(db->Update("Dept", fixture.depts[1], "budget",
                          Value(int32_t{777})));
  profile = db->Stats();
  EXPECT_EQ(profile.fields.at("Dept.budget").updates, 1u);
  EXPECT_EQ(profile.fields.at("Dept.budget").propagations, 0u);

  // The profile serializes and shows up in the registry's exposition.
  const std::string json = profile.ToJson().Serialize(2);
  EXPECT_NE(json.find("Emp1.dept.name"), std::string::npos);
  const std::string prom = db->MetricsPrometheus();
  EXPECT_NE(prom.find("fieldrep_path_derefs_total{path=\"Emp1.dept.name\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("fieldrep_field_updates_total{field=\"Dept.name\"}"),
            std::string::npos);
}

TEST(WorkloadProfilerTest, DisabledTelemetryYieldsEmptyStats) {
  Database::Options options;
  options.enable_telemetry = false;
  auto db_or = Database::Open(options);
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  EXPECT_EQ(db->metrics(), nullptr);
  EXPECT_EQ(db->profiler(), nullptr);
  EXPECT_TRUE(db->Stats().paths.empty());
  EXPECT_TRUE(db->MetricsPrometheus().empty());
  EXPECT_TRUE(db->MetricsJson().empty());
}

// ---------------------------------------------------------------------------
// Concurrency (tsan lane: name matches the "Concurrency" ctest filter)
// ---------------------------------------------------------------------------

TEST(TelemetryConcurrencyTest, CountersMonotoneUnderReadersAndWriter) {
  auto db = OpenEmployeeDatabase();
  EmployeeFixture fixture = PopulateEmployees(db.get(), 2, 8, 200);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 30;
  constexpr int kWriterUpdates = 60;
  std::atomic<bool> failed{false};

  // Readers hammer traced queries. Stage deltas telescope to the pool
  // delta at the *last stage boundary*; the query total is stamped at
  // Finish(), so a concurrent writer's I/O landing in the tail gap can
  // only make the total larger — per-field containment, not equality
  // (the serial tests assert the exact equality on quiesced queries).
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &failed] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        ReadQuery query;
        query.set_name = "Emp1";
        query.projections = {"name", "dept.name"};
        ReadResult result;
        QueryTrace trace;
        if (!db->Retrieve(query, &result, &trace).ok() ||
            result.rows.size() != 200) {
          failed.store(true);
          return;
        }
        IoStats stage_sum;
        for (const QueryStageTrace& stage : trace.stages) {
          stage_sum += stage.io;
        }
#define FIELDREP_TEST_CONTAINED(field) \
  if (stage_sum.field > trace.io.field) failed.store(true);
        FIELDREP_IO_STATS_FIELDS(FIELDREP_TEST_CONTAINED)
#undef FIELDREP_TEST_CONTAINED
      }
    });
  }
  // One propagating writer: renames departments, fanning updates out to
  // the in-place replicas on Emp1.
  std::thread writer([&db, &fixture, &failed] {
    for (int u = 0; u < kWriterUpdates; ++u) {
      const Oid& dept = fixture.depts[u % fixture.depts.size()];
      if (!db->Update("Dept", dept, "name",
                      Value(StringPrintf("dept-%d", u)))
               .ok()) {
        failed.store(true);
        return;
      }
    }
  });

  // Main thread samples the registry while the hammer runs: every counter
  // must be monotone between consecutive snapshots.
  std::map<std::string, double> last;
  for (int sample = 0; sample < 50; ++sample) {
    std::vector<MetricSample> samples = db->metrics()->Collect();
    for (const MetricSample& s : samples) {
      if (s.kind != MetricKind::kCounter) continue;
      const std::string key = s.name + "{" + s.labels + "}";
      auto it = last.find(key);
      if (it != last.end()) {
        EXPECT_GE(s.value, it->second) << key;
        it->second = s.value;
      } else {
        last.emplace(key, s.value);
      }
    }
    std::this_thread::yield();
  }

  for (std::thread& t : readers) t.join();
  writer.join();
  ASSERT_FALSE(failed.load());

  // Quiesced: the profiler saw all the work.
  WorkloadProfile profile = db->Stats();
  EXPECT_EQ(profile.paths.at("Emp1.dept.name").read_queries,
            static_cast<uint64_t>(kReaders) * kQueriesPerReader);
  EXPECT_EQ(profile.fields.at("Dept.name").updates,
            static_cast<uint64_t>(kWriterUpdates));
  // And the final exposition renders cleanly.
  EXPECT_FALSE(db->MetricsPrometheus().empty());
  std::vector<MetricSample> parsed;
  FR_ASSERT_OK(MetricsRegistry::ParseSamplesJson(db->MetricsJson(), &parsed));
  EXPECT_FALSE(parsed.empty());
}

}  // namespace
}  // namespace fieldrep
