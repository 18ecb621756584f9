// The acceptance criterion of the telemetry PR, asserted at full-query
// granularity: the logical I/O counts MeasureQueryCosts reports (the
// paper's cost unit) are byte-identical with telemetry fully armed —
// registry, profiler, and every query forced through the traced path via
// a 1 ns slow-query threshold — and with telemetry off. Telemetry
// observes the engine; it never changes what a query does. Covers every
// strategy crossed with read-ahead off/on and worker-thread counts
// {1, 8}.

#include "bench_util.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::bench::BuildModelWorkload;
using ::fieldrep::bench::MeasureQueryCosts;
using ::fieldrep::bench::MeasuredCosts;
using ::fieldrep::bench::ModelWorkload;
using ::fieldrep::bench::WorkloadOptions;

MeasuredCosts MeasureWithTelemetry(const WorkloadOptions& base_options,
                                   bool telemetry) {
  Database::Options db_options;
  db_options.enable_telemetry = telemetry;
  if (telemetry) {
    // Arm the whole observation surface: with a 1 ns threshold every
    // query runs the traced code path (StageTracer snapshots, slow-query
    // evaluation), and the no-op hook swallows the log output.
    db_options.slow_query_ns = 1;
    db_options.slow_query_hook = [](const QueryTrace&) {};
  }
  auto workload_or = BuildModelWorkload(base_options, db_options);
  EXPECT_TRUE(workload_or.ok()) << workload_or.status().ToString();
  if (!workload_or.ok()) return {};
  ModelWorkload workload = std::move(workload_or).value();
  auto costs_or = MeasureQueryCosts(&workload, /*fr=*/0.1, /*fs=*/0.05,
                                    /*trials=*/2);
  EXPECT_TRUE(costs_or.ok()) << costs_or.status().ToString();
  return costs_or.ok() ? costs_or.value() : MeasuredCosts{};
}

void ExpectTelemetryIndependentLogicalIo(WorkloadOptions options) {
  for (bool read_ahead : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      options.read_ahead = read_ahead;
      options.worker_threads = threads;
      MeasuredCosts with = MeasureWithTelemetry(options, true);
      MeasuredCosts without = MeasureWithTelemetry(options, false);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "read_ahead=" << read_ahead << " threads=" << threads;
      // Identical workload build (same seed) + identical query ranges
      // (same measurement seed) must yield the exact same logical counts.
      EXPECT_EQ(with.read_io, without.read_io)
          << "read_ahead=" << read_ahead << " threads=" << threads;
      EXPECT_EQ(with.update_io, without.update_io)
          << "read_ahead=" << read_ahead << " threads=" << threads;
    }
  }
}

TEST(TelemetryEquivalenceTest, NoReplicationLogicalIoMatches) {
  WorkloadOptions options;
  options.s_count = 400;
  options.f = 1;
  options.clustered = false;
  options.strategy = ModelStrategy::kNoReplication;
  ExpectTelemetryIndependentLogicalIo(options);
}

TEST(TelemetryEquivalenceTest, InPlaceLogicalIoMatches) {
  WorkloadOptions options;
  options.s_count = 400;
  options.f = 2;
  options.clustered = false;
  options.strategy = ModelStrategy::kInPlace;
  ExpectTelemetryIndependentLogicalIo(options);
}

TEST(TelemetryEquivalenceTest, SeparateStrategyLogicalIoMatches) {
  WorkloadOptions options;
  options.s_count = 400;
  options.f = 2;
  options.clustered = false;
  options.strategy = ModelStrategy::kSeparate;
  ExpectTelemetryIndependentLogicalIo(options);
}

}  // namespace
}  // namespace fieldrep
