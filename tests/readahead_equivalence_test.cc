// Asserts read-ahead's central invariant at full-query granularity: the
// logical I/O counts MeasureQueryCosts reports (the paper's cost unit)
// are byte-identical with read-ahead (stage cursors, scan chains,
// propagation batches, batched eviction write-back) on or off. Links the
// bench harness so the assertion covers exactly the workload the
// empirical benchmarks measure.

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

MeasuredCosts MeasureWithReadAhead(const WorkloadOptions& base_options,
                                   bool read_ahead) {
  WorkloadOptions options = base_options;
  options.read_ahead = read_ahead;
  auto workload_or = BuildModelWorkload(options);
  EXPECT_TRUE(workload_or.ok()) << workload_or.status().ToString();
  if (!workload_or.ok()) return {};
  ModelWorkload workload = std::move(workload_or).value();
  auto costs_or = MeasureQueryCosts(&workload, /*fr=*/0.1, /*fs=*/0.05,
                                    /*trials=*/2);
  EXPECT_TRUE(costs_or.ok()) << costs_or.status().ToString();
  return costs_or.ok() ? costs_or.value() : MeasuredCosts{};
}

MeasuredCosts ExpectReadAheadIndependentLogicalIo(WorkloadOptions options) {
  MeasuredCosts with = MeasureWithReadAhead(options, true);
  MeasuredCosts without = MeasureWithReadAhead(options, false);
  EXPECT_FALSE(::testing::Test::HasFailure());
  // Identical workload build (same seed) + identical query ranges (same
  // measurement seed) must yield the exact same logical counts:
  // read-ahead changes physical scheduling only.
  EXPECT_EQ(with.read_io, without.read_io);
  EXPECT_EQ(with.update_io, without.update_io);
  // And the physical counters must show the batching actually happened.
  EXPECT_GT(with.batched_reads, 0.0);
  EXPECT_EQ(without.batched_reads, 0.0);
  return with;
}

TEST(ReadAheadEquivalenceTest, UnclusteredInPlaceLogicalIoMatches) {
  WorkloadOptions options;
  options.s_count = 400;
  options.f = 2;
  options.clustered = false;
  options.strategy = ModelStrategy::kInPlace;
  ExpectReadAheadIndependentLogicalIo(options);
}

TEST(ReadAheadEquivalenceTest, ClusteredNoReplicationLogicalIoMatches) {
  WorkloadOptions options;
  options.s_count = 400;
  options.f = 1;
  options.clustered = true;
  options.strategy = ModelStrategy::kNoReplication;
  ExpectReadAheadIndependentLogicalIo(options);
}

TEST(ReadAheadEquivalenceTest, SeparateStrategyLogicalIoMatches) {
  WorkloadOptions options;
  options.s_count = 400;
  options.f = 2;
  options.clustered = false;
  options.strategy = ModelStrategy::kSeparate;
  ExpectReadAheadIndependentLogicalIo(options);
}

// A pool that still holds every page a query touches, but whose
// read-ahead budget (a quarter of the frames) is smaller than one stage's
// page set: the stage cursors must top up mid-stage.
TEST(ReadAheadEquivalenceTest, StageLargerThanReadAheadBudgetLogicalIoMatches) {
  WorkloadOptions options;
  options.s_count = 1000;
  options.f = 2;
  options.clustered = false;
  options.strategy = ModelStrategy::kNoReplication;
  options.pool_frames = 192;
  MeasuredCosts with = ExpectReadAheadIndependentLogicalIo(options);
  EXPECT_GT(with.batched_reads, static_cast<double>(options.pool_frames / 4));
}

}  // namespace
}  // namespace fieldrep
