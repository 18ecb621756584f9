// The parallel read executor must be observationally identical to the
// serial engine: same result rows in the same order, same access kinds,
// and byte-identical logical I/O counters (fetches / hits / disk_reads)
// for every worker count, with read-ahead on or off. Covers all three
// replication strategies so every stage of the fan-out is exercised:
// in-place answers from the head pages (stage 0), separate fetches
// replica records from S' (stage 1), and no-replication falls back to
// level-by-level functional joins (stage 2).

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::bench::BuildModelWorkload;
using ::fieldrep::bench::ModelWorkload;
using ::fieldrep::bench::WorkloadOptions;

struct RunOutcome {
  ReadResult result;
  IoStats stats;
};

RunOutcome RunConfig(Database* db, const ReadQuery& query, size_t threads,
                     bool read_ahead) {
  RunOutcome out;
  FR_EXPECT_OK(db->SetWorkerThreads(threads));
  db->pool().set_read_ahead(read_ahead);
  FR_EXPECT_OK(db->ColdStart());
  FR_EXPECT_OK(db->Retrieve(query, &out.result));
  out.stats = db->io_stats();
  return out;
}

void ExpectSameOutcome(const RunOutcome& base, const RunOutcome& run,
                       size_t threads, bool read_ahead) {
  SCOPED_TRACE(::testing::Message()
               << "threads=" << threads << " read_ahead=" << read_ahead);
  ASSERT_EQ(base.result.rows.size(), run.result.rows.size());
  for (size_t i = 0; i < base.result.rows.size(); ++i) {
    ASSERT_EQ(base.result.rows[i].size(), run.result.rows[i].size());
    for (size_t c = 0; c < base.result.rows[i].size(); ++c) {
      EXPECT_EQ(base.result.rows[i][c], run.result.rows[i][c])
          << "row " << i << " column " << c;
    }
  }
  EXPECT_EQ(base.result.access, run.result.access);
  EXPECT_EQ(base.result.used_index, run.result.used_index);
  EXPECT_EQ(base.result.heads_scanned, run.result.heads_scanned);
  // The paper's cost unit: the parallel plan may reorder page touches but
  // must never change how many there are or how they classify.
  EXPECT_EQ(base.stats.fetches, run.stats.fetches);
  EXPECT_EQ(base.stats.hits, run.stats.hits);
  EXPECT_EQ(base.stats.disk_reads, run.stats.disk_reads);
  EXPECT_EQ(base.stats.disk_writes, run.stats.disk_writes);
  if (read_ahead) {
    EXPECT_GT(run.stats.batched_reads, 0u);
  } else {
    EXPECT_EQ(run.stats.batched_reads, 0u);
  }
}

void ExpectParallelEquivalence(const WorkloadOptions& options,
                               const ReadQuery& query) {
  auto workload_or = BuildModelWorkload(options);
  ASSERT_TRUE(workload_or.ok()) << workload_or.status().ToString();
  ModelWorkload workload = std::move(workload_or).value();
  Database* db = workload.db.get();

  RunOutcome base = RunConfig(db, query, /*threads=*/1, /*read_ahead=*/true);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_GT(base.result.rows.size(), 0u);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (bool read_ahead : {true, false}) {
      RunOutcome run = RunConfig(db, query, threads, read_ahead);
      ExpectSameOutcome(base, run, threads, read_ahead);
    }
  }
  FR_EXPECT_OK(db->SetWorkerThreads(1));
  EXPECT_EQ(db->pool().total_pins(), 0u);
}

ReadQuery RangeQuery(uint32_t r_count) {
  // An indexed range over half of R, projecting the replicated path.
  // (std::string{} move-assignments sidestep gcc 12's -Wrestrict false
  // positive on const char* assigns in this inline context, PR 105651.)
  ReadQuery query;
  query.set_name = std::string{"R"};
  query.projections = {"field_r", "sref.repfield"};
  query.predicate =
      Predicate::Between("field_r", Value(int32_t{0}),
                         Value(static_cast<int32_t>(r_count / 2)));
  return query;
}

TEST(ParallelEquivalenceTest, InPlaceIndexedRange) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kInPlace;
  ExpectParallelEquivalence(options, RangeQuery(options.s_count * options.f));
}

TEST(ParallelEquivalenceTest, SeparateIndexedRange) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kSeparate;
  ExpectParallelEquivalence(options, RangeQuery(options.s_count * options.f));
}

TEST(ParallelEquivalenceTest, NoReplicationFunctionalJoin) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kNoReplication;
  ExpectParallelEquivalence(options, RangeQuery(options.s_count * options.f));
}

// The pool holds the query, but each stage's page set is larger than the
// pool-wide read-ahead budget, which the workers' cursors share.
TEST(ParallelEquivalenceTest, StagesLargerThanReadAheadBudget) {
  WorkloadOptions options;
  options.s_count = 1000;
  options.f = 2;
  options.strategy = ModelStrategy::kNoReplication;
  options.pool_frames = 192;
  ExpectParallelEquivalence(options, RangeQuery(options.s_count * options.f));
}

TEST(ParallelEquivalenceTest, FullScanWithoutPredicate) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kInPlace;
  ReadQuery query;
  query.set_name = std::string{"R"};
  query.projections = {"field_r", "sref.repfield"};
  ExpectParallelEquivalence(options, query);
}

TEST(ParallelEquivalenceTest, ClusteredJoinQuery) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.clustered = true;
  options.strategy = ModelStrategy::kNoReplication;
  ExpectParallelEquivalence(options, RangeQuery(options.s_count * options.f));
}

}  // namespace
}  // namespace fieldrep
