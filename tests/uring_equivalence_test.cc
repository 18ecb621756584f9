// Device-equivalence suite (DESIGN.md §15): the storage backend is a
// physical-scheduling choice only. For the empirical_io workloads the
// logical I/O counts MeasureQueryCosts reports — the paper's cost unit —
// must be byte-identical between FileDevice and UringDevice, at any
// read-ahead window, and the query results themselves must be equal
// row for row.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "gtest/gtest.h"
#include "query/read_query.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::bench::BuildModelWorkload;
using ::fieldrep::bench::MeasureQueryCosts;
using ::fieldrep::bench::MeasuredCosts;
using ::fieldrep::bench::ModelWorkload;
using ::fieldrep::bench::WorkloadOptions;

std::string BackendTempPath(Database::StorageBackend backend,
                            bool read_ahead) {
  return StringPrintf("/tmp/fieldrep_uring_equiv_%d_%d_%d.db",
                      static_cast<int>(backend), read_ahead ? 1 : 0,
                      static_cast<int>(::getpid()));
}

/// Builds the workload file-backed on `backend` and measures the standard
/// query pair. The backing file is fresh per cell (same build seed), so
/// every cell sees an identical database image.
MeasuredCosts MeasureOnBackend(const WorkloadOptions& base_options,
                               Database::StorageBackend backend,
                               bool read_ahead) {
  WorkloadOptions options = base_options;
  options.storage_backend = backend;
  options.read_ahead_window = read_ahead ? kDefaultReadAheadWindow : 0;
  options.file_path = BackendTempPath(backend, read_ahead);
  std::remove(options.file_path.c_str());
  auto workload_or = BuildModelWorkload(options);
  EXPECT_TRUE(workload_or.ok()) << workload_or.status().ToString();
  if (!workload_or.ok()) return {};
  ModelWorkload workload = std::move(workload_or).value();
  auto costs_or = MeasureQueryCosts(&workload, /*fr=*/0.1, /*fs=*/0.05,
                                    /*trials=*/2);
  EXPECT_TRUE(costs_or.ok()) << costs_or.status().ToString();
  workload.db.reset();
  std::remove(options.file_path.c_str());
  return costs_or.ok() ? costs_or.value() : MeasuredCosts{};
}

/// The full cell matrix: read-ahead {off, on} x backends {file, uring}.
/// All four cells must report the same logical I/O (the uring cells with
/// an inactive ring degrade to the synchronous path — still a valid
/// cell), and the read-ahead cells must actually read ahead.
void ExpectBackendIndependentLogicalIo(const WorkloadOptions& options) {
  MeasuredCosts reference =
      MeasureOnBackend(options, Database::StorageBackend::kFile, false);
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (bool read_ahead : {false, true}) {
    for (Database::StorageBackend backend :
         {Database::StorageBackend::kFile,
          Database::StorageBackend::kUring}) {
      if (backend == Database::StorageBackend::kFile && !read_ahead) {
        continue;  // that's the reference cell
      }
      MeasuredCosts costs = MeasureOnBackend(options, backend, read_ahead);
      ASSERT_FALSE(::testing::Test::HasFailure());
      EXPECT_EQ(costs.read_io, reference.read_io)
          << "backend=" << static_cast<int>(backend)
          << " read_ahead=" << read_ahead;
      EXPECT_EQ(costs.update_io, reference.update_io)
          << "backend=" << static_cast<int>(backend)
          << " read_ahead=" << read_ahead;
      if (read_ahead) {
        EXPECT_GT(costs.batched_reads, 0.0)
            << "backend=" << static_cast<int>(backend);
      }
    }
  }
}

TEST(UringEquivalenceTest, InPlaceLogicalIoMatchesAcrossBackends) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.clustered = false;
  options.strategy = ModelStrategy::kInPlace;
  ExpectBackendIndependentLogicalIo(options);
}

TEST(UringEquivalenceTest, NoReplicationLogicalIoMatchesAcrossBackends) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 1;
  options.clustered = true;
  options.strategy = ModelStrategy::kNoReplication;
  ExpectBackendIndependentLogicalIo(options);
}

// Every page of the query fits the pool, but one stage's page set is
// larger than the read-ahead budget, so the cursors top up mid-stage.
TEST(UringEquivalenceTest, StageLargerThanReadAheadBudgetMatchesAcrossBackends) {
  WorkloadOptions options;
  options.s_count = 1000;
  options.f = 2;
  options.clustered = false;
  options.strategy = ModelStrategy::kNoReplication;
  options.pool_frames = 192;
  ExpectBackendIndependentLogicalIo(options);
}

TEST(UringEquivalenceTest, QueryRowsAreIdenticalAcrossBackends) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kInPlace;

  ReadResult results[2];
  int i = 0;
  for (Database::StorageBackend backend :
       {Database::StorageBackend::kFile, Database::StorageBackend::kUring}) {
    WorkloadOptions cell = options;
    cell.storage_backend = backend;
    cell.file_path = BackendTempPath(backend, /*read_ahead=*/true);
    std::remove(cell.file_path.c_str());
    auto workload_or = BuildModelWorkload(cell);
    ASSERT_TRUE(workload_or.ok()) << workload_or.status().ToString();
    ModelWorkload workload = std::move(workload_or).value();

    ReadQuery query;
    query.set_name = "R";
    query.projections = {"field_r", "sref.repfield"};
    FR_ASSERT_OK(workload.db->ColdStart());
    FR_ASSERT_OK(workload.db->Retrieve(query, &results[i]));
    workload.db.reset();
    std::remove(cell.file_path.c_str());
    ++i;
  }
  ASSERT_EQ(results[0].rows.size(), results[1].rows.size());
  EXPECT_GT(results[0].rows.size(), 0u);
  for (size_t row = 0; row < results[0].rows.size(); ++row) {
    EXPECT_EQ(results[0].rows[row], results[1].rows[row]) << "row " << row;
  }
  EXPECT_EQ(results[0].access, results[1].access);
}

}  // namespace
}  // namespace fieldrep
