// Device-equivalence suite (DESIGN.md §15): how the FileDevice moves pages
// is a physical-scheduling choice only. For the empirical_io workloads the
// logical I/O counts MeasureQueryCosts reports — the paper's cost unit —
// must be byte-identical with the ring off or on, with or without
// O_DIRECT, with read-ahead on or off, and the query results themselves
// must be equal row for row.

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

/// One cell of the device matrix.
struct DeviceCell {
  bool ring = false;
  bool o_direct = false;
  bool read_ahead = false;
};

std::string CellTempPath(const DeviceCell& cell) {
  return StringPrintf("/tmp/fieldrep_uring_equiv_%d_%d_%d_%d.db",
                      cell.ring ? 1 : 0, cell.o_direct ? 1 : 0,
                      cell.read_ahead ? 1 : 0, static_cast<int>(::getpid()));
}

std::string CellName(const DeviceCell& cell) {
  return StringPrintf("ring=%d o_direct=%d read_ahead=%d", cell.ring ? 1 : 0,
                      cell.o_direct ? 1 : 0, cell.read_ahead ? 1 : 0);
}

/// Points `options` at a fresh backing file configured as `cell`.
void ConfigureCell(const DeviceCell& cell, WorkloadOptions* options) {
  options->storage_backend = cell.ring ? Database::StorageBackend::kUring
                                       : Database::StorageBackend::kFile;
  options->o_direct = cell.o_direct;
  options->file_path = CellTempPath(cell);
  std::remove(options->file_path.c_str());
}

/// Builds the workload file-backed as `cell` and measures the standard
/// query pair. The backing file is fresh per cell (same build seed), so
/// every cell sees an identical database image.
MeasuredCosts MeasureOnCell(const WorkloadOptions& base_options,
                            const DeviceCell& cell) {
  WorkloadOptions options = base_options;
  ConfigureCell(cell, &options);
  options.read_ahead = cell.read_ahead;
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

/// The full cell matrix: ring {off, on} x o_direct {off, on} x read-ahead
/// {off, on}. Every cell must report the reference cell's logical I/O
/// (a ring the kernel refuses, or O_DIRECT the filesystem refuses, leaves
/// a still-valid cell), and the read-ahead cells must actually read ahead.
void ExpectBackendIndependentLogicalIo(const WorkloadOptions& options) {
  const DeviceCell reference_cell;  // ring off, buffered, no read-ahead
  MeasuredCosts reference = MeasureOnCell(options, reference_cell);
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (bool ring : {false, true}) {
    for (bool o_direct : {false, true}) {
      for (bool read_ahead : {false, true}) {
        const DeviceCell cell{ring, o_direct, read_ahead};
        if (!ring && !o_direct && !read_ahead) continue;  // the reference
        MeasuredCosts costs = MeasureOnCell(options, cell);
        ASSERT_FALSE(::testing::Test::HasFailure()) << CellName(cell);
        EXPECT_EQ(costs.read_io, reference.read_io) << CellName(cell);
        EXPECT_EQ(costs.update_io, reference.update_io) << CellName(cell);
        if (read_ahead) {
          EXPECT_GT(costs.batched_reads, 0.0) << CellName(cell);
        }
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
  for (bool ring : {false, true}) {
    WorkloadOptions cell = options;
    ConfigureCell(DeviceCell{ring, false, true}, &cell);
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
