#include <algorithm>

#include "common/random.h"
#include "common/strings.h"
#include "costmodel/cost_model.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::EmployeeFixture;
using ::fieldrep::testing::ExpectCleanIntegrity;
using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;

/// End-to-end: build a mid-size database, add every kind of replication
/// path, run a mixed workload of queries and mutations, and require all
/// paths consistent and all query plans equivalent throughout.
TEST(IntegrationTest, MixedWorkloadStaysConsistent) {
  auto db = OpenEmployeeDatabase(8192);
  EmployeeFixture fixture = PopulateEmployees(db.get(), 3, 12, 300);
  FR_ASSERT_OK(db->BuildIndex("emp_salary", "Emp1", "salary"));
  FR_ASSERT_OK(db->BuildIndex("dept_budget", "Dept", "budget"));

  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  ReplicateOptions separate;
  separate.strategy = ReplicationStrategy::kSeparate;
  FR_ASSERT_OK(db->Replicate("Emp1.dept.org.name", separate));

  for (int round = 0; round < 5; ++round) {
    // Read queries via replicas and via joins must agree.
    ReadQuery read;
    read.set_name = "Emp1";
    read.projections = {"name", "dept.name", "dept.org.name"};
    read.predicate = Predicate::Between(
        "salary", Value(int32_t{round * 20000}),
        Value(int32_t{round * 20000 + 50000}));
    ReadResult via_replica;
    FR_ASSERT_OK(db->Retrieve(read, &via_replica));
    read.use_replication = false;
    ReadResult via_join;
    FR_ASSERT_OK(db->Retrieve(read, &via_join));
    ASSERT_EQ(via_replica.rows, via_join.rows) << "round " << round;

    // Update replicated fields through the query layer.
    UpdateQuery update;
    update.set_name = "Dept";
    update.predicate = Predicate::Between("budget", Value(int32_t{0}),
                                          Value(int32_t{40}));
    update.assignments = {
        {"name", Value("r" + std::to_string(round))},
        {"budget", Value(int32_t{round + 1})},
    };
    UpdateResult update_result;
    FR_ASSERT_OK(db->Replace(update, &update_result));
    EXPECT_GT(update_result.objects_updated, 0u);

    // Structural churn.
    FR_ASSERT_OK(db->Update("Emp1", fixture.emps[round], "dept",
                            Value(fixture.depts[(round * 5) % 12])));
    FR_ASSERT_OK(db->Update("Dept", fixture.depts[round], "org",
                            Value(fixture.orgs[(round + 1) % 3])));

    for (uint16_t path_id : db->catalog().AllPathIds()) {
      Status s = db->replication().VerifyPathConsistency(path_id);
      ASSERT_TRUE(s.ok()) << "round " << round << ": " << s.ToString();
    }
  }
  ExpectCleanIntegrity(db.get());
}

/// The headline quantitative effect at engine level: with a workload shaped
/// like the model's default (f = 10), measured read I/O with in-place
/// replication is far below no replication, and update I/O is higher —
/// matching the direction and rough magnitude of Figure 11.
TEST(IntegrationTest, MeasuredIoMatchesModelDirection) {
  const int kS = 2000;  // departments (the model's S)
  const int kF = 5;     // sharing level
  auto db = OpenEmployeeDatabase(16384);
  EmployeeFixture fixture = PopulateEmployees(db.get(), 3, kS, 0);
  // R and S must be *relatively unclustered* (the model's key assumption,
  // Section 6.2): employees reference a random department, not the
  // round-robin neighbour.
  Random rng(42);
  for (int k = 0; k < kS * kF; ++k) {
    Object emp(0, {Value(StringPrintf("e%d", k)),
                   Value(int32_t{20 + k % 50}), Value(int32_t{1000 * k}),
                   Value(fixture.depts[rng.Uniform(kS)])});
    Oid oid;
    FR_ASSERT_OK(db->Insert("Emp1", emp, &oid));
    fixture.emps.push_back(oid);
  }
  FR_ASSERT_OK(db->BuildIndex("emp_salary", "Emp1", "salary"));
  FR_ASSERT_OK(db->BuildIndex("dept_budget", "Dept", "budget"));
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));

  // Read query selecting ~1% of Emp1 via the salary index.
  ReadQuery read;
  read.set_name = "Emp1";
  read.projections = {"name", "salary", "dept.name"};
  int32_t lo = 1000 * (kS * kF / 2);
  int32_t hi = lo + 1000 * (kS * kF / 100);
  read.predicate = Predicate::Between("salary", Value(lo), Value(hi));

  FR_ASSERT_OK(db->ColdStart());
  ReadResult replica_rows;
  FR_ASSERT_OK(db->Retrieve(read, &replica_rows));
  uint64_t replica_io = db->io_stats().disk_reads;

  read.use_replication = false;
  FR_ASSERT_OK(db->ColdStart());
  ReadResult join_rows;
  FR_ASSERT_OK(db->Retrieve(read, &join_rows));
  uint64_t join_io = db->io_stats().disk_reads;

  ASSERT_EQ(replica_rows.rows, join_rows.rows);
  ASSERT_GT(replica_rows.rows.size(), 10u);
  // The join touches up to one Dept page per selected object (random refs,
  // Yao-bounded by the Dept file size); the replica plan eliminates all of
  // it.
  EXPECT_LT(replica_io, join_io);
  auto dept_set = db->GetSet("Dept");
  ASSERT_TRUE(dept_set.ok());
  uint64_t dept_pages = (*dept_set)->file().page_count();
  uint64_t expected_extra =
      std::min<uint64_t>(replica_rows.rows.size(), dept_pages);
  EXPECT_GE(join_io - replica_io, expected_extra / 2);

  // Update query touching a few departments: propagation makes it more
  // expensive than the unpropagated baseline would be, but it must stay
  // bounded by ~2 * f * (objects updated) extra I/Os.
  UpdateQuery update;
  update.set_name = "Dept";
  update.predicate =
      Predicate::Between("budget", Value(int32_t{0}), Value(int32_t{40}));
  update.assignments = {{"name", Value("changed")}};
  FR_ASSERT_OK(db->ColdStart());
  UpdateResult update_result;
  FR_ASSERT_OK(db->Replace(update, &update_result));
  FR_ASSERT_OK(db->pool().FlushAll());
  uint64_t update_io = db->io_stats().TotalIo();
  EXPECT_GT(update_result.objects_updated, 0u);
  EXPECT_LE(update_io,
            4 + 2 * update_result.objects_updated * (kF + 3));
  const auto* path = db->catalog().FindPathBySpec("Emp1.dept.name");
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(path->id));
  ExpectCleanIntegrity(db.get());
}

/// File-backed databases run the same workload through the same code path.
TEST(IntegrationTest, FileBackedDatabaseWorks) {
  std::string path = ::testing::TempDir() + "/fieldrep_integration.db";
  std::remove(path.c_str());
  Database::Options options;
  options.buffer_pool_frames = 512;
  options.file_path = path;
  auto db_or = Database::Open(options);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(db_or).value();
  FR_ASSERT_OK(db->DefineType(
      TypeDescriptor("DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "EMP", {CharAttr("name", 20), Int32Attr("salary"),
              RefAttr("dept", "DEPT")})));
  FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
  FR_ASSERT_OK(db->CreateSet("Emp1", "EMP"));
  Oid dept;
  FR_ASSERT_OK(db->Insert(
      "Dept", Object(0, {Value("toys"), Value(int32_t{1})}), &dept));
  for (int i = 0; i < 200; ++i) {
    Oid oid;
    FR_ASSERT_OK(db->Insert(
        "Emp1", Object(0, {Value("e"), Value(int32_t{i}), Value(dept)}),
        &oid));
  }
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  FR_ASSERT_OK(db->Update("Dept", dept, "name", Value("games")));
  const auto* rep = db->catalog().FindPathBySpec("Emp1.dept.name");
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(rep->id));
  ExpectCleanIntegrity(db.get());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fieldrep
