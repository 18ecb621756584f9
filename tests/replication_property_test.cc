#include "common/random.h"
#include "common/strings.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "telemetry/query_trace.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::EmployeeFixture;
using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;
using ::fieldrep::testing::TraversePath;

/// Parameter for the randomized maintenance soak: a strategy/shape
/// combination plus an RNG seed. After every burst of random mutations the
/// full path consistency invariant must hold: every stored replica equals
/// the forward-traversal ground truth, link membership is exact in both
/// directions, and separate-replication refcounts equal the true number of
/// referencing heads.
struct SoakCase {
  const char* name;
  const char* spec;
  ReplicationStrategy strategy;
  bool collapsed;
  uint32_t inline_threshold;
  uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const SoakCase& c) {
  return os << c.name;
}

class ReplicationSoakTest : public ::testing::TestWithParam<SoakCase> {};

TEST_P(ReplicationSoakTest, RandomMutationsPreserveConsistency) {
  const SoakCase& param = GetParam();
  auto db = OpenEmployeeDatabase();
  EmployeeFixture fixture = PopulateEmployees(db.get(), 3, 6, 30);

  ReplicateOptions options;
  options.strategy = param.strategy;
  options.collapsed = param.collapsed;
  options.inline_threshold = param.inline_threshold;
  FR_ASSERT_OK(db->Replicate(param.spec, options));
  const ReplicationPathInfo* path = db->catalog().FindPathBySpec(param.spec);
  ASSERT_NE(path, nullptr);

  Random rng(param.seed);
  std::vector<Oid> emps = fixture.emps;
  int emp_counter = 1000;

  for (int step = 0; step < 220; ++step) {
    int action = static_cast<int>(rng.Uniform(100));
    if (action < 20) {
      // Insert a head with a random (possibly null) dept.
      Value dept = rng.Bernoulli(0.85)
                       ? Value(fixture.depts[rng.Uniform(fixture.depts.size())])
                       : Value::Null();
      Object emp(0, {Value(StringPrintf("emp%d", emp_counter)),
                     Value(int32_t{25}), Value(int32_t{emp_counter}), dept});
      ++emp_counter;
      Oid oid;
      ASSERT_TRUE(db->Insert("Emp1", emp, &oid).ok());
      emps.push_back(oid);
    } else if (action < 35 && emps.size() > 3) {
      // Delete a head.
      size_t pick = rng.Uniform(emps.size());
      ASSERT_TRUE(db->Delete("Emp1", emps[pick]).ok());
      emps.erase(emps.begin() + pick);
    } else if (action < 60 && !emps.empty()) {
      // Retarget a head's dept ref (the update E.dept of Section 4.1.1).
      size_t pick = rng.Uniform(emps.size());
      Value dept = rng.Bernoulli(0.85)
                       ? Value(fixture.depts[rng.Uniform(fixture.depts.size())])
                       : Value::Null();
      ASSERT_TRUE(db->Update("Emp1", emps[pick], "dept", dept).ok());
    } else if (action < 75) {
      // Update a replicated terminal scalar.
      if (std::string(param.spec).find("org") != std::string::npos &&
          std::string(param.spec).find("org.name") != std::string::npos) {
        size_t pick = rng.Uniform(fixture.orgs.size());
        Status s = db->Update("Org", fixture.orgs[pick], "name",
                              Value(StringPrintf("org-v%d", step)));
        ASSERT_TRUE(s.ok()) << s.ToString();
      } else {
        size_t pick = rng.Uniform(fixture.depts.size());
        Status s = db->Update("Dept", fixture.depts[pick], "name",
                              Value(StringPrintf("dept-v%d", step)));
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    } else if (action < 90 &&
               (path->bound.level() == 2 ||
                std::string(param.spec) == "Emp1.dept.org")) {
      // Retarget D.org: for 2-level paths this is the interior ripple of
      // Section 4.1.2; for the ref-terminal path it is a replicated-value
      // update whose value is an OID.
      size_t pick = rng.Uniform(fixture.depts.size());
      Value org = rng.Bernoulli(0.85)
                      ? Value(fixture.orgs[rng.Uniform(fixture.orgs.size())])
                      : Value::Null();
      Status s = db->Update("Dept", fixture.depts[pick], "org", org);
      ASSERT_TRUE(s.ok()) << s.ToString();
    } else {
      // Update an unreplicated scalar (must be a no-op for the path).
      size_t pick = rng.Uniform(fixture.depts.size());
      ASSERT_TRUE(db->Update("Dept", fixture.depts[pick], "budget",
                             Value(static_cast<int32_t>(step)))
                      .ok());
    }

    if (step % 20 == 19) {
      Status s = db->replication().VerifyPathConsistency(path->id);
      ASSERT_TRUE(s.ok()) << "step " << step << ": " << s.ToString();
    }
  }
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(path->id));

  // Final cross-check of every head against ground truth traversal.
  std::vector<std::string> attrs;
  {
    std::string spec = param.spec;
    auto parts = SplitString(spec, '.');
    attrs.assign(parts.begin() + 1, parts.end());
  }
  for (const Oid& emp : emps) {
    Object head;
    FR_ASSERT_OK(db->Get("Emp1", emp, &head));
    std::vector<Value> replica;
    FR_ASSERT_OK(
        db->replication().ReadReplicatedValues(*path, head, &replica));
    Value expected = TraversePath(db.get(), "Emp1", emp, attrs);
    ASSERT_EQ(replica.size(), 1u);
    EXPECT_EQ(replica[0], expected) << emp.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ReplicationSoakTest,
    ::testing::Values(
        SoakCase{"InPlace1Level", "Emp1.dept.name",
                 ReplicationStrategy::kInPlace, false, 1, 11},
        SoakCase{"InPlace1LevelNoInline", "Emp1.dept.name",
                 ReplicationStrategy::kInPlace, false, 0, 12},
        SoakCase{"InPlace1LevelInline3", "Emp1.dept.name",
                 ReplicationStrategy::kInPlace, false, 3, 13},
        SoakCase{"InPlace2Level", "Emp1.dept.org.name",
                 ReplicationStrategy::kInPlace, false, 1, 14},
        SoakCase{"InPlace2LevelNoInline", "Emp1.dept.org.name",
                 ReplicationStrategy::kInPlace, false, 0, 15},
        SoakCase{"Collapsed2Level", "Emp1.dept.org.name",
                 ReplicationStrategy::kInPlace, true, 1, 16},
        SoakCase{"Separate1Level", "Emp1.dept.name",
                 ReplicationStrategy::kSeparate, false, 1, 17},
        SoakCase{"Separate2Level", "Emp1.dept.org.name",
                 ReplicationStrategy::kSeparate, false, 1, 18},
        SoakCase{"RefTerminal", "Emp1.dept.org",
                 ReplicationStrategy::kInPlace, false, 1, 19},
        SoakCase{"InPlace2LevelSeedB", "Emp1.dept.org.name",
                 ReplicationStrategy::kInPlace, false, 1, 20},
        SoakCase{"Separate2LevelSeedB", "Emp1.dept.org.name",
                 ReplicationStrategy::kSeparate, false, 1, 21},
        SoakCase{"Collapsed2LevelSeedB", "Emp1.dept.org.name",
                 ReplicationStrategy::kInPlace, true, 1, 22}),
    [](const ::testing::TestParamInfo<SoakCase>& info) {
      return info.param.name;
    });

/// Multiple coexisting paths (shared prefixes + mixed strategies) must all
/// stay consistent under the same mutation stream.
TEST(ReplicationMultiPathSoakTest, AllPathsStayConsistent) {
  auto db = OpenEmployeeDatabase();
  EmployeeFixture fixture = PopulateEmployees(db.get(), 3, 6, 30);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  FR_ASSERT_OK(db->Replicate("Emp1.dept.budget", {}));
  FR_ASSERT_OK(db->Replicate("Emp1.dept.org.name", {}));
  ReplicateOptions separate;
  separate.strategy = ReplicationStrategy::kSeparate;
  FR_ASSERT_OK(db->Replicate("Emp1.dept.all", separate));

  Random rng(2718);
  std::vector<Oid> emps = fixture.emps;
  for (int step = 0; step < 150; ++step) {
    int action = static_cast<int>(rng.Uniform(100));
    if (action < 25 && !emps.empty()) {
      size_t pick = rng.Uniform(emps.size());
      Value dept = rng.Bernoulli(0.9)
                       ? Value(fixture.depts[rng.Uniform(fixture.depts.size())])
                       : Value::Null();
      ASSERT_TRUE(db->Update("Emp1", emps[pick], "dept", dept).ok());
    } else if (action < 45) {
      size_t pick = rng.Uniform(fixture.depts.size());
      ASSERT_TRUE(db->Update("Dept", fixture.depts[pick], "name",
                             Value(StringPrintf("d%d", step)))
                      .ok());
    } else if (action < 60) {
      size_t pick = rng.Uniform(fixture.depts.size());
      ASSERT_TRUE(db->Update("Dept", fixture.depts[pick], "budget",
                             Value(static_cast<int32_t>(step)))
                      .ok());
    } else if (action < 75) {
      size_t pick = rng.Uniform(fixture.depts.size());
      ASSERT_TRUE(db->Update("Dept", fixture.depts[pick], "org",
                             Value(fixture.orgs[rng.Uniform(3)]))
                      .ok());
    } else if (action < 85) {
      size_t pick = rng.Uniform(fixture.orgs.size());
      ASSERT_TRUE(db->Update("Org", fixture.orgs[pick], "name",
                             Value(StringPrintf("o%d", step)))
                      .ok());
    } else if (action < 93) {
      Object emp(0, {Value(StringPrintf("n%d", step)), Value(int32_t{20}),
                     Value(int32_t{step}),
                     Value(fixture.depts[rng.Uniform(fixture.depts.size())])});
      Oid oid;
      ASSERT_TRUE(db->Insert("Emp1", emp, &oid).ok());
      emps.push_back(oid);
    } else if (emps.size() > 5) {
      size_t pick = rng.Uniform(emps.size());
      ASSERT_TRUE(db->Delete("Emp1", emps[pick]).ok());
      emps.erase(emps.begin() + pick);
    }
    if (step % 30 == 29) {
      for (uint16_t path_id : db->catalog().AllPathIds()) {
        Status s = db->replication().VerifyPathConsistency(path_id);
        ASSERT_TRUE(s.ok()) << "step " << step << ": " << s.ToString();
      }
    }
  }
  for (uint16_t path_id : db->catalog().AllPathIds()) {
    FR_ASSERT_OK(db->replication().VerifyPathConsistency(path_id));
  }
}

/// UpdateFields batches (the update-query shape) behave like the
/// equivalent sequence of single-field updates.
TEST(ReplicationBatchUpdateTest, MultiFieldUpdatePropagates) {
  auto db = OpenEmployeeDatabase();
  EmployeeFixture fixture = PopulateEmployees(db.get(), 2, 4, 16);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.all", {}));
  const ReplicationPathInfo* path =
      db->catalog().FindPathBySpec("Emp1.dept.all");
  auto dept_set = db->GetSet("Dept");
  ASSERT_TRUE(dept_set.ok());
  int name_attr = (*dept_set)->type().FindAttribute("name");
  int budget_attr = (*dept_set)->type().FindAttribute("budget");
  FR_ASSERT_OK(db->replication().UpdateFields(
      "Dept", {fixture.depts[0]},
      {{name_attr, Value("both")}, {budget_attr, Value(int32_t{1234})}}));
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(path->id));
  Object head;
  FR_ASSERT_OK(db->Get("Emp1", fixture.emps[0], &head));
  const ReplicaValueSlot* slot = head.FindReplicaValues(path->id);
  ASSERT_NE(slot, nullptr);
  std::string padded = "both";
  padded.resize(20, '\0');
  EXPECT_EQ(slot->values[0], Value(padded));
  EXPECT_EQ(slot->values[1], Value(int32_t{1234}));
}


// --- Set-at-a-time propagation ------------------------------------------------

/// Terminals `Ss` (tag: an indexed char attribute, so a tag range needs a
/// per-object recheck), heads `Rs`/`Rt` with two references into Ss, and
/// `Xs` heads one level further out, replicated six ways: two in-place
/// paths and a separate path off S.name (one with inlined links), a
/// 2-level uncollapsed path, a collapsed path, and a deferred path. Every
/// R head reaches two terminals, through `a` and through `b`.
struct SetUpdateDb {
  std::unique_ptr<Database> db;
  std::vector<Oid> s;
};

constexpr int kSetTerminals = 12;

SetUpdateDb OpenSetUpdateDb() {
  SetUpdateDb out;
  Database::Options options;
  options.buffer_pool_frames = 4096;  // holds the whole working set
  auto db_or = Database::Open(options);
  EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
  if (!db_or.ok()) return out;
  Database* db = db_or.value().get();
  out.db = std::move(db_or).value();
  FR_EXPECT_OK(db->DefineType(TypeDescriptor(
      "S", {Int32Attr("key"), CharAttr("tag", 8), CharAttr("name", 16),
            Int32Attr("n")})));
  FR_EXPECT_OK(db->DefineType(TypeDescriptor(
      "R", {Int32Attr("key"), RefAttr("a", "S"), RefAttr("b", "S")})));
  FR_EXPECT_OK(db->DefineType(
      TypeDescriptor("X", {Int32Attr("key"), RefAttr("r", "R")})));
  FR_EXPECT_OK(db->CreateSet("Ss", "S"));
  FR_EXPECT_OK(db->CreateSet("Rs", "R"));
  FR_EXPECT_OK(db->CreateSet("Rt", "R"));
  FR_EXPECT_OK(db->CreateSet("Xs", "X"));
  out.s.resize(kSetTerminals);
  for (int i = 0; i < kSetTerminals; ++i) {
    FR_EXPECT_OK(db->Insert(
        "Ss",
        Object(0, {Value(int32_t{i}), Value(StringPrintf("t%02d", i)),
                   Value(StringPrintf("s%d", i)), Value(int32_t{i})}),
        &out.s[i]));
  }
  std::vector<Oid> rs(24);
  for (const char* set : {"Rt", "Rs"}) {
    for (int i = 0; i < 24; ++i) {
      FR_EXPECT_OK(db->Insert(
          set,
          Object(0, {Value(int32_t{i}), Value(out.s[i % kSetTerminals]),
                     Value(out.s[(i * 5 + 1) % kSetTerminals])}),
          &rs[i]));  // the Rs oids remain
    }
  }
  for (int i = 0; i < 24; ++i) {
    Oid x;
    FR_EXPECT_OK(db->Insert(
        "Xs", Object(0, {Value(int32_t{i}), Value(rs[(i * 7) % 24])}), &x));
  }
  ReplicateOptions in_place;
  FR_EXPECT_OK(db->Replicate("Rs.a.name", in_place));
  ReplicateOptions inlined;
  inlined.inline_threshold = 8;
  FR_EXPECT_OK(db->Replicate("Rs.b.name", inlined));
  ReplicateOptions separate;
  separate.strategy = ReplicationStrategy::kSeparate;
  FR_EXPECT_OK(db->Replicate("Rt.a.name", separate));
  FR_EXPECT_OK(db->Replicate("Xs.r.a.name", in_place));
  ReplicateOptions collapsed;
  collapsed.collapsed = true;
  FR_EXPECT_OK(db->Replicate("Xs.r.b.n", collapsed));
  ReplicateOptions deferred;
  deferred.deferred = true;
  FR_EXPECT_OK(db->Replicate("Rt.b.n", deferred));
  FR_EXPECT_OK(db->BuildIndex("s_tag", "Ss", "tag"));
  return out;
}

/// Every object of `set` in physical order, hidden state included.
std::vector<std::pair<Oid, Object>> SetContents(Database* db,
                                                const std::string& set) {
  std::vector<std::pair<Oid, Object>> out;
  auto set_or = db->GetSet(set);
  EXPECT_TRUE(set_or.ok());
  if (!set_or.ok()) return out;
  FR_EXPECT_OK(set_or.value()->Scan([&](const Oid& oid, const Object& obj) {
    out.emplace_back(oid, obj);
    return true;
  }));
  return out;
}

std::vector<std::vector<Value>> Rows(Database* db, const std::string& set,
                                     std::vector<std::string> projections,
                                     bool use_replication) {
  ReadQuery query;
  query.set_name = set;
  query.projections = std::move(projections);
  query.use_replication = use_replication;
  ReadResult result;
  FR_EXPECT_OK(db->Retrieve(query, &result));
  return result.rows;
}

/// A multi-object Replace leaves exactly the state, the replica values,
/// the propagation work counters and the paper's page-I/O counts of the
/// same assignments applied one Update at a time.
TEST(ReplicationBatchUpdateTest, SetReplaceMatchesObjectAtATimeUpdates) {
  SetUpdateDb set_db = OpenSetUpdateDb();
  SetUpdateDb one_db = OpenSetUpdateDb();
  ASSERT_FALSE(::testing::Test::HasFailure());
  Database* set_wise = set_db.db.get();
  Database* one_wise = one_db.db.get();

  struct Statement {
    int lo, hi;  ///< tag range "t<lo>".."t<hi>"
    std::vector<std::pair<std::string, Value>> assignments;
  };
  // Two overlapping statements; the first rewrites two replicated fields
  // of each target at once.
  const std::vector<Statement> statements = {
      {2, 8, {{"name", Value("renamed")}, {"n", Value(int32_t{42})}}},
      {5, 11, {{"n", Value(int32_t{7})}}},
  };
  for (const Statement& st : statements) {
    SCOPED_TRACE(StringPrintf("tags t%02d..t%02d", st.lo, st.hi));
    for (Database* db : {set_wise, one_wise}) {
      FR_ASSERT_OK(db->pool().EvictAll());
      db->pool().ResetStats();
    }
    UpdateQuery query;
    query.set_name = "Ss";
    query.predicate = Predicate::Between(
        "tag", Value(StringPrintf("t%02d", st.lo)),
        Value(StringPrintf("t%02d", st.hi)));
    query.assignments = st.assignments;
    UpdateResult result;
    QueryTrace trace;
    const auto set_before = set_wise->replication().telemetry();
    FR_ASSERT_OK(set_wise->Replace(query, &result, &trace));
    EXPECT_TRUE(result.used_index);
    EXPECT_EQ(result.objects_updated, static_cast<uint64_t>(st.hi - st.lo + 1));

    const auto one_before = one_wise->replication().telemetry();
    for (int i = st.lo; i <= st.hi; ++i) {
      for (const auto& [attr, value] : st.assignments) {
        FR_ASSERT_OK(one_wise->Update("Ss", one_db.s[i], attr, value));
      }
    }

    // The paper's cost unit: with a pool that holds the working set, the
    // same pages are read and written. The Replace's collect stage reads
    // the tag index, which the direct Updates never touch.
    FR_ASSERT_OK(set_wise->pool().FlushAll());
    FR_ASSERT_OK(one_wise->pool().FlushAll());
    IoStats set_update_io;
    for (const QueryStageTrace& stage : trace.stages) {
      if (stage.name == "update") set_update_io = stage.io;
    }
    EXPECT_EQ(set_update_io.disk_reads, one_wise->pool().stats().disk_reads);
    EXPECT_EQ(set_wise->pool().stats().disk_writes,
              one_wise->pool().stats().disk_writes);

    const auto set_after = set_wise->replication().telemetry();
    const auto one_after = one_wise->replication().telemetry();
    EXPECT_EQ(set_after.propagations - set_before.propagations,
              one_after.propagations - one_before.propagations);
    EXPECT_EQ(set_after.heads_updated - set_before.heads_updated,
              one_after.heads_updated - one_before.heads_updated);
    EXPECT_EQ(set_after.link_traversals - set_before.link_traversals,
              one_after.link_traversals - one_before.link_traversals);
    EXPECT_EQ(set_after.separate_replica_writes -
                  set_before.separate_replica_writes,
              one_after.separate_replica_writes -
                  one_before.separate_replica_writes);
    EXPECT_EQ(set_wise->replication().pending_propagation_count(),
              one_wise->replication().pending_propagation_count());
  }

  for (Database* db : {set_wise, one_wise}) {
    FR_ASSERT_OK(db->replication().FlushAllPendingPropagation());
  }
  // Same objects, hidden replica and link state included.
  for (const char* set : {"Ss", "Rs", "Rt", "Xs"}) {
    EXPECT_EQ(SetContents(set_wise, set), SetContents(one_wise, set)) << set;
  }
  // Same answers by join, in-place replica and separate replica, and each
  // strategy agrees with the join.
  const std::vector<std::pair<std::string, std::vector<std::string>>> reads =
      {{"Rs", {"key", "a.name", "b.name"}},
       {"Rt", {"key", "a.name", "b.n"}},
       {"Xs", {"key", "r.a.name", "r.b.n"}}};
  for (const auto& [set, projections] : reads) {
    const auto joined = Rows(set_wise, set, projections, false);
    EXPECT_EQ(Rows(set_wise, set, projections, true), joined) << set;
    EXPECT_EQ(Rows(one_wise, set, projections, true), joined) << set;
    EXPECT_EQ(Rows(one_wise, set, projections, false), joined) << set;
  }
  for (Database* db : {set_wise, one_wise}) {
    for (uint16_t path_id : db->catalog().AllPathIds()) {
      FR_EXPECT_OK(db->replication().VerifyPathConsistency(path_id));
    }
    ::fieldrep::testing::ExpectCleanIntegrity(db);
  }
}

/// The set pass hands the device a few deep batches per statement, not a
/// round trip per terminal: on a cold pool, a k-object Replace issues the
/// same number of read batches at k = 5 as at k = 25, counting every
/// batch the stage cursors issue, budget top-ups included.
TEST(ReplicationBatchUpdateTest, ReadBatchesDoNotGrowWithTerminalCount) {
  Database::Options options;
  options.buffer_pool_frames = 1024;  // read-ahead budget: 256 pages
  auto db_or = Database::Open(options);
  FR_ASSERT_OK(db_or.status());
  Database* db = db_or.value().get();
  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "S", {Int32Attr("key"), CharAttr("name", 16)})));
  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "R", {Int32Attr("key"), RefAttr("s", "S"), CharAttr("filler", 60)})));
  FR_ASSERT_OK(db->CreateSet("S", "S"));
  FR_ASSERT_OK(db->CreateSet("Ri", "R"));
  FR_ASSERT_OK(db->CreateSet("Rs", "R"));
  constexpr int kS = 200;
  constexpr int kFanout = 5;
  std::vector<Oid> s(kS);
  for (int i = 0; i < kS; ++i) {
    FR_ASSERT_OK(db->Insert(
        "S", Object(0, {Value(int32_t{i}), Value(StringPrintf("s%d", i))}),
        &s[i]));
  }
  // Heads reference their terminals in scattered order (R and S
  // unclustered), five heads per terminal in each head set.
  Random rng(17);
  std::vector<int> refs;
  for (int i = 0; i < kS * kFanout; ++i) refs.push_back(i % kS);
  for (size_t i = refs.size(); i > 1; --i) {
    std::swap(refs[i - 1], refs[rng.Uniform(i)]);
  }
  for (const char* set : {"Ri", "Rs"}) {
    for (size_t i = 0; i < refs.size(); ++i) {
      Oid oid;
      FR_ASSERT_OK(db->Insert(
          set, Object(0, {Value(static_cast<int32_t>(i)), Value(s[refs[i]]),
                          Value("x")}),
          &oid));
    }
  }
  FR_ASSERT_OK(db->Replicate("Ri.s.name", {}));
  ReplicateOptions separate;
  separate.strategy = ReplicationStrategy::kSeparate;
  FR_ASSERT_OK(db->Replicate("Rs.s.name", separate));
  FR_ASSERT_OK(db->BuildIndex("s_key", "S", "key"));

  auto update_batches = [&](int lo, int k) -> uint64_t {
    FR_EXPECT_OK(db->pool().EvictAll());
    UpdateQuery query;
    query.set_name = "S";
    query.predicate = Predicate::Between("key", Value(int32_t{lo}),
                                         Value(int32_t{lo + k - 1}));
    query.assignments = {{"name", Value(StringPrintf("k%d", k))}};
    UpdateResult result;
    QueryTrace trace;
    FR_EXPECT_OK(db->Replace(query, &result, &trace));
    EXPECT_EQ(result.objects_updated, static_cast<uint64_t>(k));
    for (const QueryStageTrace& stage : trace.stages) {
      if (stage.name == "update") {
        // The heads really are scattered: the statement reads many pages.
        EXPECT_GT(stage.io.disk_reads, static_cast<uint64_t>(k));
        return stage.io.read_batches;
      }
    }
    ADD_FAILURE() << "no update stage";
    return 0;
  };
  const uint64_t at_5 = update_batches(0, 5);
  const uint64_t at_25 = update_batches(100, 25);
  EXPECT_EQ(at_5, at_25);
  // Targets, link objects, then heads and S' records: three batches.
  EXPECT_LE(at_25, 3u);
  ::fieldrep::testing::ExpectCleanIntegrity(db);
}

}  // namespace
}  // namespace fieldrep
