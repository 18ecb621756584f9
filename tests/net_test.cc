// Client/server suite (DESIGN.md §12): wire-protocol codecs, round-trip
// equivalence against the embedded engine, protocol edge cases over raw
// sockets, session lifecycle (disconnect aborts transactions), group
// commit under concurrency, crash recovery mid-batch, prepared
// statements, admission control, and the metrics opcode.
//
// Servers listen on unix sockets in the test temp dir; the concurrency
// suite is named NetConcurrencyTest so the tsan CI lane picks it up.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/strings.h"
#include "costmodel/params.h"
#include "gtest/gtest.h"
#include "net/protocol.h"
#include "net/server.h"
#include "storage/fault_injecting_device.h"
#include "storage/memory_device.h"
#include "telemetry/metrics.h"
#include "test_util.h"
#include "wal/wal_manager.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::EmployeeFixture;
using ::fieldrep::testing::ExpectCleanIntegrity;
using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;
using client::Client;

std::string TestSocketPath(const char* tag) {
  return StringPrintf("/tmp/fieldrep_net_test_%s_%d.sock", tag,
                      static_cast<int>(::getpid()));
}

/// Polls `pred` for up to `timeout_ms`; disconnect cleanup runs on the
/// server's event thread, so tests that observe its effects must wait.
bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- Wire protocol codecs -----------------------------------------------------

TEST(NetProtocolTest, FrameRoundTripAndPartialReassembly) {
  net::Frame frame;
  frame.opcode = static_cast<uint16_t>(net::Opcode::kExecute);
  frame.session_id = 0x1122334455667788ull;
  frame.payload = "hello payload";
  std::string wire;
  net::EncodeFrame(frame, &wire);

  // Feed the encoding one byte at a time: exactly one complete frame,
  // only once the last byte arrives.
  std::string buffer;
  net::Frame decoded;
  bool complete = false;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    buffer.push_back(wire[i]);
    FR_ASSERT_OK(net::TryParseFrame(&buffer, &decoded, &complete));
    ASSERT_FALSE(complete) << "frame complete after " << i + 1 << " bytes";
  }
  buffer.push_back(wire.back());
  FR_ASSERT_OK(net::TryParseFrame(&buffer, &decoded, &complete));
  ASSERT_TRUE(complete);
  EXPECT_EQ(decoded.opcode, frame.opcode);
  EXPECT_EQ(decoded.session_id, frame.session_id);
  EXPECT_EQ(decoded.payload, frame.payload);
  EXPECT_TRUE(buffer.empty());
}

TEST(NetProtocolTest, RejectsBadMagicVersionAndOversizeLength) {
  net::Frame frame;
  frame.opcode = static_cast<uint16_t>(net::Opcode::kHandshake);
  std::string good;
  net::EncodeFrame(frame, &good);

  net::Frame decoded;
  bool complete = false;

  std::string bad_magic = good;
  bad_magic[4] ^= 0xFF;
  EXPECT_FALSE(net::TryParseFrame(&bad_magic, &decoded, &complete).ok());

  std::string bad_version = good;
  bad_version[8] = 0x7F;
  EXPECT_FALSE(net::TryParseFrame(&bad_version, &decoded, &complete).ok());

  std::string oversize;
  PutU32(&oversize, net::kMaxFrameLength + 1);
  oversize.append(good.substr(4));
  EXPECT_FALSE(net::TryParseFrame(&oversize, &decoded, &complete).ok());

  std::string undersize;
  PutU32(&undersize, net::kFrameHeaderSize - 1);
  EXPECT_FALSE(net::TryParseFrame(&undersize, &decoded, &complete).ok());
}

TEST(NetProtocolTest, StatementRoundTripPreservesQuery) {
  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name", "salary", "dept.name"};
  query.predicate = Predicate::Compare("salary", CompareOp::kGt,
                                       Value(int32_t{41000}));
  query.write_output = true;
  query.output_pad = 100;

  std::string wire;
  net::EncodeReadStatement(net::ReadStatement::From(query), &wire);
  ByteReader reader(wire);
  net::ReadStatement decoded;
  FR_ASSERT_OK(net::DecodeReadStatement(&reader, &decoded));
  EXPECT_EQ(decoded.ParamCount(), 0);
  auto bound = decoded.Bind({});
  FR_ASSERT_OK(bound.status());
  EXPECT_EQ(bound.value().set_name, query.set_name);
  EXPECT_EQ(bound.value().projections, query.projections);
  EXPECT_TRUE(bound.value().write_output);
  EXPECT_EQ(bound.value().output_pad, 100u);
  ASSERT_TRUE(bound.value().predicate.has_value());
}

TEST(NetProtocolTest, ParameterizedStatementBindsInOrder) {
  net::UpdateStatement stmt;
  stmt.set_name = "T";
  net::StatementPredicate pred;
  pred.attr_name = "key";
  pred.op = CompareOp::kEq;
  pred.operand = net::WireOperand::Param(0);
  stmt.predicate = pred;
  stmt.assignments.emplace_back("val", net::WireOperand::Param(1));

  std::string wire;
  net::EncodeUpdateStatement(stmt, &wire);
  ByteReader reader(wire);
  net::UpdateStatement decoded;
  FR_ASSERT_OK(net::DecodeUpdateStatement(&reader, &decoded));
  EXPECT_EQ(decoded.ParamCount(), 2);

  auto bound = decoded.Bind({Value(int32_t{7}), Value(int32_t{99})});
  FR_ASSERT_OK(bound.status());
  ASSERT_EQ(bound.value().assignments.size(), 1u);
  EXPECT_EQ(bound.value().assignments[0].second, Value(int32_t{99}));

  // Too few parameters must fail, not crash.
  EXPECT_FALSE(decoded.Bind({Value(int32_t{7})}).ok());
}

TEST(NetProtocolTest, ErrorPayloadRoundTripsStatus) {
  std::string wire;
  net::EncodeErrorPayload(Status::Unavailable("server at capacity"), &wire);
  ByteReader reader(wire);
  Status decoded;
  FR_ASSERT_OK(net::DecodeErrorPayload(&reader, &decoded));
  EXPECT_TRUE(decoded.IsUnavailable());
  EXPECT_NE(decoded.ToString().find("server at capacity"), std::string::npos);
}

// --- Server fixtures ----------------------------------------------------------

struct ServedEmployees {
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  EmployeeFixture fixture;

  static ServedEmployees Start(const char* tag,
                               net::ServerOptions options = {}) {
    ServedEmployees s;
    s.db = OpenEmployeeDatabase();
    s.fixture = PopulateEmployees(s.db.get(), 4, 16, 200);
    options.address = "unix:" + TestSocketPath(tag);
    auto server_or = net::Server::Start(s.db.get(), options);
    EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
    if (server_or.ok()) s.server = std::move(server_or).value();
    return s;
  }
};

ReadQuery SalaryQuery(int32_t threshold) {
  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name", "salary", "dept.name"};
  query.predicate = Predicate::Compare("salary", CompareOp::kGt,
                                       Value(threshold));
  return query;
}

// --- Round-trip equivalence ---------------------------------------------------

/// The acceptance bar for the protocol: a query round-tripped through
/// the server returns byte-identical rows and costs the same logical
/// I/O as the embedded engine, for every replication strategy.
class NetEquivalenceTest
    : public ::testing::TestWithParam<ModelStrategy> {};

TEST_P(NetEquivalenceTest, ServedQueryMatchesEmbedded) {
  // Two identically-built databases: one served, one embedded.
  auto embedded = OpenEmployeeDatabase();
  PopulateEmployees(embedded.get(), 4, 16, 200);
  ServedEmployees served = ServedEmployees::Start("equiv");
  ASSERT_NE(served.server, nullptr);

  const ModelStrategy strategy = GetParam();
  if (strategy != ModelStrategy::kNoReplication) {
    ReplicateOptions options;
    options.strategy = strategy == ModelStrategy::kInPlace
                           ? ReplicationStrategy::kInPlace
                           : ReplicationStrategy::kSeparate;
    FR_ASSERT_OK(embedded->Replicate("Emp1.dept.name", options));
    FR_ASSERT_OK(served.db->Replicate("Emp1.dept.name", options));
  }

  auto client_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(client_or.status());
  auto& client = *client_or.value();

  for (const int32_t threshold : {0, 41000, 199000, 1000000}) {
    const ReadQuery query = SalaryQuery(threshold);

    FR_ASSERT_OK(embedded->ColdStart());
    ReadResult embedded_result;
    FR_ASSERT_OK(embedded->Retrieve(query, &embedded_result));
    const IoStats embedded_io = embedded->io_stats();

    FR_ASSERT_OK(served.db->ColdStart());
    ReadResult served_result;
    FR_ASSERT_OK(client.Retrieve(query, &served_result));
    const IoStats served_io = served.db->io_stats();

    // Byte-identical rows (Value equality is exact, padding included).
    ASSERT_EQ(served_result.rows.size(), embedded_result.rows.size())
        << "threshold " << threshold;
    for (size_t i = 0; i < served_result.rows.size(); ++i) {
      EXPECT_EQ(served_result.rows[i], embedded_result.rows[i]);
    }
    EXPECT_EQ(served_result.heads_scanned, embedded_result.heads_scanned);
    EXPECT_EQ(served_result.used_index, embedded_result.used_index);
    ASSERT_EQ(served_result.access.size(), embedded_result.access.size());
    for (size_t i = 0; i < served_result.access.size(); ++i) {
      EXPECT_EQ(served_result.access[i], embedded_result.access[i]);
    }

    // Equal logical I/O: the transport adds zero page traffic.
    EXPECT_EQ(served_io.fetches, embedded_io.fetches);
    EXPECT_EQ(served_io.hits, embedded_io.hits);
    EXPECT_EQ(served_io.disk_reads, embedded_io.disk_reads);
    EXPECT_EQ(served_io.disk_writes, embedded_io.disk_writes);
  }

  // Updates too: same replace through both engines, then re-read.
  UpdateQuery update;
  update.set_name = "Emp1";
  update.predicate = Predicate::Compare("salary", CompareOp::kGt,
                                        Value(int32_t{150000}));
  update.assignments.emplace_back("salary", Value(int32_t{150001}));
  UpdateResult embedded_update, served_update;
  FR_ASSERT_OK(embedded->Replace(update, &embedded_update));
  FR_ASSERT_OK(client.Replace(update, &served_update));
  EXPECT_EQ(served_update.objects_updated, embedded_update.objects_updated);

  ReadResult after_embedded, after_served;
  FR_ASSERT_OK(embedded->Retrieve(SalaryQuery(0), &after_embedded));
  FR_ASSERT_OK(client.Retrieve(SalaryQuery(0), &after_served));
  ASSERT_EQ(after_served.rows.size(), after_embedded.rows.size());
  for (size_t i = 0; i < after_served.rows.size(); ++i) {
    EXPECT_EQ(after_served.rows[i], after_embedded.rows[i]);
  }

  ExpectCleanIntegrity(served.db.get());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, NetEquivalenceTest,
                         ::testing::Values(ModelStrategy::kNoReplication,
                                           ModelStrategy::kInPlace,
                                           ModelStrategy::kSeparate),
                         [](const auto& info) {
                           switch (info.param) {
                             case ModelStrategy::kInPlace:
                               return std::string("InPlace");
                             case ModelStrategy::kSeparate:
                               return std::string("Separate");
                             default:
                               return std::string("NoReplication");
                           }
                         });

// --- Protocol edge cases over raw sockets -------------------------------------

class NetEdgeCaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    served_ = ServedEmployees::Start("edge");
    ASSERT_NE(served_.server, nullptr);
  }

  /// The server must still serve a full round trip — the bar after every
  /// edge case below.
  void ExpectServerUsable() {
    auto client_or = Client::Connect(served_.server->address());
    FR_ASSERT_OK(client_or.status());
    ReadResult result;
    FR_ASSERT_OK(client_or.value()->Retrieve(SalaryQuery(-1), &result));
    EXPECT_EQ(result.rows.size(), 200u);
  }

  Result<int> RawConnect() {
    return net::ConnectTo(served_.server->address());
  }

  ServedEmployees served_;
};

TEST_F(NetEdgeCaseTest, BadMagicGetsStructuredErrorThenDrop) {
  auto fd_or = RawConnect();
  FR_ASSERT_OK(fd_or.status());
  const int fd = fd_or.value();

  net::Frame frame;
  frame.opcode = static_cast<uint16_t>(net::Opcode::kHandshake);
  std::string wire;
  net::EncodeFrame(frame, &wire);
  wire[4] ^= 0xFF;  // corrupt the magic
  FR_ASSERT_OK(net::WriteFully(fd, wire.data(), wire.size()));

  std::string buffer;
  net::Frame reply;
  FR_ASSERT_OK(net::ReadFrameBlocking(fd, &buffer, &reply));
  EXPECT_EQ(reply.opcode, static_cast<uint16_t>(net::Opcode::kError));
  // The session is dropped after the error: next read sees EOF.
  net::Frame next;
  EXPECT_FALSE(net::ReadFrameBlocking(fd, &buffer, &next).ok());
  ::close(fd);
  ExpectServerUsable();
}

TEST_F(NetEdgeCaseTest, VersionMismatchIsRejected) {
  auto fd_or = RawConnect();
  FR_ASSERT_OK(fd_or.status());
  const int fd = fd_or.value();

  net::Frame frame;
  frame.opcode = static_cast<uint16_t>(net::Opcode::kHandshake);
  std::string wire;
  net::EncodeFrame(frame, &wire);
  wire[8] = 0x7E;  // bogus protocol version
  FR_ASSERT_OK(net::WriteFully(fd, wire.data(), wire.size()));

  std::string buffer;
  net::Frame reply;
  FR_ASSERT_OK(net::ReadFrameBlocking(fd, &buffer, &reply));
  EXPECT_EQ(reply.opcode, static_cast<uint16_t>(net::Opcode::kError));
  ::close(fd);
  ExpectServerUsable();
}

TEST_F(NetEdgeCaseTest, OversizeLengthIsRejected) {
  auto fd_or = RawConnect();
  FR_ASSERT_OK(fd_or.status());
  const int fd = fd_or.value();

  std::string wire;
  PutU32(&wire, net::kMaxFrameLength + 1);
  PutU32(&wire, net::kMagic);
  PutU16(&wire, net::kProtocolVersion);
  PutU16(&wire, static_cast<uint16_t>(net::Opcode::kHandshake));
  PutU64(&wire, 0);
  FR_ASSERT_OK(net::WriteFully(fd, wire.data(), wire.size()));

  std::string buffer;
  net::Frame reply;
  FR_ASSERT_OK(net::ReadFrameBlocking(fd, &buffer, &reply));
  EXPECT_EQ(reply.opcode, static_cast<uint16_t>(net::Opcode::kError));
  ::close(fd);
  ExpectServerUsable();
}

TEST_F(NetEdgeCaseTest, MidFrameDisconnectIsACleanSessionDrop) {
  auto fd_or = RawConnect();
  FR_ASSERT_OK(fd_or.status());
  const int fd = fd_or.value();

  net::Frame frame;
  frame.opcode = static_cast<uint16_t>(net::Opcode::kHandshake);
  frame.payload = std::string(64, 'x');
  std::string wire;
  net::EncodeFrame(frame, &wire);
  // Half a frame, then vanish.
  FR_ASSERT_OK(net::WriteFully(fd, wire.data(), wire.size() / 2));
  ::close(fd);

  ASSERT_TRUE(WaitFor([&] {
    return served_.server->metrics().sessions_active.load() == 0;
  }));
  ExpectServerUsable();
  ExpectCleanIntegrity(served_.db.get());
}

TEST_F(NetEdgeCaseTest, UnknownOpcodeAndBadStatementKeepSessionAlive) {
  auto client_or = Client::Connect(served_.server->address());
  FR_ASSERT_OK(client_or.status());
  auto& client = *client_or.value();

  // Executing a never-prepared statement is a structured error...
  ReadResult ignored;
  Status s = client.ExecuteRead(777, {}, &ignored);
  EXPECT_FALSE(s.ok());
  // ...and a commit without a begin likewise...
  EXPECT_FALSE(client.Commit().ok());
  // ...but the session survives both.
  ReadResult result;
  FR_ASSERT_OK(client.Retrieve(SalaryQuery(-1), &result));
  EXPECT_EQ(result.rows.size(), 200u);
}

TEST_F(NetEdgeCaseTest, GarbageFloodNeverCorruptsTheDatabase) {
  for (int round = 0; round < 8; ++round) {
    auto fd_or = RawConnect();
    FR_ASSERT_OK(fd_or.status());
    const int fd = fd_or.value();
    std::string garbage;
    for (int i = 0; i < 64; ++i) {
      garbage.push_back(static_cast<char>((round * 31 + i * 7) & 0xFF));
    }
    (void)net::WriteFully(fd, garbage.data(), garbage.size());
    ::close(fd);
  }
  // The event thread accepts and parses asynchronously: wait until all
  // eight floods were seen and torn down before asserting.
  ASSERT_TRUE(WaitFor([&] {
    return served_.server->metrics().sessions_accepted.load() >= 8 &&
           served_.server->metrics().sessions_active.load() == 0;
  }));
  EXPECT_GT(served_.server->metrics().protocol_errors.load(), 0u);
  ExpectServerUsable();
  ExpectCleanIntegrity(served_.db.get());
}

// --- Session lifecycle --------------------------------------------------------

struct ServedWalDb {
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  std::vector<Oid> oids;

  /// In-memory database with WAL (required for session transactions),
  /// one set "T" of `rows` (key, val) rows, served on a unix socket.
  static ServedWalDb Start(const char* tag, int rows,
                           bool group_commit = false,
                           net::ServerOptions options = {}) {
    ServedWalDb s;
    Database::Options db_options;
    db_options.enable_wal = true;
    db_options.wal_group_commit = group_commit;
    auto db_or = Database::Open(db_options);
    EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
    if (!db_or.ok()) return s;
    s.db = std::move(db_or).value();
    EXPECT_TRUE(s.db->DefineType(TypeDescriptor("ROW", {Int32Attr("key"),
                                                        Int32Attr("val")}))
                    .ok());
    EXPECT_TRUE(s.db->CreateSet("T", "ROW").ok());
    s.oids.resize(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(s.db->Insert("T",
                               Object(0, {Value(int32_t{i}),
                                          Value(int32_t{0})}),
                               &s.oids[static_cast<size_t>(i)])
                      .ok());
    }
    options.address = "unix:" + TestSocketPath(tag);
    auto server_or = net::Server::Start(s.db.get(), options);
    EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
    if (server_or.ok()) s.server = std::move(server_or).value();
    return s;
  }
};

UpdateQuery SetVal(int32_t key, int32_t val) {
  UpdateQuery query;
  query.set_name = "T";
  query.predicate = Predicate::Compare("key", CompareOp::kEq, Value(key));
  query.assignments.emplace_back("val", Value(val));
  return query;
}

int32_t ReadVal(Client* client, int32_t key) {
  ReadQuery query;
  query.set_name = "T";
  query.projections = {"val"};
  query.predicate = Predicate::Compare("key", CompareOp::kEq, Value(key));
  ReadResult result;
  Status s = client->Retrieve(query, &result);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (result.rows.size() != 1 || result.rows[0].size() != 1) return -1;
  return result.rows[0][0].as_int32();
}

TEST(NetSessionLifecycleTest, DisconnectAbortsOpenTransaction) {
  ServedWalDb served = ServedWalDb::Start("lifecycle", 4);
  ASSERT_NE(served.server, nullptr);

  // Session A: explicit transaction with an uncommitted update, then the
  // connection dies without a Goodbye (client crash).
  auto a_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(a_or.status());
  FR_ASSERT_OK(a_or.value()->Begin());
  UpdateResult ur;
  FR_ASSERT_OK(a_or.value()->Replace(SetVal(0, 111), &ur));
  EXPECT_EQ(ur.objects_updated, 1u);
  a_or.value()->Abandon();

  // The server must abort the transaction and release the writer gate.
  ASSERT_TRUE(WaitFor([&] { return !served.db->InSessionTransaction(); }));

  // Session B can now take the gate — B's Begin would park forever if the
  // dead session leaked it. (The engine's abort is redo-only: A's
  // volatile effects may remain visible, but nothing of A's transaction
  // was logged, so durable state is the last committed one — NetCrashTest
  // covers that side.)
  auto b_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(b_or.status());
  auto& b = *b_or.value();
  FR_ASSERT_OK(b.Begin());
  FR_ASSERT_OK(b.Replace(SetVal(0, 222), &ur));
  FR_ASSERT_OK(b.Commit());
  EXPECT_EQ(ReadVal(&b, 0), 222);

  ExpectCleanIntegrity(served.db.get());
}

TEST(NetSessionLifecycleTest, ExplicitAbortClosesTheBracket) {
  ServedWalDb served = ServedWalDb::Start("abort", 2);
  ASSERT_NE(served.server, nullptr);
  auto client_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(client_or.status());
  auto& client = *client_or.value();

  UpdateResult ur;
  FR_ASSERT_OK(client.Begin());
  FR_ASSERT_OK(client.Replace(SetVal(1, 333), &ur));
  FR_ASSERT_OK(client.Abort());
  EXPECT_FALSE(served.db->InSessionTransaction());

  // The bracket is fully closed: a fresh transaction works.
  FR_ASSERT_OK(client.Begin());
  FR_ASSERT_OK(client.Replace(SetVal(1, 444), &ur));
  FR_ASSERT_OK(client.Commit());
  EXPECT_EQ(ReadVal(&client, 1), 444);
  ExpectCleanIntegrity(served.db.get());
}

TEST(NetSessionLifecycleTest, ServerStopAbortsOpenTransactions) {
  ServedWalDb served = ServedWalDb::Start("stop", 2);
  ASSERT_NE(served.server, nullptr);
  auto client_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(client_or.status());
  FR_ASSERT_OK(client_or.value()->Begin());
  UpdateResult ur;
  FR_ASSERT_OK(client_or.value()->Replace(SetVal(0, 555), &ur));

  served.server->Stop();
  EXPECT_FALSE(served.db->InSessionTransaction());

  // The aborted transaction logged nothing, and the embedded engine is
  // fully usable again (no leaked gate, no open WAL bracket).
  UpdateResult embedded_ur;
  FR_ASSERT_OK(served.db->Replace(SetVal(1, 666), &embedded_ur));
  EXPECT_EQ(embedded_ur.objects_updated, 1u);
  ExpectCleanIntegrity(served.db.get());
}

// --- Prepared statements ------------------------------------------------------

TEST(NetPreparedStatementTest, BindExecuteReuseAndClose) {
  ServedEmployees served = ServedEmployees::Start("prepared");
  ASSERT_NE(served.server, nullptr);
  auto client_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(client_or.status());
  auto& client = *client_or.value();

  net::ReadStatement stmt;
  stmt.set_name = "Emp1";
  stmt.projections = {"name", "salary"};
  net::StatementPredicate pred;
  pred.attr_name = "salary";
  pred.op = CompareOp::kGt;
  pred.operand = net::WireOperand::Param(0);
  stmt.predicate = pred;

  auto id_or = client.PrepareRead(stmt);
  FR_ASSERT_OK(id_or.status());
  const uint32_t id = id_or.value();
  auto params_or = client.StatementParamCount(id);
  FR_ASSERT_OK(params_or.status());
  EXPECT_EQ(params_or.value(), 1);

  // The same statement, different bindings — matching the embedded plan.
  for (const int32_t threshold : {0, 100000, 1000000}) {
    ReadResult via_stmt, via_query;
    FR_ASSERT_OK(client.ExecuteRead(id, {Value(threshold)}, &via_stmt));
    ReadQuery query;
    query.set_name = "Emp1";
    query.projections = {"name", "salary"};
    query.predicate = Predicate::Compare("salary", CompareOp::kGt,
                                         Value(threshold));
    FR_ASSERT_OK(served.db->Retrieve(query, &via_query));
    ASSERT_EQ(via_stmt.rows.size(), via_query.rows.size());
    for (size_t i = 0; i < via_stmt.rows.size(); ++i) {
      EXPECT_EQ(via_stmt.rows[i], via_query.rows[i]);
    }
  }

  // Wrong arity is a structured error, not a crash.
  ReadResult ignored;
  EXPECT_FALSE(client.ExecuteRead(id, {}, &ignored).ok());

  FR_ASSERT_OK(client.CloseStatement(id));
  EXPECT_FALSE(client.ExecuteRead(id, {Value(int32_t{0})}, &ignored).ok());
}

TEST(NetPreparedStatementTest, ParameterizedUpdateAndAsyncPipeline) {
  ServedWalDb served = ServedWalDb::Start("async", 8);
  ASSERT_NE(served.server, nullptr);
  auto client_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(client_or.status());
  auto& client = *client_or.value();

  net::UpdateStatement update;
  update.set_name = "T";
  net::StatementPredicate pred;
  pred.attr_name = "key";
  pred.op = CompareOp::kEq;
  pred.operand = net::WireOperand::Param(0);
  update.predicate = pred;
  update.assignments.emplace_back("val", net::WireOperand::Param(1));
  auto update_id_or = client.PrepareUpdate(update);
  FR_ASSERT_OK(update_id_or.status());
  const uint32_t update_id = update_id_or.value();

  // Pipeline eight updates without waiting, then await out of order.
  std::vector<uint64_t> tokens;
  for (int32_t key = 0; key < 8; ++key) {
    auto token_or = client.ExecuteUpdateAsync(
        update_id, {Value(key), Value(int32_t{1000 + key})});
    FR_ASSERT_OK(token_or.status());
    tokens.push_back(token_or.value());
  }
  for (int i = 7; i >= 0; --i) {
    UpdateResult result;
    FR_ASSERT_OK(client.AwaitUpdate(tokens[static_cast<size_t>(i)],
                                    &result));
    EXPECT_EQ(result.objects_updated, 1u);
  }
  for (int32_t key = 0; key < 8; ++key) {
    EXPECT_EQ(ReadVal(&client, key), 1000 + key);
  }
  ExpectCleanIntegrity(served.db.get());
}

// --- Admission control and backpressure ---------------------------------------

TEST(NetAdmissionTest, SessionsBeyondCapAreRefusedWithUnavailable) {
  net::ServerOptions options;
  options.max_sessions = 2;
  ServedEmployees served = ServedEmployees::Start("admission", options);
  ASSERT_NE(served.server, nullptr);

  auto a = Client::Connect(served.server->address());
  auto b = Client::Connect(served.server->address());
  FR_ASSERT_OK(a.status());
  FR_ASSERT_OK(b.status());

  auto c = Client::Connect(served.server->address());
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsUnavailable()) << c.status().ToString();
  EXPECT_GE(served.server->metrics().sessions_refused.load(), 1u);

  // Capacity frees as sessions leave.
  a.value().reset();
  ASSERT_TRUE(WaitFor([&] {
    return served.server->metrics().sessions_active.load() < 2;
  }));
  auto d = Client::Connect(served.server->address());
  FR_ASSERT_OK(d.status());
  ReadResult result;
  FR_ASSERT_OK(d.value()->Retrieve(SalaryQuery(0), &result));
}

TEST(NetAdmissionTest, PipelineOverflowAnswersUnavailableInOrder) {
  net::ServerOptions options;
  options.max_pipeline = 2;
  ServedWalDb served = ServedWalDb::Start("pipeline", 8, false, options);
  ASSERT_NE(served.server, nullptr);

  // Session A holds T's write lock so B's updates park and pile up. Begin
  // alone takes no set lock; A's update inside the transaction does.
  auto a_or = Client::Connect(served.server->address());
  auto b_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(a_or.status());
  FR_ASSERT_OK(b_or.status());
  auto& a = *a_or.value();
  auto& b = *b_or.value();
  FR_ASSERT_OK(a.Begin());
  UpdateResult held;
  FR_ASSERT_OK(a.Replace(SetVal(0, 1), &held));

  net::UpdateStatement update;
  update.set_name = "T";
  net::StatementPredicate pred;
  pred.attr_name = "key";
  pred.op = CompareOp::kEq;
  pred.operand = net::WireOperand::Param(0);
  update.predicate = pred;
  update.assignments.emplace_back("val", net::WireOperand::Param(1));
  auto id_or = b.PrepareUpdate(update);
  FR_ASSERT_OK(id_or.status());

  constexpr int kFlood = 6;
  std::vector<uint64_t> tokens;
  for (int32_t i = 0; i < kFlood; ++i) {
    auto token_or = b.ExecuteUpdateAsync(
        id_or.value(), {Value(int32_t{0}), Value(int32_t{100 + i})});
    FR_ASSERT_OK(token_or.status());
    tokens.push_back(token_or.value());
  }
  // Give the flood time to reach the server before the gate frees, so
  // the overflow path (not timing luck) answers the excess.
  ASSERT_TRUE(WaitFor([&] {
    return served.server->metrics().rejected.load() > 0;
  }));
  FR_ASSERT_OK(a.Commit());

  int ok = 0, unavailable = 0;
  for (uint64_t token : tokens) {
    UpdateResult result;
    Status s = b.AwaitUpdate(token, &result);
    if (s.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
      ++unavailable;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(unavailable, 0);
  EXPECT_EQ(ok + unavailable, kFlood);

  // The session survives the overflow.
  UpdateResult result;
  FR_ASSERT_OK(b.ExecuteUpdate(id_or.value(),
                               {Value(int32_t{1}), Value(int32_t{7})},
                               &result));
  EXPECT_EQ(result.objects_updated, 1u);
  ExpectCleanIntegrity(served.db.get());
}

// --- Metrics over the wire ----------------------------------------------------

TEST(NetMetricsTest, WireScrapeParsesAndCountsNetActivity) {
  ServedEmployees served = ServedEmployees::Start("metrics");
  ASSERT_NE(served.server, nullptr);
  auto client_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(client_or.status());
  auto& client = *client_or.value();

  ReadResult ignored;
  FR_ASSERT_OK(client.Retrieve(SalaryQuery(0), &ignored));

  std::string json;
  FR_ASSERT_OK(client.Metrics("json", &json));
  std::vector<MetricSample> samples;
  FR_ASSERT_OK(MetricsRegistry::ParseSamplesJson(json, &samples));
  bool saw_sessions = false, saw_requests = false, saw_latency = false;
  double requests = 0;
  for (const MetricSample& sample : samples) {
    if (sample.name == "fieldrep_net_sessions") saw_sessions = true;
    if (sample.name == "fieldrep_net_requests_total") {
      saw_requests = true;
      requests = sample.value;
    }
    if (sample.name == "fieldrep_net_request_ns") saw_latency = true;
  }
  EXPECT_TRUE(saw_sessions);
  EXPECT_TRUE(saw_requests);
  EXPECT_TRUE(saw_latency);
  EXPECT_GE(requests, 2.0);  // handshake + retrieve at minimum

  // Prometheus exposition works over the wire too.
  std::string prom;
  FR_ASSERT_OK(client.Metrics("prometheus", &prom));
  EXPECT_NE(prom.find("# TYPE fieldrep_net_requests_total counter"),
            std::string::npos);

  // Unknown formats are a structured error, not a dropped session.
  std::string bad;
  EXPECT_FALSE(client.Metrics("xml", &bad).ok());
  FR_ASSERT_OK(client.Metrics("json", &json));
}

// --- Group commit under concurrency (tsan lane: *Concurrency*) ----------------

// Delegates to another device but makes Sync() take real time, like a
// disk fsync. Concurrent committers then reliably pile up behind the
// leader's sync, so batch formation is deterministic even when a
// sanitizer serializes the threads onto one core.
class SlowSyncDevice : public StorageDevice {
 public:
  explicit SlowSyncDevice(StorageDevice* base) : base_(base) {}
  Status ReadPage(PageId page_id, void* buf) override {
    return base_->ReadPage(page_id, buf);
  }
  Status WritePage(PageId page_id, const void* buf) override {
    return base_->WritePage(page_id, buf);
  }
  Status AllocatePage(PageId* page_id) override {
    return base_->AllocatePage(page_id);
  }
  Status Sync() override {
    // Wide enough that under tsan's serialization (which stretches one
    // commit's apply path to several ms) another session still manages
    // to append its commit record while the leader is "on the disk".
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return base_->Sync();
  }
  uint32_t page_count() const override { return base_->page_count(); }

 private:
  StorageDevice* base_;
};

TEST(NetConcurrencyTest, GroupCommitBatchesConcurrentSessions) {
  MemoryDevice disk;
  MemoryDevice log_disk;
  SlowSyncDevice slow_log(&log_disk);

  Database::Options db_options;
  db_options.device = &disk;
  db_options.enable_wal = true;
  db_options.wal_device = &slow_log;  // ~1 ms fsyncs, so batching is observable
  db_options.wal_group_commit = true;
  auto db_or = Database::Open(db_options);
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  FR_ASSERT_OK(db->DefineType(
      TypeDescriptor("ROW", {Int32Attr("key"), Int32Attr("val")})));
  FR_ASSERT_OK(db->CreateSet("T", "ROW"));
  constexpr int kClients = 32;
  constexpr int kCommitsEach = 8;
  for (int i = 0; i < kClients; ++i) {
    Oid oid;
    FR_ASSERT_OK(db->Insert(
        "T", Object(0, {Value(int32_t{i}), Value(int32_t{0})}), &oid));
  }
  FR_ASSERT_OK(db->Checkpoint());

  net::ServerOptions options;
  options.address = "unix:" + TestSocketPath("group");
  options.max_sessions = kClients + 4;
  options.worker_threads = 8;
  auto server_or = net::Server::Start(db.get(), options);
  FR_ASSERT_OK(server_or.status());
  auto server = std::move(server_or).value();

  const WalStats before = db->wal()->stats();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client_or = Client::Connect(server->address());
      if (!client_or.ok()) {
        ++failures;
        return;
      }
      for (int i = 1; i <= kCommitsEach; ++i) {
        UpdateResult result;
        if (!client_or.value()->Replace(SetVal(c, i), &result).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const WalStats after = db->wal()->stats();
  EXPECT_EQ(failures.load(), 0);

  // The headline: N concurrent auto-committed mutations, each
  // individually durable, with sub-linear fsyncs. At least one batch
  // must have carried more than one commit.
  const uint64_t commits = kClients * kCommitsEach;
  const uint64_t syncs = after.log_syncs - before.log_syncs;
  const uint64_t batches = after.group_batches - before.group_batches;
  const uint64_t batched = after.group_commits - before.group_commits;
  EXPECT_LT(syncs, commits) << "group commit never batched";
  EXPECT_GT(batched, batches) << "every batch held a single commit";

  // Every client's last write is durable and visible.
  auto check_or = Client::Connect(server->address());
  FR_ASSERT_OK(check_or.status());
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ReadVal(check_or.value().get(), c), kCommitsEach);
  }
  check_or.value().reset();

  server->Stop();
  ExpectCleanIntegrity(db.get());
}

TEST(NetConcurrencyTest, ConnectDisconnectChurnUnderLoad) {
  ServedWalDb served = ServedWalDb::Start("churn", 8, true);
  ASSERT_NE(served.server, nullptr);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        auto client_or = Client::Connect(served.server->address());
        if (!client_or.ok()) {
          ++failures;
          return;
        }
        UpdateResult result;
        if (!client_or.value()
                 ->Replace(SetVal(t, round), &result)
                 .ok()) {
          ++failures;
          return;
        }
        if (round % 3 == 0) {
          client_or.value()->Abandon();  // no Goodbye: exercise cleanup
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_TRUE(WaitFor([&] {
    return served.server->metrics().sessions_active.load() == 0;
  }));
  EXPECT_GE(served.server->metrics().sessions_accepted.load(), 96u);
  ExpectCleanIntegrity(served.db.get());
}

// --- Crash mid-batch ----------------------------------------------------------

TEST(NetCrashTest, CrashMidBatchRecoversPrefixConsistent) {
  MemoryDevice disk, log_disk;
  FaultPlan plan;
  FaultInjectingDevice db_dev(&disk, &plan);
  FaultInjectingDevice log_dev(&log_disk, &plan);

  constexpr int kClients = 8;
  constexpr int kCommitsEach = 12;
  {
    Database::Options options;
    options.device = &db_dev;
    options.wal_device = &log_dev;
    options.enable_wal = true;
    options.wal_group_commit = true;
    auto db_or = Database::Open(options);
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(
        TypeDescriptor("ROW", {Int32Attr("key"), Int32Attr("val")})));
    FR_ASSERT_OK(db->CreateSet("T", "ROW"));
    for (int i = 0; i < kClients; ++i) {
      Oid oid;
      FR_ASSERT_OK(db->Insert(
          "T", Object(0, {Value(int32_t{i}), Value(int32_t{0})}), &oid));
    }
    FR_ASSERT_OK(db->Checkpoint());

    net::ServerOptions server_options;
    server_options.address = "unix:" + TestSocketPath("crash");
    server_options.max_sessions = kClients + 2;
    auto server_or = net::Server::Start(db.get(), server_options);
    FR_ASSERT_OK(server_or.status());
    auto server = std::move(server_or).value();

    // Power fails somewhere inside the commit storm.
    plan.Arm(40);

    std::vector<int> acked(kClients, 0);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client_or = Client::Connect(server->address());
        if (!client_or.ok()) return;
        for (int i = 1; i <= kCommitsEach; ++i) {
          UpdateResult result;
          if (!client_or.value()->Replace(SetVal(c, i), &result).ok()) {
            return;  // the "machine" died; stop like a real client
          }
          acked[c] = i;  // durable-acknowledged prefix
        }
      });
    }
    for (auto& t : threads) t.join();
    server->Stop();

    // "Reboot": recover over the surviving media.
    plan.Reset();
    db.reset();
    auto recovered_or = Database::Open(options);
    FR_ASSERT_OK(recovered_or.status());
    auto recovered = std::move(recovered_or).value();

    // Prefix consistency per session: each client wrote 1,2,...,k
    // sequentially and got acks through acked[c]; the recovered value
    // must be at least the acked prefix and no later than the last
    // attempt.
    for (int c = 0; c < kClients; ++c) {
      ReadQuery query;
      query.set_name = "T";
      query.projections = {"val"};
      query.predicate = Predicate::Compare("key", CompareOp::kEq,
                                           Value(int32_t{c}));
      ReadResult result;
      FR_ASSERT_OK(recovered->Retrieve(query, &result));
      ASSERT_EQ(result.rows.size(), 1u);
      const int32_t val = result.rows[0][0].as_int32();
      EXPECT_GE(val, acked[c]) << "acknowledged commit lost for client "
                               << c;
      EXPECT_LE(val, kCommitsEach);
    }
    ExpectCleanIntegrity(recovered.get());
  }
}

// --- Concurrent writers -------------------------------------------------------

/// Two sessions mutating *disjoint* sets through the server's writer
/// gate: the engine still serializes them (single-writer), but every
/// gate acquisition, park/redispatch, and group-commit batch crosses
/// threads. Run under TSan this is the regression net for the
/// server-side locking (Server::mu_, session write_mu, gate handoff) and
/// the WAL group-commit leader/follower protocol.
TEST(NetConcurrencyTest, WritersOnDisjointSetsThroughGate) {
  Database::Options db_options;
  db_options.enable_wal = true;
  db_options.wal_group_commit = true;
  auto db_or = Database::Open(db_options);
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  FR_ASSERT_OK(db->DefineType(
      TypeDescriptor("ROW", {Int32Attr("key"), Int32Attr("val")})));
  constexpr int kRowsPerSet = 8;
  for (const char* set_name : {"A", "B"}) {
    FR_ASSERT_OK(db->CreateSet(set_name, "ROW"));
    for (int i = 0; i < kRowsPerSet; ++i) {
      Oid oid;
      FR_ASSERT_OK(db->Insert(
          set_name, Object(0, {Value(int32_t{i}), Value(int32_t{0})}), &oid));
    }
  }
  net::ServerOptions options;
  options.address = "unix:" + TestSocketPath("writers");
  auto server_or = net::Server::Start(db.get(), options);
  FR_ASSERT_OK(server_or.status());
  auto server = std::move(server_or).value();

  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  auto writer = [&](const char* set_name) {
    auto client_or = Client::Connect(server->address());
    ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
    auto& client = *client_or.value();
    for (int round = 1; round <= kRounds; ++round) {
      // Alternate auto-committed updates with explicit brackets so both
      // gate lifetimes (per-request and Begin..Commit) interleave.
      const bool bracketed = (round % 2) == 0;
      if (bracketed && !client.Begin().ok()) ++failures;
      for (int key = 0; key < kRowsPerSet; ++key) {
        UpdateQuery update;
        update.set_name = set_name;
        update.predicate =
            Predicate::Compare("key", CompareOp::kEq, Value(int32_t{key}));
        update.assignments.emplace_back("val", Value(int32_t{round}));
        UpdateResult ur;
        if (!client.Replace(update, &ur).ok() || ur.objects_updated != 1) {
          ++failures;
        }
      }
      if (bracketed && !client.Commit().ok()) ++failures;
    }
  };
  std::thread ta(writer, "A");
  std::thread tb(writer, "B");
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);

  // Each set holds exactly its own writer's final round: no lost or
  // cross-applied update despite the interleaved gate traffic.
  auto reader_or = Client::Connect(server->address());
  FR_ASSERT_OK(reader_or.status());
  auto& reader = *reader_or.value();
  for (const char* set_name : {"A", "B"}) {
    ReadQuery query;
    query.set_name = set_name;
    query.projections = {"val"};
    ReadResult result;
    FR_ASSERT_OK(reader.Retrieve(query, &result));
    ASSERT_EQ(result.rows.size(), static_cast<size_t>(kRowsPerSet));
    for (const auto& row : result.rows) {
      EXPECT_EQ(row[0].as_int32(), kRounds) << "set " << set_name;
    }
  }
  server->Stop();
  ExpectCleanIntegrity(db.get());
}

/// Serves two sets of *distinct* types, so their write-lock closures are
/// disjoint singletons (DESIGN.md §14) — writer transactions on them
/// must interleave without ever touching each other's locks.
struct ServedTwoSetDb {
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;

  static ServedTwoSetDb Start(const char* tag, int rows_per_set,
                              uint64_t checkpoint_threshold_bytes = 0) {
    ServedTwoSetDb s;
    Database::Options db_options;
    db_options.enable_wal = true;
    db_options.wal_group_commit = true;
    db_options.wal_checkpoint_threshold_bytes = checkpoint_threshold_bytes;
    auto db_or = Database::Open(db_options);
    EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
    if (!db_or.ok()) return s;
    s.db = std::move(db_or).value();
    for (const char* set_name : {"A", "B"}) {
      const std::string type_name = std::string("ROW") + set_name;
      EXPECT_TRUE(s.db->DefineType(TypeDescriptor(
                                       type_name, {Int32Attr("key"),
                                                   Int32Attr("val")}))
                      .ok());
      EXPECT_TRUE(s.db->CreateSet(set_name, type_name).ok());
      for (int i = 0; i < rows_per_set; ++i) {
        Oid oid;
        EXPECT_TRUE(s.db->Insert(set_name,
                                 Object(0, {Value(int32_t{i}),
                                            Value(int32_t{0})}),
                                 &oid)
                        .ok());
      }
    }
    net::ServerOptions options;
    options.address = "unix:" + TestSocketPath(tag);
    auto server_or = net::Server::Start(s.db.get(), options);
    EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
    if (server_or.ok()) s.server = std::move(server_or).value();
    return s;
  }
};

UpdateQuery SetValIn(const char* set_name, int32_t key, int32_t val) {
  UpdateQuery query;
  query.set_name = set_name;
  query.predicate = Predicate::Compare("key", CompareOp::kEq, Value(key));
  query.assignments.emplace_back("val", Value(val));
  return query;
}

/// Two sessions writing sets of distinct types, alternating auto-commit
/// and explicit brackets: with per-set locks the transactions must never
/// conflict — the lock table's conflict and abort counters stay at zero,
/// and every update lands (no lost updates across the interleaving).
TEST(NetConcurrencyTest, DisjointTypedWritersNeverConflict) {
  ServedTwoSetDb served = ServedTwoSetDb::Start("disjoint_typed", 8);
  ASSERT_NE(served.server, nullptr);
  constexpr int kRowsPerSet = 8;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  auto writer = [&](const char* set_name) {
    auto client_or = Client::Connect(served.server->address());
    ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
    auto& client = *client_or.value();
    for (int round = 1; round <= kRounds; ++round) {
      const bool bracketed = (round % 2) == 0;
      if (bracketed && !client.Begin().ok()) ++failures;
      for (int key = 0; key < kRowsPerSet; ++key) {
        UpdateResult ur;
        if (!client.Replace(SetValIn(set_name, key, round), &ur).ok() ||
            ur.objects_updated != 1) {
          ++failures;
        }
      }
      if (bracketed && !client.Commit().ok()) ++failures;
    }
  };
  std::thread ta(writer, "A");
  std::thread tb(writer, "B");
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);

  // The whole point of the striped locks: disjoint closures, zero
  // conflicts, zero wait-or-die aborts, nothing parked.
  EXPECT_EQ(served.db->lock_table().conflicts(), 0u);
  EXPECT_EQ(served.db->lock_table().aborts(), 0u);
  EXPECT_EQ(served.server->metrics().parks.load(), 0u);

  auto reader_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(reader_or.status());
  for (const char* set_name : {"A", "B"}) {
    ReadQuery query;
    query.set_name = set_name;
    query.projections = {"val"};
    ReadResult result;
    FR_ASSERT_OK(reader_or.value()->Retrieve(query, &result));
    ASSERT_EQ(result.rows.size(), static_cast<size_t>(kRowsPerSet));
    for (const auto& row : result.rows) {
      EXPECT_EQ(row[0].as_int32(), kRounds) << "set " << set_name;
    }
  }
  served.server->Stop();
  ExpectCleanIntegrity(served.db.get());
}

/// Auto-checkpoint with server sessions live. While one explicit
/// transaction stays open, four sessions' auto-commits pass the log-size
/// threshold: none of them may attempt a checkpoint (an attempt logs the
/// catalog state blob as a transaction of its own before the WAL refuses
/// it, so the log would grow by a blob per commit and never shrink). Once
/// the transaction commits, the next commit checkpoints.
TEST(NetConcurrencyTest, AutoCheckpointWaitsForOpenTransaction) {
  ServedTwoSetDb served =
      ServedTwoSetDb::Start("auto_ckpt", 4, /*checkpoint_threshold_bytes=*/1);
  ASSERT_NE(served.server, nullptr);
  WalManager* wal = served.db->wal();
  ASSERT_NE(wal, nullptr);

  auto holder_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(holder_or.status());
  auto& holder = *holder_or.value();
  UpdateResult ur;
  FR_ASSERT_OK(holder.Begin());
  FR_ASSERT_OK(holder.Replace(SetValIn("A", 0, 1), &ur));
  const WalStats before = wal->stats();

  constexpr int kSessions = 4;
  constexpr int kCommitsPerSession = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kSessions; ++t) {
    writers.emplace_back([&, t] {
      auto client_or = Client::Connect(served.server->address());
      if (!client_or.ok()) {
        ++failures;
        return;
      }
      for (int i = 1; i <= kCommitsPerSession; ++i) {
        UpdateResult r;
        Status s;
        do {  // wait-or-die between the writers on B is retryable
          s = client_or.value()->Replace(SetValIn("B", t, i), &r);
        } while (s.IsAborted());
        if (!s.ok()) ++failures;
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);

  // One WAL transaction per auto-commit and nothing else: no state blob
  // was logged, and no checkpoint happened under the open transaction.
  const WalStats during = wal->stats();
  EXPECT_EQ(during.transactions - before.transactions,
            static_cast<uint64_t>(kSessions * kCommitsPerSession));
  EXPECT_EQ(during.checkpoints, before.checkpoints);

  FR_ASSERT_OK(holder.Commit());
  FR_ASSERT_OK(holder.Replace(SetValIn("A", 1, 2), &ur));
  EXPECT_GT(wal->stats().checkpoints, before.checkpoints);
  served.server->Stop();
  ExpectCleanIntegrity(served.db.get());
}

/// A conflicting single-statement write against a set X-locked by an open
/// explicit transaction parks (is not refused, not aborted, not executed)
/// until the holder commits — then runs, so the parked write is the one
/// that survives.
TEST(NetConcurrencyTest, ConflictingWriterParksUntilCommit) {
  ServedWalDb served = ServedWalDb::Start("park", 2);
  ASSERT_NE(served.server, nullptr);

  auto a_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(a_or.status());
  auto& a = *a_or.value();
  UpdateResult ur;
  FR_ASSERT_OK(a.Begin());
  FR_ASSERT_OK(a.Replace(SetVal(0, 111), &ur));  // A now holds X on "T"

  std::atomic<bool> b_done{false};
  std::thread tb([&] {
    auto b_or = Client::Connect(served.server->address());
    ASSERT_TRUE(b_or.ok()) << b_or.status().ToString();
    UpdateResult b_ur;
    Status s = b_or.value()->Replace(SetVal(0, 222), &b_ur);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(b_ur.objects_updated, 1u);
    b_done.store(true);
  });

  // B must reach the parked state, not complete and not get an error.
  ASSERT_TRUE(WaitFor(
      [&] { return served.server->metrics().parks.load() >= 1; }));
  EXPECT_FALSE(b_done.load());

  FR_ASSERT_OK(a.Commit());
  tb.join();
  EXPECT_TRUE(b_done.load());

  // B ran strictly after A's commit: its value is the final one.
  EXPECT_EQ(ReadVal(&a, 0), 222);
  served.server->Stop();
  ExpectCleanIntegrity(served.db.get());
}

/// Disconnect cleanup releases exactly the dead session's locks: an
/// unrelated transaction on another set races the cleanup, keeps its own
/// locks, and commits its update intact; the abandoned set is writable
/// again immediately afterwards.
TEST(NetSessionLifecycleTest, DisconnectReleasesOnlyOwnLocks) {
  ServedTwoSetDb served = ServedTwoSetDb::Start("own_locks", 2);
  ASSERT_NE(served.server, nullptr);

  auto a_or = Client::Connect(served.server->address());
  auto b_or = Client::Connect(served.server->address());
  FR_ASSERT_OK(a_or.status());
  FR_ASSERT_OK(b_or.status());
  auto& b = *b_or.value();

  UpdateResult ur;
  FR_ASSERT_OK(a_or.value()->Begin());
  FR_ASSERT_OK(a_or.value()->Replace(SetValIn("A", 0, 111), &ur));
  FR_ASSERT_OK(b.Begin());
  FR_ASSERT_OK(b.Replace(SetValIn("B", 0, 222), &ur));

  // A's connection dies while B's transaction is mid-flight; B's commit
  // races the cleanup.
  a_or.value()->Abandon();
  FR_ASSERT_OK(b.Commit());

  ASSERT_TRUE(WaitFor([&] {
    return served.server->metrics().sessions_active.load() == 1;
  }));

  // B's update survived A's abort (the cleanup did not release or roll
  // back B's locks), and A's set is immediately writable by a newcomer.
  ReadQuery query;
  query.set_name = "B";
  query.projections = {"val"};
  ReadResult result;
  FR_ASSERT_OK(b.Retrieve(query, &result));
  ASSERT_EQ(result.rows.size(), 2u);
  int32_t max_val = 0;
  for (const auto& row : result.rows) {
    max_val = std::max(max_val, row[0].as_int32());
  }
  EXPECT_EQ(max_val, 222);

  FR_ASSERT_OK(b.Replace(SetValIn("A", 0, 333), &ur));
  EXPECT_EQ(ur.objects_updated, 1u);
  served.server->Stop();
  ExpectCleanIntegrity(served.db.get());
}

}  // namespace
}  // namespace fieldrep
