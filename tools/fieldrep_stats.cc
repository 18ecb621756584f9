// fieldrep_stats: metrics exporter for fieldrep database files.
//
//   fieldrep_stats [options] <database-file>
//   fieldrep_stats [options] --snapshot <metrics.json>
//   fieldrep_stats [options] --connect <address>
//
//   --format <f>       output format: text (default), json, prometheus
//   --wal <path>       log file to recover from (default: <database>.wal)
//   --no-wal           ignore any log file
//   --touch            run one full-projection read query per set before
//                      sampling, so the counters show representative
//                      activity instead of an idle open
//   --snapshot <file>  re-render a metrics JSON dump (produced by
//                      Database::DumpMetricsJson or `--format json`)
//                      instead of opening a database
//   --connect <addr>   scrape a live fieldrep_server ("unix:/path" or
//                      "tcp:host:port") instead of opening database files
//   --profile          also print the workload profile (text format only)
//
// Like fieldrep_fsck, the tool never writes to the files: database and
// log are snapshotted page-by-page into memory and opened over the
// copies, so exporting metrics from a live database's files is safe.
//
// Exit status: 0 = metrics rendered, 2 = the input could not be read.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "client/client.h"
#include "db/database.h"
#include "query/read_query.h"
#include "storage/memory_device.h"
#include "telemetry/metrics.h"
#include "telemetry/workload_profiler.h"

namespace {

using fieldrep::Database;
using fieldrep::MemoryDevice;
using fieldrep::MetricSample;
using fieldrep::MetricsRegistry;
using fieldrep::ReadQuery;
using fieldrep::ReadResult;
using fieldrep::Status;

Status ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("read error on " + path);
  return Status::OK();
}

/// One read query per set, projecting every attribute plus every
/// replicated path rooted at the set — exercises the planner, the pool,
/// and the profiler so the exported counters are non-trivial.
Status TouchWorkload(Database* db) {
  const fieldrep::Catalog& catalog = db->catalog();
  for (const std::string& set_name : catalog.SetNames()) {
    auto set = db->GetSet(set_name);
    if (!set.ok()) continue;
    ReadQuery query;
    query.set_name = set_name;
    for (const fieldrep::AttributeDescriptor& attr :
         set.value()->type().attributes()) {
      query.projections.push_back(attr.name);
    }
    for (uint16_t path_id : catalog.AllPathIds()) {
      const fieldrep::ReplicationPathInfo* path = catalog.GetPath(path_id);
      if (path == nullptr || path->bound.set_name != set_name) continue;
      // "Emp1.dept.name" -> projection "dept.name".
      if (path->spec.size() > set_name.size() + 1) {
        query.projections.push_back(path->spec.substr(set_name.size() + 1));
      }
    }
    if (query.projections.empty()) continue;
    ReadResult result;
    FIELDREP_RETURN_IF_ERROR(db->Retrieve(query, &result));
  }
  return Status::OK();
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--format text|json|prometheus] [--wal <path>] "
               "[--no-wal] [--touch] [--profile] <database-file>\n"
               "       %s [--format ...] --snapshot <metrics.json>\n"
               "       %s [--format ...] --connect <address>\n",
               argv0, argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  std::string wal_path;
  std::string snapshot_path;
  std::string connect_addr;
  std::string format = "text";
  bool no_wal = false;
  bool touch = false;
  bool profile = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(std::strlen("--format="));
    } else if (arg == "--wal" && i + 1 < argc) {
      wal_path = argv[++i];
    } else if (arg == "--no-wal") {
      no_wal = true;
    } else if (arg == "--touch") {
      touch = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_addr = argv[++i];
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect_addr = arg.substr(std::strlen("--connect="));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    } else if (db_path.empty()) {
      db_path = arg;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (format != "text" && format != "json" && format != "prometheus") {
    std::fprintf(stderr, "unknown format: %s\n", format.c_str());
    Usage(argv[0]);
    return 2;
  }

  // Connect mode: scrape a live fieldrep_server over its wire protocol.
  // The server renders JSON; we re-render locally so every --format works
  // against any server version that speaks the metrics opcode.
  if (!connect_addr.empty()) {
    auto client = fieldrep::client::Client::Connect(connect_addr,
                                                    "fieldrep_stats");
    if (!client.ok()) {
      std::fprintf(stderr, "fieldrep_stats: cannot connect to %s: %s\n",
                   connect_addr.c_str(),
                   client.status().ToString().c_str());
      return 2;
    }
    std::string text;
    Status s = client.value()->Metrics("json", &text);
    if (!s.ok()) {
      std::fprintf(stderr, "fieldrep_stats: metrics scrape failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    std::vector<MetricSample> samples;
    s = MetricsRegistry::ParseSamplesJson(text, &samples);
    if (!s.ok()) {
      std::fprintf(stderr,
                   "fieldrep_stats: server sent an invalid metrics dump: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    std::string out = format == "json"
                          ? MetricsRegistry::SamplesToJson(samples)
                          : format == "prometheus"
                                ? MetricsRegistry::SamplesToPrometheus(samples)
                                : MetricsRegistry::SamplesToText(samples);
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }

  // Snapshot mode: re-render a dumped metrics JSON, no database needed.
  if (!snapshot_path.empty()) {
    std::string text;
    Status s = ReadWholeFile(snapshot_path, &text);
    if (!s.ok()) {
      std::fprintf(stderr, "fieldrep_stats: %s\n", s.ToString().c_str());
      return 2;
    }
    std::vector<MetricSample> samples;
    s = MetricsRegistry::ParseSamplesJson(text, &samples);
    if (!s.ok()) {
      std::fprintf(stderr, "fieldrep_stats: %s is not a metrics dump: %s\n",
                   snapshot_path.c_str(), s.ToString().c_str());
      return 2;
    }
    std::string out = format == "json"
                          ? MetricsRegistry::SamplesToJson(samples)
                          : format == "prometheus"
                                ? MetricsRegistry::SamplesToPrometheus(samples)
                                : MetricsRegistry::SamplesToText(samples);
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }

  if (db_path.empty()) {
    Usage(argv[0]);
    return 2;
  }
  if (wal_path.empty()) wal_path = db_path + ".wal";

  // Snapshot the files so sampling is strictly read-only.
  auto db_copy = fieldrep::SnapshotFileToMemory(db_path);
  if (!db_copy.ok()) {
    std::fprintf(stderr, "fieldrep_stats: cannot read %s: %s\n",
                 db_path.c_str(), db_copy.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<MemoryDevice> wal_copy;
  if (!no_wal) {
    auto snapshot = fieldrep::SnapshotFileToMemory(wal_path);
    if (snapshot.ok()) {
      wal_copy = std::move(snapshot).value();
    } else if (!snapshot.status().IsNotFound()) {
      std::fprintf(stderr, "fieldrep_stats: cannot read %s: %s\n",
                   wal_path.c_str(), snapshot.status().ToString().c_str());
      return 2;
    }
  }
  const bool have_wal = wal_copy != nullptr;

  Database::Options open_options;
  open_options.device = db_copy->get();
  if (have_wal) {
    open_options.enable_wal = true;
    open_options.wal_device = wal_copy.get();
  }
  auto db = Database::Open(open_options);
  if (!db.ok()) {
    std::fprintf(stderr, "fieldrep_stats: cannot open %s as a database: %s\n",
                 db_path.c_str(), db.status().ToString().c_str());
    return 2;
  }

  if (touch) {
    Status s = TouchWorkload(db.value().get());
    if (!s.ok()) {
      std::fprintf(stderr, "fieldrep_stats: touch workload failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
  }

  MetricsRegistry* metrics = db.value()->metrics();
  std::string out = format == "json"
                        ? metrics->RenderJson()
                        : format == "prometheus" ? metrics->RenderPrometheus()
                                                 : metrics->RenderText();
  std::fwrite(out.data(), 1, out.size(), stdout);
  if (profile && format == "text") {
    std::printf("\nworkload profile:\n%s",
                db.value()->Stats().ToString().c_str());
  }
  return 0;
}
