// fieldrep_fsck: offline structural-invariant checker for fieldrep
// database files.
//
//   fieldrep_fsck [options] <database-file>
//
//   --wal <path>       log file to check/replay (default: <database>.wal)
//   --no-wal           ignore any log file
//   --include-info     report informational findings too
//   --max-findings N   stop after N findings (default 1000)
//   --quiet            print the summary line only
//   --stats            print the integrity pass's own work counters
//
// The checker never writes to the files: both the database and the log are
// copied page-by-page into memory and the database is opened (and, when a
// log is present, recovered) over the copies. Verification therefore sees
// the state a real reopen would see.
//
// Exit status: 0 = clean (warnings allowed), 1 = errors found,
// 2 = the file could not be opened as a database.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "check/check_report.h"
#include "check/integrity_checker.h"
#include "db/database.h"
#include "storage/memory_device.h"

namespace {

using fieldrep::CheckOptions;
using fieldrep::CheckReport;
using fieldrep::CheckSeverity;
using fieldrep::Database;
using fieldrep::IntegrityChecker;
using fieldrep::MemoryDevice;
using fieldrep::Status;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--wal <path>] [--no-wal] [--include-info] "
               "[--max-findings N] [--quiet] [--stats] <database-file>\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  std::string wal_path;
  bool no_wal = false;
  bool quiet = false;
  bool stats = false;
  CheckOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--wal" && i + 1 < argc) {
      wal_path = argv[++i];
    } else if (arg == "--no-wal") {
      no_wal = true;
    } else if (arg == "--include-info") {
      options.include_info = true;
    } else if (arg == "--max-findings" && i + 1 < argc) {
      options.max_findings =
          static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--stats") {
      stats = true;
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
  if (db_path.empty()) {
    Usage(argv[0]);
    return 2;
  }
  if (wal_path.empty()) wal_path = db_path + ".wal";

  // Snapshot the files so checking is strictly read-only.
  auto db_copy = fieldrep::SnapshotFileToMemory(db_path);
  if (!db_copy.ok()) {
    std::fprintf(stderr, "fieldrep_fsck: cannot read %s: %s\n",
                 db_path.c_str(), db_copy.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<MemoryDevice> wal_copy;
  if (!no_wal) {
    auto snapshot = fieldrep::SnapshotFileToMemory(wal_path);
    if (snapshot.ok()) {
      wal_copy = std::move(snapshot).value();
    } else if (!snapshot.status().IsNotFound()) {
      std::fprintf(stderr, "fieldrep_fsck: cannot read %s: %s\n",
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
    std::fprintf(stderr, "fieldrep_fsck: cannot open %s as a database: %s\n",
                 db_path.c_str(), db.status().ToString().c_str());
    // A standalone log scan may still tell the operator something.
    if (have_wal) {
      CheckReport wal_report;
      IntegrityChecker::CheckWalDevice(wal_copy.get(), options.include_info,
                                       &wal_report);
      if (!wal_report.findings.empty()) {
        std::fprintf(stderr, "%s", wal_report.ToString().c_str());
      }
    }
    return 2;
  }
  if (have_wal && db.value()->recovery_stats().committed_txns > 0 &&
      !quiet) {
    std::printf("note: replayed %llu committed transaction(s) from %s "
                "before checking\n",
                static_cast<unsigned long long>(
                    db.value()->recovery_stats().committed_txns),
                wal_path.c_str());
  }

  CheckReport report;
  Status s = db.value()->CheckIntegrity(options, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "fieldrep_fsck: checker failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }

  if (quiet) {
    std::printf("%s: %zu error(s), %zu warning(s)\n", db_path.c_str(),
                report.error_count(), report.warning_count());
  } else {
    std::printf("%s", report.ToString().c_str());
  }
  if (stats) {
    std::printf("check statistics:\n%s", report.stats.ToString().c_str());
  }
  return report.ok() ? 0 : 1;
}
