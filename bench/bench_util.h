#ifndef FIELDREP_BENCH_BENCH_UTIL_H_
#define FIELDREP_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "db/database.h"

namespace fieldrep::bench {

/// \brief The schema of the cost model (Section 6):
///
///   define type RTYPE ( field_r: int, sref: ref STYPE, filler: char[..] )
///   define type STYPE ( field_s: int, repfield: char[20], filler: char[..] )
///   create R: {own ref RTYPE}; create S: {own ref STYPE}
///   replicate R.sref.repfield
///
/// Filler lengths are chosen so the serialized field bytes match the
/// model's r = 100 and s = 200 exactly (the 16-byte object header plus the
/// 4-byte page slot equal the model's h = 20).
struct ModelWorkload {
  std::unique_ptr<Database> db;
  std::vector<Oid> r_oids;
  std::vector<Oid> s_oids;
  uint32_t s_count = 0;
  uint32_t f = 1;
  bool clustered = false;
  ModelStrategy strategy = ModelStrategy::kNoReplication;
  uint32_t inline_threshold = 1;
  /// Serialized field bytes of R/S objects after replication hooks ran
  /// (what the analytical model calls r and s), the replica overhead k on
  /// heads, and the hidden bytes added to terminal (S) objects.
  double actual_r = 0;
  double actual_s = 0;
  double actual_k = 0;
  double actual_s_overhead = 0;
};

struct WorkloadOptions {
  uint32_t s_count = 2000;  ///< |S|
  uint32_t f = 1;           ///< sharing level: |R| = f * |S|
  bool clustered = false;   ///< clause indexes clustered (file in key order)
  ModelStrategy strategy = ModelStrategy::kNoReplication;
  uint32_t inline_threshold = 1;
  size_t pool_frames = 32768;
  uint64_t seed = 7;
  /// Read-ahead on or off. Changes physical I/O scheduling only; the
  /// logical counters MeasureQueryCosts reports are identical either way.
  bool read_ahead = true;
  /// Backing file for the database; empty keeps the in-memory device.
  std::string file_path;
  /// Device implementation for file-backed workloads (ignored when
  /// file_path is empty): the `--device={file,uring,uring-direct}` flag.
  Database::StorageBackend storage_backend = Database::StorageBackend::kFile;
  /// Open the backing file O_DIRECT.
  bool o_direct = false;
  /// Worker threads for parallel read execution (1 = serial engine).
  size_t worker_threads = 1;
};

/// Builds the workload database: populates S, populates R with either
/// random (unclustered keys) or sequential key order, assigns every R
/// object a uniformly random sref (R and S relatively unclustered,
/// Section 6.2), creates the clause indexes, and sets up replication per
/// the strategy. `db_options` supplies the engine settings the workload
/// does not set itself (telemetry, slow-query log): the telemetry
/// equivalence suite builds identical workloads with tracing armed and
/// with telemetry off.
Result<ModelWorkload> BuildModelWorkload(const WorkloadOptions& options,
                                         Database::Options db_options = {});

/// One measured query pair (averaged over `trials` random clause ranges):
/// read selects fr*|R| R objects and projects sref.repfield into a 100-byte
/// output row; update selects fs*|S| S objects and overwrites repfield.
/// Every query starts from a cold buffer pool and ends with a flush, so the
/// counted device I/O is exactly the model's quantity.
struct MeasuredCosts {
  double read_io = 0;    ///< logical pages (disk_reads + disk_writes)
  double update_io = 0;  ///< independent of the read-ahead window
  /// Wall-clock per query (query + flush), and the physical-scheduling
  /// counters averaged over trials — these DO change with the window.
  double read_ms = 0;
  double update_ms = 0;
  double batched_reads = 0;
  double coalesced_writes = 0;
};

Result<MeasuredCosts> MeasureQueryCosts(ModelWorkload* workload, double fr,
                                        double fs, int trials,
                                        uint64_t seed = 99);

/// Cost-model parameters mirroring a built workload (actual object sizes,
/// |S|, f, clustering), for model-vs-measured comparisons.
CostModelParams ParamsFor(const ModelWorkload& workload, double fr,
                          double fs);

/// Renders "value (paper: x)" comparison cells.
std::string Cell(double ours, double paper);

/// \brief Accumulates flat metric key/value pairs and renders them as one
/// JSON object, so every bench binary can emit machine-readable results
/// next to its human-readable table (`BENCH_<name>.json`).
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Records a metric; keys keep insertion order. Dots are conventional
  /// separators ("unclustered.f5.in_place.read_io").
  void Add(const std::string& key, double value);

  /// Embeds an engine metrics snapshot (Database::MetricsJson) in the
  /// rendered document under a "telemetry" key; omitted when never set.
  void SetTelemetry(std::string metrics_json);

  /// {"bench": "<name>", "metrics": {...}, "telemetry": {...}} with
  /// stable key order.
  std::string Render() const;

  /// Writes Render() to `path`.
  Status WriteToFile(const std::string& path) const;

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::string telemetry_json_;
};

/// Recognizes `--json` / `--json=PATH` anywhere in argv and removes it
/// (so positional-argument parsing stays untouched). Returns the output
/// path, empty when the flag is absent; bare `--json` defaults to
/// "BENCH_<bench_name>.json".
std::string ConsumeJsonFlag(int* argc, char** argv,
                            const std::string& bench_name);

/// Recognizes and removes `<prefix>N` (e.g. "--window=" or
/// "--read-ahead="), returning N (or `fallback` when the flag is absent).
uint32_t ConsumeUintFlag(int* argc, char** argv, const char* prefix,
                         uint32_t fallback);

/// Recognizes and removes `--threads=N`, returning N clamped to >= 1 (or
/// `fallback` when the flag is absent).
size_t ConsumeThreadsFlag(int* argc, char** argv, size_t fallback);

/// The `--device=` choice of every raw-I/O bench.
struct DeviceChoice {
  Database::StorageBackend backend = Database::StorageBackend::kFile;
  bool o_direct = false;
  /// "file", "uring", or "uring-direct" — for bench output labels.
  const char* name = "file";
  /// False when no `--device=` flag was given (the defaults above apply).
  bool given = false;
};

/// Recognizes and removes `--device={file,uring,uring-direct}`. Unknown
/// values print a warning to stderr and keep the default.
DeviceChoice ConsumeDeviceFlag(int* argc, char** argv);

}  // namespace fieldrep::bench

#endif  // FIELDREP_BENCH_BENCH_UTIL_H_
