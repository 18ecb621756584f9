#ifndef FIELDREP_PERFBENCH_FIXTURE_H_
#define FIELDREP_PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "costmodel/cost_model.h"
#include "db/database.h"

namespace fieldrep::perfbench {

/// The three head sets: one per replication strategy of §6.
enum HeadSet : int { kRn = 0, kRi = 1, kRs = 2 };
inline constexpr int kHeadSets = 3;
const char* HeadSetName(int set);
/// "none", "inplace", "separate".
const char* StrategyName(int set);
ModelStrategy StrategyOf(int set);

/// The data every workload shares: |S| terminal objects, each referenced
/// by kF heads of every head set.
inline constexpr uint32_t kSCount = 25000;
inline constexpr uint32_t kF = 5;
/// Skew of the served workload's zipfian update keys.
inline constexpr double kZipfTheta = 0.99;

/// Every knob of one workload. The table in fixture.cc is the only place
/// workload parameters are chosen.
struct WorkloadConfig {
  std::string name;
  double p_update = 0;          ///< share of operations that are updates
  uint32_t read_heads = 0;      ///< heads selected per read (fr |R|)
  uint32_t update_objects = 0;  ///< S objects selected per update (fs |S|)
  int clients = 1;              ///< closed-loop client threads
  bool served = false;          ///< clients talk to an in-process server
  /// Pool as a share of data pages; 0 sizes the pool to hold all data
  /// (and the set-up warms it).
  double pool_fraction = 0;
  size_t worker_threads = 1;
  /// Request workers of the in-process server (served workloads).
  size_t server_workers = 0;
  bool group_commit = false;
  uint64_t checkpoint_threshold_bytes = 0;
  /// Operations measured per second of --seconds (the whole phase,
  /// every client), calibrated so a phase takes about --seconds.
  uint64_t ops_per_second = 0;
};

/// Null when `name` is not a workload.
const WorkloadConfig* FindWorkload(const std::string& name);

/// The single place Database::Options are set. `bulk_load` is the
/// set-up's load (no log, buffered I/O, a pool sized for loading);
/// otherwise the workload's measured configuration. `slow_query_hook`,
/// when set, arms the slow-query log at 1 ns so every query the server
/// runs reports its QueryTrace (traced served runs).
Database::Options DatabaseOptions(
    const WorkloadConfig& config, const std::string& path, size_t pool_frames,
    bool bulk_load,
    std::function<void(const QueryTrace&)> slow_query_hook = nullptr);

/// What the set-up knows about the data it generated: the reference map
/// the output check follows, the initial replicated values, and the sizes
/// the cost model and space metrics need.
struct DataShape {
  /// head_target[set][field_r] = field_s of the S object it references.
  std::vector<uint32_t> head_target[kHeadSets];
  uint32_t data_pages = 0;
  /// Serialized field bytes beyond the §6 r/s (replica slots, link refs).
  double head_extra[kHeadSets] = {0, 0, 0};
  double terminal_extra = 0;
  /// Field bytes of all user objects (|S| s + 3 f |S| r).
  double user_bytes = 0;

  uint32_t heads_per_set() const {
    return static_cast<uint32_t>(head_target[kRn].size());
  }
};

/// The initial `repfield` of the S object with key `key`.
std::string InitialRepfield(uint32_t key);
/// The `filler` every update assigns.
std::string UpdateFiller();

/// Builds the §6 database from `seed` at `path` (bulk load without the
/// log, replicate, index, checkpoint, close). Deterministic per seed.
Status BuildDatabase(const WorkloadConfig& config, uint64_t seed,
                     const std::string& path, DataShape* shape);

/// §6 cost-model parameters for one strategy of the built data, with the
/// measured object sizes (bench_util's ParamsFor).
CostModelParams ModelParams(const DataShape& shape, int set, double fr,
                            double fs);

/// Gray et al. zipfian over [0, n): item 0 hottest.
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta);
  uint64_t Next(Random* rng) const;

 private:
  uint64_t n_;
  double zetan_ = 0;
  double zeta2_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// Removes trailing NUL padding from a char(n) value.
std::string Trim(const std::string& s);

}  // namespace fieldrep::perfbench

#endif  // FIELDREP_PERFBENCH_FIXTURE_H_
