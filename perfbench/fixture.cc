#include "fixture.h"

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/strings.h"

namespace fieldrep::perfbench {

namespace {

// Field bytes of the §6 types (bench_util's RTYPE/STYPE): r = 100, s = 200.
constexpr uint32_t kR = 100;
constexpr uint32_t kS = 200;
constexpr uint32_t kRFiller = kR - 4 - 8;   // field_r + sref
constexpr uint32_t kSFiller = kS - 4 - 20;  // field_s + repfield

// Pool used while bulk loading (the measured pool is sized afterwards).
constexpr size_t kBuildPoolFrames = 32768;

const char* const kHeadSetNames[kHeadSets] = {"Rn", "Ri", "Rs"};
const char* const kStrategyNames[kHeadSets] = {"none", "inplace",
                                               "separate"};

// clang-format off
const WorkloadConfig kWorkloads[] = {
    // The paper's regime: pool << data, P_update below the crossover,
    // fsync per commit, checkpoints inside the run.
    {.name = "mix_cold", .p_update = 0.1, .read_heads = 125,
     .update_objects = 25, .clients = 1, .pool_fraction = 0.02,
     .worker_threads = 1, .checkpoint_threshold_bytes = 4u << 20, .ops_per_second = 750},
    // Everything cached: CPU, executor fan-out and latches.
    {.name = "mix_warm", .p_update = 0.02, .read_heads = 1000,
     .update_objects = 25, .clients = 1, .pool_fraction = 0,
     .worker_threads = 4, .checkpoint_threshold_bytes = 0, .ops_per_second = 1200},
    // Four served writers/readers: lock table, framing, group commit.
    {.name = "served_writes", .p_update = 0.5, .read_heads = 25,
     .update_objects = 1, .clients = 4, .served = true, .pool_fraction = 0.02,
     .worker_threads = 1, .server_workers = 2,
     .group_commit = true,
     .checkpoint_threshold_bytes = 0, .ops_per_second = 4500},
};
// clang-format on

}  // namespace

const char* HeadSetName(int set) { return kHeadSetNames[set]; }
const char* StrategyName(int set) { return kStrategyNames[set]; }

ModelStrategy StrategyOf(int set) {
  switch (set) {
    case kRi:
      return ModelStrategy::kInPlace;
    case kRs:
      return ModelStrategy::kSeparate;
    default:
      return ModelStrategy::kNoReplication;
  }
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Database::Options DatabaseOptions(
    const WorkloadConfig& config, const std::string& path, size_t pool_frames,
    bool bulk_load, std::function<void(const QueryTrace&)> slow_query_hook) {
  Database::Options options;
  options.file_path = path;
  options.buffer_pool_frames = pool_frames;
  options.storage_backend = Database::StorageBackend::kUring;
  if (bulk_load) return options;
  options.o_direct = true;
  options.enable_wal = true;
  options.wal_sync_on_commit = true;
  options.wal_group_commit = config.group_commit;
  options.wal_checkpoint_threshold_bytes = config.checkpoint_threshold_bytes;
  options.worker_threads = config.worker_threads;
  if (slow_query_hook) {
    options.slow_query_ns = 1;
    options.slow_query_hook = std::move(slow_query_hook);
  }
  return options;
}

std::string InitialRepfield(uint32_t key) {
  return StringPrintf("rep-%06u", key);
}

std::string UpdateFiller() { return std::string(kSFiller, 'u'); }

Status BuildDatabase(const WorkloadConfig& config, uint64_t seed,
                     const std::string& path, DataShape* shape) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  FIELDREP_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> db,
      Database::Open(DatabaseOptions(config, path, kBuildPoolFrames, true)));

  FIELDREP_RETURN_IF_ERROR(db->DefineType(TypeDescriptor(
      "STYPE", {Int32Attr("field_s"), CharAttr("repfield", 20),
                CharAttr("filler", kSFiller)})));
  FIELDREP_RETURN_IF_ERROR(db->DefineType(TypeDescriptor(
      "RTYPE", {Int32Attr("field_r"), RefAttr("sref", "STYPE"),
                CharAttr("filler", kRFiller)})));
  FIELDREP_RETURN_IF_ERROR(db->CreateSet("S", "STYPE"));
  for (int set = 0; set < kHeadSets; ++set) {
    FIELDREP_RETURN_IF_ERROR(db->CreateSet(kHeadSetNames[set], "RTYPE"));
  }
  // Room for the hidden bytes replication adds, so objects grow in place:
  // S carries an in-place link ref (<= 16) and a separate replica ref (15).
  {
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * s_set, db->GetSet("S"));
    s_set->file().set_growth_reserve(31);
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * ri, db->GetSet("Ri"));
    ri->file().set_growth_reserve(30);
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * rs, db->GetSet("Rs"));
    rs->file().set_growth_reserve(15);
  }

  Random rng(seed);
  const uint32_t s_count = kSCount;
  std::vector<uint32_t> s_keys = rng.Permutation(s_count);
  std::vector<Oid> s_oid_of_key(s_count);
  const std::string s_filler(kSFiller, 's');
  for (uint32_t i = 0; i < s_count; ++i) {
    const uint32_t key = s_keys[i];
    Object object(0, {Value(static_cast<int32_t>(key)),
                      Value(InitialRepfield(key)), Value(s_filler)});
    FIELDREP_RETURN_IF_ERROR(db->Insert("S", object, &s_oid_of_key[key]));
  }

  // Each head set: keys 0..f|S|-1 in random file order, every S object
  // referenced exactly f times through a shuffled multiset of targets.
  const uint32_t r_count = kF * s_count;
  const std::string r_filler(kRFiller, 'r');
  Oid sample_head[kHeadSets];
  for (int set = 0; set < kHeadSets; ++set) {
    std::vector<uint32_t>& target = shape->head_target[set];
    target.resize(r_count);
    for (uint32_t i = 0; i < r_count; ++i) target[i] = i % s_count;
    rng.Shuffle(&target);
    std::vector<uint32_t> r_keys = rng.Permutation(r_count);
    for (uint32_t i = 0; i < r_count; ++i) {
      const uint32_t key = r_keys[i];
      Object object(0, {Value(static_cast<int32_t>(key)),
                        Value(s_oid_of_key[target[key]]), Value(r_filler)});
      Oid oid;
      FIELDREP_RETURN_IF_ERROR(db->Insert(kHeadSetNames[set], object, &oid));
      if (i == 0) sample_head[set] = oid;
    }
  }

  ReplicateOptions inplace;
  inplace.strategy = ReplicationStrategy::kInPlace;
  FIELDREP_RETURN_IF_ERROR(db->Replicate("Ri.sref.repfield", inplace));
  ReplicateOptions separate;
  separate.strategy = ReplicationStrategy::kSeparate;
  FIELDREP_RETURN_IF_ERROR(db->Replicate("Rs.sref.repfield", separate));

  FIELDREP_RETURN_IF_ERROR(db->BuildIndex("s_field_s", "S", "field_s"));
  for (int set = 0; set < kHeadSets; ++set) {
    const std::string name = kHeadSetNames[set];
    FIELDREP_RETURN_IF_ERROR(db->BuildIndex(name + "_field_r", name,
                                             "field_r"));
  }

  // Serialized sizes after replication (object header excluded).
  std::string payload;
  for (int set = 0; set < kHeadSets; ++set) {
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * heads,
                              db->GetSet(kHeadSetNames[set]));
    FIELDREP_RETURN_IF_ERROR(heads->file().Read(sample_head[set], &payload));
    shape->head_extra[set] = static_cast<double>(payload.size()) - 16 - kR;
  }
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * terminals, db->GetSet("S"));
  FIELDREP_RETURN_IF_ERROR(terminals->file().Read(s_oid_of_key[0], &payload));
  shape->terminal_extra = static_cast<double>(payload.size()) - 16 - kS;
  shape->user_bytes = static_cast<double>(s_count) * kS +
                      static_cast<double>(kHeadSets) * r_count * kR;

  FIELDREP_RETURN_IF_ERROR(db->Checkpoint());
  shape->data_pages = db->pool().device()->page_count();
  return Status::OK();
}

CostModelParams ModelParams(const DataShape& shape, int set, double fr,
                            double fs) {
  bench::ModelWorkload workload;
  workload.s_count = kSCount;
  workload.f = kF;
  workload.strategy = StrategyOf(set);
  workload.actual_r = kR;
  workload.actual_s = kS;
  workload.actual_k = shape.head_extra[set];
  workload.actual_s_overhead = shape.terminal_extra;
  return bench::ParamsFor(workload, fr, fs);
}

Zipfian::Zipfian(uint64_t n, double theta) : n_(n) {
  for (uint64_t i = 1; i <= n; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  zeta2_ = 1.0 + 1.0 / std::pow(2.0, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
}

uint64_t Zipfian::Next(Random* rng) const {
  const double u = rng->NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < zeta2_) return 1;
  const uint64_t v = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v < n_ ? v : n_ - 1;
}

std::string Trim(const std::string& s) {
  size_t end = s.find('\0');
  return end == std::string::npos ? s : s.substr(0, end);
}

}  // namespace fieldrep::perfbench
