// Larger-than-memory scale bench (DESIGN.md §15): builds a replicated
// R -> S database far bigger than the buffer pool, then drives zipfian
// point reads (announced in batches through the pool's read-ahead) and
// zipfian updates of the replicated field (each one fans out to its f
// replicas), measuring throughput, per-op latency percentiles, and
// read/write amplification.
//
// This is the workload the async io_uring backend exists for: at pool =
// 1-10% of the data, almost every batch misses and the device sees deep
// multi-page read batches (window > 1) and contiguous write-back runs.
// Compare `--device=file` with `--device=uring` / `--device=uring-direct`
// on the same preset.
//
// The *logical* I/O counters in the JSON (fetches/hits/disk_reads/
// disk_writes) are deterministic for a given preset + seed + window and
// identical across devices (the pool's charge-on-first-fetch rule), so
// CI compares them against the committed BENCH_scale_io.json seed.
//
// Presets: --preset=ci (~30k objects, seconds), --preset=default (~250k),
// --preset=full (10M objects, needs ~2 GiB of disk and a long build).
// Flags: --pool=PCT (pool as % of data pages, default 5), --zipf=THETA
// (default 0.99), --window=N (point reads announced to the read-ahead per
// batch, default 16; 0 reads on demand), --device=..., --reads=N,
// --updates=N, --json[=PATH].

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/strings.h"
#include "storage/read_ahead.h"

namespace fieldrep::bench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Gray et al. style zipfian generator: O(n) zeta precompute once, O(1)
/// per sample. theta in (0, 1); larger = more skew. Item 0 is hottest.
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(i, theta);
    zeta2_ = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2_ / zetan_);
  }

  uint64_t Next(Random* rng) const {
    double u = rng->NextDouble();
    double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < zeta2_) return 1;
    return static_cast<uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double zeta2_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

struct Preset {
  const char* name;
  uint32_t s_count;     ///< |S|; |R| = f * |S|
  uint32_t f;           ///< replicas per S object
  uint64_t reads;       ///< zipfian point reads of R
  uint64_t updates;     ///< zipfian updates of S.repfield
};

constexpr Preset kPresets[] = {
    {"ci", 5000, 5, 4000, 400},
    {"default", 50000, 5, 20000, 2000},
    {"full", 2000000, 5, 200000, 20000},  // 10M+ objects
};

double Percentile(std::vector<uint64_t>* ns, double p) {
  if (ns->empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(ns->size() - 1));
  std::nth_element(ns->begin(), ns->begin() + static_cast<long>(idx),
                   ns->end());
  return static_cast<double>((*ns)[idx]) / 1e3;  // microseconds
}

const Preset* FindPreset(const char* name) {
  for (const Preset& p : kPresets) {
    if (std::strcmp(p.name, name) == 0) return &p;
  }
  return nullptr;
}

int Run(const Preset& preset, uint32_t pool_pct, double theta, uint32_t window,
        const DeviceChoice& device, uint64_t reads, uint64_t updates,
        uint64_t seed, const std::string& json_path) {
  const uint64_t r_count =
      static_cast<uint64_t>(preset.f) * preset.s_count;
  std::printf(
      "== scale_io: |S|=%u f=%u (%llu objects), zipf theta=%.2f, pool=%u%%, "
      "window=%u, device=%s ==\n",
      preset.s_count, preset.f,
      static_cast<unsigned long long>(r_count + preset.s_count), theta,
      pool_pct, window, device.name);

  const std::string path =
      StringPrintf("/tmp/fieldrep_scale_io_%s.db", device.name);
  std::remove(path.c_str());

  // --- Build phase: big pool, bulk insert, replicate, checkpoint --------
  uint64_t build_start = NowNs();
  WorkloadOptions build;
  build.s_count = preset.s_count;
  build.f = preset.f;
  build.strategy = ModelStrategy::kInPlace;  // updates fan out to replicas
  build.pool_frames = 65536;
  build.read_ahead = window > 0;
  build.file_path = path;
  build.storage_backend = device.backend;
  build.o_direct = device.o_direct;
  build.seed = seed;
  auto workload = BuildModelWorkload(build);
  if (!workload.ok()) {
    std::printf("build failed: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  Status s = workload->db->Checkpoint();
  if (!s.ok()) {
    std::printf("checkpoint failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<Oid> r_oids = std::move(workload->r_oids);
  std::vector<Oid> s_oids = std::move(workload->s_oids);
  workload->db.reset();  // close, so the reopen below is cold
  double build_s = static_cast<double>(NowNs() - build_start) / 1e9;

  // --- Reopen with a pool that is pool_pct % of the data ----------------
  Database::Options reopen;
  reopen.file_path = path;
  reopen.storage_backend = device.backend;
  reopen.o_direct = device.o_direct;
  reopen.read_ahead = window > 0;
  auto opened = Database::Open(reopen);
  if (!opened.ok()) {
    std::printf("reopen failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  // Fixed-point: frames were needed to learn the data size; resize by
  // reopening with the computed capacity.
  uint32_t data_pages = (*opened)->pool().device()->page_count();
  size_t pool_frames = std::max<size_t>(
      64, static_cast<size_t>(data_pages) * pool_pct / 100);
  opened->reset();
  reopen.buffer_pool_frames = pool_frames;
  opened = Database::Open(reopen);
  if (!opened.ok()) {
    std::printf("reopen failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  Database& db = *opened.value();
  std::printf("built in %.1fs: %u data pages, pool %zu frames (%.1f%%)\n",
              build_s, data_pages, pool_frames,
              100.0 * static_cast<double>(pool_frames) / data_pages);

  Random rng(seed + 1);
  BenchJson json("scale_io");
  json.Add("s_count", preset.s_count);
  json.Add("f", preset.f);
  json.Add("objects", static_cast<double>(r_count + preset.s_count));
  json.Add("data_pages", data_pages);
  json.Add("pool_frames", static_cast<double>(pool_frames));
  json.Add("pool_pct", pool_pct);
  json.Add("zipf_theta", theta);
  json.Add("window", window);
  json.Add("device_uring", device.backend == Database::StorageBackend::kUring);
  json.Add("build_seconds", build_s);

  // --- Read phase: zipfian point reads of R, batched by `window` --------
  {
    Zipfian zipf(r_oids.size(), theta);
    std::vector<uint64_t> lat;
    lat.reserve(reads);
    s = db.ColdStart();
    if (!s.ok()) {
      std::printf("cold start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const size_t batch = window == 0 ? 1 : window;
    std::vector<Oid> read_batch;
    uint64_t phase_start = NowNs();
    for (uint64_t i = 0; i < reads;) {
      size_t n = static_cast<size_t>(
          std::min<uint64_t>(batch, reads - i));
      read_batch.clear();
      for (size_t j = 0; j < n; ++j) {
        read_batch.push_back(r_oids[zipf.Next(&rng)]);
      }
      ReadAheadCursor read_ahead(&db.pool(), read_batch);
      for (size_t j = 0; j < n; ++j) {
        read_ahead.Advance(j);
        Object object;
        uint64_t t0 = NowNs();
        s = db.Get("R", read_batch[j], &object);
        lat.push_back(NowNs() - t0);
        if (!s.ok()) {
          std::printf("read failed: %s\n", s.ToString().c_str());
          return 1;
        }
      }
      i += n;
    }
    double secs = static_cast<double>(NowNs() - phase_start) / 1e9;
    IoStats io = db.io_stats();
    // Physical bytes fetched per byte of object payload requested
    // (object ~ 128 stored bytes vs a 4 KiB page per miss).
    double logical_bytes = static_cast<double>(reads) * 128.0;
    double read_amp =
        logical_bytes == 0
            ? 0
            : static_cast<double>(io.bytes_read) / logical_bytes;
    std::printf(
        "reads:   %8llu ops in %6.2fs = %9.0f ops/s  p50 %7.1fus  "
        "p99 %8.1fus  hit%% %4.1f  amp %.1fx\n",
        static_cast<unsigned long long>(reads), secs, reads / secs,
        Percentile(&lat, 0.50), Percentile(&lat, 0.99),
        io.fetches == 0 ? 0 : 100.0 * io.hits / io.fetches, read_amp);
    json.Add("read.ops", static_cast<double>(reads));
    json.Add("read.seconds", secs);
    json.Add("read.ops_per_sec", reads / secs);
    json.Add("read.p50_us", Percentile(&lat, 0.50));
    json.Add("read.p99_us", Percentile(&lat, 0.99));
    json.Add("read.fetches", static_cast<double>(io.fetches));
    json.Add("read.hits", static_cast<double>(io.hits));
    json.Add("read.disk_reads", static_cast<double>(io.disk_reads));
    json.Add("read.batched_reads", static_cast<double>(io.batched_reads));
    json.Add("read.bytes_read", static_cast<double>(io.bytes_read));
    json.Add("read.amplification", read_amp);
  }

  // --- Update phase: zipfian updates of S.repfield (replica fan-out) ----
  {
    Zipfian zipf(s_oids.size(), theta);
    std::vector<uint64_t> lat;
    lat.reserve(updates);
    s = db.ColdStart();
    if (!s.ok()) {
      std::printf("cold start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    uint64_t phase_start = NowNs();
    for (uint64_t i = 0; i < updates; ++i) {
      const Oid& oid = s_oids[zipf.Next(&rng)];
      uint64_t t0 = NowNs();
      s = db.Update("S", oid, "repfield",
                    Value(StringPrintf("upd-%08llu",
                                       static_cast<unsigned long long>(i))));
      lat.push_back(NowNs() - t0);
      if (!s.ok()) {
        std::printf("update failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    Status flush = db.pool().FlushAll();
    if (!flush.ok()) {
      std::printf("flush failed: %s\n", flush.ToString().c_str());
      return 1;
    }
    double secs = static_cast<double>(NowNs() - phase_start) / 1e9;
    IoStats io = db.io_stats();
    double logical_bytes = static_cast<double>(updates) * 20.0;
    double write_amp =
        logical_bytes == 0
            ? 0
            : static_cast<double>(io.bytes_written) / logical_bytes;
    std::printf(
        "updates: %8llu ops in %6.2fs = %9.0f ops/s  p50 %7.1fus  "
        "p99 %8.1fus  amp %.1fx\n",
        static_cast<unsigned long long>(updates), secs, updates / secs,
        Percentile(&lat, 0.50), Percentile(&lat, 0.99), write_amp);
    json.Add("update.ops", static_cast<double>(updates));
    json.Add("update.seconds", secs);
    json.Add("update.ops_per_sec", updates / secs);
    json.Add("update.p50_us", Percentile(&lat, 0.50));
    json.Add("update.p99_us", Percentile(&lat, 0.99));
    json.Add("update.fetches", static_cast<double>(io.fetches));
    json.Add("update.hits", static_cast<double>(io.hits));
    json.Add("update.disk_reads", static_cast<double>(io.disk_reads));
    json.Add("update.disk_writes", static_cast<double>(io.disk_writes));
    json.Add("update.coalesced_writes",
             static_cast<double>(io.coalesced_writes));
    json.Add("update.bytes_written", static_cast<double>(io.bytes_written));
    json.Add("update.amplification", write_amp);
  }

  json.SetTelemetry(db.MetricsJson());
  opened->reset();
  std::remove(path.c_str());

  if (!json_path.empty()) {
    s = json.WriteToFile(json_path);
    if (!s.ok()) {
      std::printf("failed to write %s: %s\n", json_path.c_str(),
                  s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fieldrep::bench

int main(int argc, char** argv) {
  using fieldrep::bench::kPresets;
  std::string json_path =
      fieldrep::bench::ConsumeJsonFlag(&argc, argv, "scale_io");
  uint32_t window =
      fieldrep::bench::ConsumeUintFlag(&argc, argv, "--window=", 16);
  fieldrep::bench::DeviceChoice device =
      fieldrep::bench::ConsumeDeviceFlag(&argc, argv);

  const fieldrep::bench::Preset* preset = &kPresets[0];
  uint32_t pool_pct = 5;
  double theta = 0.99;
  uint64_t seed = 7;
  uint64_t reads = 0, updates = 0;  // 0 = preset's value
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--preset=", 9) == 0) {
      preset = fieldrep::bench::FindPreset(argv[i] + 9);
      if (preset == nullptr) {
        std::fprintf(stderr, "unknown preset %s (want ci|default|full)\n",
                     argv[i] + 9);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--pool=", 7) == 0) {
      pool_pct = static_cast<uint32_t>(std::atoi(argv[i] + 7));
      if (pool_pct < 1) pool_pct = 1;
    } else if (std::strncmp(argv[i], "--zipf=", 7) == 0) {
      theta = std::atof(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--reads=", 8) == 0) {
      reads = static_cast<uint64_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--updates=", 10) == 0) {
      updates = static_cast<uint64_t>(std::atoll(argv[i] + 10));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return fieldrep::bench::Run(*preset, pool_pct, theta, window, device,
                              reads == 0 ? preset->reads : reads,
                              updates == 0 ? preset->updates : updates, seed,
                              json_path);
}
