// Empirical validation: runs the paper's read/update query mix on the
// actual storage engine and compares the measured page I/O per query with
// the analytical cost model's prediction, for every strategy and both index
// settings.
//
// The paper's evaluation is purely analytical; this bench is the
// reproduction's extension that demonstrates the model describes a real
// engine. Every query starts from a cold buffer pool; the device I/O
// counted by the pool is exactly the model's cost unit. The model is fed
// the engine's actual serialized object sizes so both sides reason about
// the same bytes.
//
// Scaled to |S| = 2000 (a laptop-friendly tenth of the paper's 10 000) with
// fr = fs = .005, preserving the paper's selected-object counts.

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/strings.h"

namespace fieldrep::bench {
namespace {

/// "in-place replication" -> "in_place_replication" for JSON metric keys.
std::string KeySafe(const char* name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ' ' || c == '-') c = '_';
  }
  return out;
}

void RunSetting(bool clustered, uint32_t s_count, int trials, bool read_ahead,
                size_t threads, const DeviceChoice& device, BenchJson* json) {
  const double fr = 0.005;
  const double fs = 0.005;
  std::printf("--- %s indexes, |S| = %u, fr = fs = %.3f ---\n",
              clustered ? "Clustered" : "Unclustered", s_count, fr);
  std::printf("  %-12s %-24s %10s %10s %8s %10s %10s %8s\n", "f", "strategy",
              "read(meas)", "read(model)", "err%", "upd(meas)", "upd(model)",
              "err%");
  // Measured C_read/C_update per strategy at the largest f, for the
  // Figure 11-style crossover computed from *engine* numbers.
  double meas_read[3] = {0, 0, 0}, meas_update[3] = {0, 0, 0};
  uint32_t last_f = 0;
  for (uint32_t f : {1u, 5u, 10u}) {
    last_f = f;
    for (ModelStrategy strategy :
         {ModelStrategy::kNoReplication, ModelStrategy::kInPlace,
          ModelStrategy::kSeparate}) {
      WorkloadOptions options;
      options.s_count = s_count;
      options.f = f;
      options.clustered = clustered;
      options.strategy = strategy;
      options.read_ahead = read_ahead;
      options.worker_threads = threads;
      if (device.given) {
        // --device selects a real file-backed device; each cell gets a
        // fresh backing file (the default stays on the in-memory device).
        options.storage_backend = device.backend;
        options.o_direct = device.o_direct;
        options.file_path = StringPrintf(
            "/tmp/fieldrep_empirical_%s_%u_%d_%d.db", device.name, f,
            static_cast<int>(strategy), clustered ? 1 : 0);
        std::remove(options.file_path.c_str());
      }
      auto workload = BuildModelWorkload(options);
      if (!workload.ok()) {
        std::printf("  build failed: %s\n",
                    workload.status().ToString().c_str());
        std::exit(1);
      }
      auto measured = MeasureQueryCosts(&workload.value(), fr, fs, trials);
      if (!measured.ok()) {
        std::printf("  measurement failed: %s\n",
                    measured.status().ToString().c_str());
        std::exit(1);
      }
      CostModelParams params = ParamsFor(*workload, fr, fs);
      CostModel model(params);
      IndexSetting setting =
          clustered ? IndexSetting::kClustered : IndexSetting::kUnclustered;
      double model_read = model.ReadCost(strategy, setting);
      double model_update = model.UpdateCost(strategy, setting);
      auto err = [](double meas, double pred) {
        return pred == 0 ? 0.0 : 100.0 * (meas - pred) / pred;
      };
      std::printf("  f=%-10u %-24s %10.1f %10.0f %7.1f%% %10.1f %10.0f %7.1f%%\n",
                  f, ModelStrategyName(strategy), measured->read_io,
                  model_read, err(measured->read_io, model_read),
                  measured->update_io, model_update,
                  err(measured->update_io, model_update));
      meas_read[static_cast<int>(strategy)] = measured->read_io;
      meas_update[static_cast<int>(strategy)] = measured->update_io;
      if (json != nullptr) {
        std::string prefix =
            StringPrintf("%s.f%u.%s.", clustered ? "clustered" : "unclustered",
                         f, KeySafe(ModelStrategyName(strategy)).c_str());
        json->Add(prefix + "read_io", measured->read_io);
        json->Add(prefix + "read_io_model", model_read);
        json->Add(prefix + "update_io", measured->update_io);
        json->Add(prefix + "update_io_model", model_update);
        json->Add(prefix + "read_ms", measured->read_ms);
        json->Add(prefix + "update_ms", measured->update_ms);
        json->Add(prefix + "batched_reads", measured->batched_reads);
        json->Add(prefix + "coalesced_writes", measured->coalesced_writes);
        // Last workload's snapshot wins: the embedded telemetry shows one
        // representative fully-exercised engine, not a per-cell matrix.
        json->SetTelemetry(workload->db->MetricsJson());
      }
      if (!options.file_path.empty()) {
        workload->db.reset();  // close the device before unlinking
        std::remove(options.file_path.c_str());
      }
    }
  }
  // Engine-level Figure 11 shape at the largest f: percentage difference
  // at a small update probability, and the measured in-place/separate
  // crossover.
  auto total = [&](ModelStrategy s, double p) {
    int i = static_cast<int>(s);
    return (1 - p) * meas_read[i] + p * meas_update[i];
  };
  double crossover = -1;
  for (double p = 0; p <= 1.0; p += 0.005) {
    if (total(ModelStrategy::kInPlace, p) >=
        total(ModelStrategy::kSeparate, p)) {
      crossover = p;
      break;
    }
  }
  double p_small = 0.05;
  double base = total(ModelStrategy::kNoReplication, p_small);
  std::printf(
      "  engine-measured shape at f=%u: at P_update=%.2f in-place %+.1f%%, "
      "separate %+.1f%% vs no replication; in-place/separate crossover at "
      "P_update ~ %.2f\n\n",
      last_f, p_small,
      100 * (total(ModelStrategy::kInPlace, p_small) - base) / base,
      100 * (total(ModelStrategy::kSeparate, p_small) - base) / base,
      crossover);
}

void Run(uint32_t s_count, int trials, bool read_ahead, size_t threads,
         const DeviceChoice& device, const std::string& json_path) {
  std::printf(
      "== Empirical validation: engine-measured page I/O vs the Section 6 "
      "cost model ==\n\n");
  BenchJson json("empirical_io");
  BenchJson* json_ptr = json_path.empty() ? nullptr : &json;
  if (json_ptr != nullptr) {
    json.Add("s_count", s_count);
    json.Add("trials", trials);
    json.Add("read_ahead", read_ahead);
    json.Add("threads", static_cast<double>(threads));
  }
  RunSetting(/*clustered=*/false, s_count, trials, read_ahead, threads, device,
             json_ptr);
  RunSetting(/*clustered=*/true, s_count, trials, read_ahead, threads, device,
             json_ptr);
  std::printf(
      "Expected shape (the paper's findings at engine level): in-place "
      "reads cheapest,\nno-replication reads dearest; in-place updates "
      "grow with f; separate updates flat.\n");
  if (json_ptr != nullptr) {
    Status s = json.WriteToFile(json_path);
    if (!s.ok()) {
      std::printf("failed to write %s: %s\n", json_path.c_str(),
                  s.ToString().c_str());
      std::exit(1);
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace fieldrep::bench

int main(int argc, char** argv) {
  std::string json_path =
      fieldrep::bench::ConsumeJsonFlag(&argc, argv, "empirical_io");
  bool read_ahead =
      fieldrep::bench::ConsumeUintFlag(&argc, argv, "--read-ahead=", 1) != 0;
  size_t threads = fieldrep::bench::ConsumeThreadsFlag(&argc, argv, 1);
  fieldrep::bench::DeviceChoice device =
      fieldrep::bench::ConsumeDeviceFlag(&argc, argv);
  uint32_t s_count = argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 2000;
  int trials = argc > 2 ? std::atoi(argv[2]) : 3;
  fieldrep::bench::Run(s_count, trials, read_ahead, threads, device,
                       json_path);
  return 0;
}
