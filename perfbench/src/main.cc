// qf_perfbench: the serving benchmark's load generator (see README.md).
//
//   qf_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                --bin-dir=DIR --run-dir=DIR [--trace-out=FILE]
//                [--mirror-seed=N]
//
// --trace=0 runs the end-to-end measurement against fresh SUT processes and
// prints every end-to-end metric; --trace=1 runs the traced layer ladder and
// prints every per-layer metric, writing its spans to FILE (default
// RUN_DIR/trace.json). The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit status is
// non-zero when any output disagrees with the in-bench oracles.
// --mirror-seed overrides the mirror's filter seed (the must-fail leg).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/flags.h"
#include "layers.h"
#include "serving.h"
#include "workload.h"

namespace {

void PrintResult(const std::vector<perfbench::Metric>& metrics,
                 const perfbench::Gate& gate) {
  for (const perfbench::Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("%-32s %16.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& note : gate.notes) {
    std::printf("MISMATCH: %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += gate.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted);
  json += ", \"failed\": " + std::to_string(gate.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  qf::FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const int trace = static_cast<int>(flags.GetInt("trace", 0));
  perfbench::Env env;
  env.bin_dir = flags.GetString("bin-dir", "");
  env.run_dir = flags.GetString("run-dir", "");
  const std::string trace_out =
      flags.GetString("trace-out", env.run_dir + "/trace.json");
  perfbench::WorkloadSpec spec;
  if (!perfbench::FindWorkload(workload, &spec)) {
    std::fprintf(stderr, "qf_perfbench: unknown --workload=%s\n", workload.c_str());
    return 2;
  }
  const uint64_t mirror_seed = static_cast<uint64_t>(
      flags.GetInt("mirror-seed", static_cast<int64_t>(perfbench::kFilterSeed)));
  const auto unknown = flags.UnqueriedFlags();
  if (!unknown.empty() || env.bin_dir.empty() || env.run_dir.empty() ||
      seconds <= 0) {
    std::fprintf(stderr, "qf_perfbench: bad arguments (see the header of main.cc)\n");
    return 2;
  }
  std::filesystem::create_directories(env.run_dir);
  env.cores = perfbench::PlanCores();
  if (env.cores.pinned) perfbench::PinSelf(env.cores.generator_core);

  const uint64_t t0 = perfbench::NowNs();
  const perfbench::Prepared prepared =
      perfbench::Prepare(spec, seed, seconds, mirror_seed);
  std::printf("workload %s seed %" PRIu64 ": %" PRIu64 " items (%zu distinct "
              "keys, %" PRIu64 " reports predicted), prepared in %.2f s\n",
              workload.c_str(), seed, prepared.stream_items, prepared.keys.size(),
              prepared.expected_reports,
              static_cast<double>(perfbench::NowNs() - t0) * 1e-9);

  std::vector<perfbench::Metric> metrics;
  perfbench::Gate gate;
  if (trace == 0) {
    perfbench::ServingResult r = perfbench::RunServing(env, prepared, seed);
    if (r.generator_behind) {
      std::printf("WARNING: generator fell behind (send lateness p99 %.1f us, "
                  "max %.1f us); latencies are still timed from due times\n",
                  r.gen_late_p99_us, r.gen_late_max_us);
    }
    metrics = std::move(r.metrics);
    gate = std::move(r.gate);
  } else {
    perfbench::LayerResult r =
        perfbench::RunLayers(env, prepared, seed, trace_out);
    metrics = std::move(r.metrics);
    gate = std::move(r.gate);
  }
  PrintResult(metrics, gate);
  return gate.failed == 0 ? 0 : 1;
}
