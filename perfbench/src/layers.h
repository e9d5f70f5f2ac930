// The traced run: the per-layer ladder.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "serving.h"
#include "workload.h"

namespace perfbench {

struct LayerResult {
  std::vector<Metric> metrics;
  Gate gate;
};

/// Times calls into each layer's public functions from outside, records
/// them as spans, writes the spans to `trace_path` (chrome://tracing JSON)
/// and returns every per-layer metric.
LayerResult RunLayers(const Env& env, const Prepared& p, uint64_t seed,
                      const std::string& trace_path);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
