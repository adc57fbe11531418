// Outside-in layer breakdown of a traced repetition. Each module's public
// entry point is called again, from the benchmark, on the inputs the traced
// run captured, and timed call by call:
//   control      ResponseTimeController::control over each app's recorded p90
//   datacenter   CpuResourceArbitrator::arbitrate per server per step
//   consolidate  PowerOptimizer::plan on the cluster one step before each
//                optimizer invocation
//   telemetry    Recorder appends of the recorded stream into a fresh recorder
// The run's per-step CPU time minus these replayed times is the residual:
// the event loop and the applications on the testbeds, the trace loop's own
// bookkeeping on the trace run.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace vdcbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct LayerReport {
  std::vector<Metric> metrics;  ///< the per_layer metrics, BENCHMARK.json order
  std::vector<std::string> failures;
};

/// Runs the replay under a "replay" span of `capture` and derives every
/// per-layer metric. `traced` is the traced repetition; `tracing_overhead_s`
/// is its window minus the untraced median, in standard-host seconds.
[[nodiscard]] LayerReport replay_layers(const Workload& w, Capture& capture,
                                        const Repetition& traced, double tracing_overhead_s);

}  // namespace vdcbench
