// The benchmark's workloads, driven through the public core::Testbed and
// core::TraceDrivenSimulator APIs. One repetition = set-up, the timed
// window (run + output export), and the output checks. A repetition given a
// Capture is the traced one: it steps the run one control period (or trace
// sample) at a time, records spans, and keeps the inputs the layer replay
// needs (see replay.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/power_optimizer.hpp"
#include "core/testbed.hpp"
#include "core/trace_sim.hpp"
#include "datacenter/cluster.hpp"
#include "spans.hpp"
#include "telemetry/recorder.hpp"

namespace vdcbench {

struct Surge {
  std::size_t app = 0;
  std::size_t clients = 0;
  double from_s = 0.0;
  double to_s = 0.0;
};

struct Workload {
  std::string name;
  bool trace_driven = false;
  // ---- testbed workloads ----
  vdc::core::TestbedConfig testbed;  ///< seed and model are filled per repetition
  double duration_s = 0.0;           ///< simulated seconds per repetition
  double settle_s = 0.0;             ///< SLO samples count from here on
  std::optional<Surge> surge;
  // ---- trace-driven workload ----
  vdc::core::TraceSimConfig trace_sim;  ///< seed is filled per repetition
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The simulated outcome of one repetition: deterministic in the seed.
struct Outcome {
  std::uint64_t digest = 0;  ///< FNV-1a of the telemetry CSV or the TraceSimResult
  double energy_kwh = 0.0;
  double slo_miss_pct = 0.0;  ///< testbeds: share of settled (app, period) p90s above the set point
  double overload_pct = 0.0;  ///< trace run: overload_fraction x 100
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

struct Repetition {
  double setup_s = 0.0;
  double window_wall_s = 0.0;  ///< run + export, wall
  double window_cpu_s = 0.0;   ///< run + export, process CPU (all threads)
  double sim_s = 0.0;          ///< simulated seconds covered by the window
  double ref_s = 0.0;          ///< mean reference kernel time around the repetition
  Outcome outcome;
  std::vector<std::string> failures;  ///< failed output checks
};

/// One step of the traced run: a control period or a trace sample.
struct Step {
  double start_s = 0.0;
  double end_s = 0.0;
  double cpu_s = 0.0;       ///< process CPU spent in the step
  bool invocation = false;  ///< an optimizer invocation falls in the step
  std::size_t arb_begin = 0;  ///< this step's entries in Capture::arb_server
  std::size_t arb_end = 0;
};

/// The cluster as it stood one step before an optimizer invocation.
struct PlanInput {
  double now_s = 0.0;  ///< simulated time of the invocation
  vdc::datacenter::Cluster cluster;
};

/// What the traced repetition keeps for the replay.
struct Capture {
  explicit Capture(std::string run_id) : spans(std::move(run_id)) {}

  SpanLog spans;
  int root = -1;
  int run = -1;
  std::vector<Step> steps;
  double sysid_s = 0.0;
  double construct_s = 0.0;
  double generate_s = 0.0;
  double export_s = 0.0;

  // Arbitration inputs, one entry per (step, server) the workload arbitrated.
  double arbitrator_headroom = 1.0;
  std::vector<vdc::datacenter::CpuSpec> cpus;  ///< per server id
  std::vector<std::uint32_t> arb_server;
  std::vector<std::size_t> arb_offset;  ///< into arb_demand; size arb_server + 1
  std::vector<double> arb_demand;
  std::size_t active_server_samples = 0;
  std::size_t overloaded_server_samples = 0;

  // Consolidation inputs: the cluster one step before each invocation.
  vdc::core::OptimizerConfig optimizer;
  std::vector<PlanInput> plan_inputs;

  // Testbed outputs the control and telemetry replays read.
  std::optional<vdc::telemetry::Recorder> recorder;
  vdc::control::ArxModel model;
  std::uint64_t events = 0;
  std::uint64_t barriers = 0;
  std::uint64_t requests_completed = 0;
  std::size_t migrations = 0;
};

/// Runs one repetition of `w` with workload seed `seed`, between two runs of
/// the reference kernel.
[[nodiscard]] Repetition run_repetition(const Workload& w, std::uint64_t seed,
                                        Capture* capture = nullptr);

}  // namespace vdcbench
