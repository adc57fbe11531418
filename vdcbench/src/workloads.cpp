#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "app/multi_tier_app.hpp"
#include "core/sysid_experiment.hpp"
#include "measure.hpp"
#include "reference.hpp"
#include "telemetry/export.hpp"
#include "trace/synthetic.hpp"

namespace vdcbench {

namespace vc = vdc::core;
namespace vd = vdc::datacenter;

namespace {

/// The shared response-time model is identified on a staging copy of the
/// benchmark application with a fixed seed — the seed the Testbed itself
/// would use at its default configuration (seed 7 + 1000). Every workload
/// seed therefore controls the same plant model; the seed varies the
/// request streams, the trace and the placement.
constexpr std::uint64_t kStagingSeed = 1007;

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;
  {
    // The paper's testbed in two-level mode (Fig. 3's surge on top).
    Workload w;
    w.name = "testbed_two_level";
    w.testbed.num_servers = 8;
    w.testbed.enable_optimizer = true;
    w.testbed.optimizer_period_s = 300.0;
    w.testbed.optimizer_algorithm = vc::ConsolidationAlgorithm::kIpac;
    w.duration_s = 1500.0;
    w.settle_s = 400.0;
    w.surge = Surge{.app = 4, .clients = 80, .from_s = 600.0, .to_s = 1200.0};
    all.push_back(std::move(w));
  }
  {
    // perf_sharding's fleet shape at 1k apps: 10,000 VMs on 2,000 servers.
    Workload w;
    w.name = "fleet_1k";
    w.testbed.num_apps = 1000;
    w.testbed.num_servers = 2000;
    w.testbed.concurrency = 2;
    w.testbed.initial_replicas = 5;
    w.testbed.shards = 4;
    w.testbed.shard_threads = 4;
    // The controllers reach c_min by the fourth period; from there on every
    // tick is a full-cost QP solve per app.
    w.duration_s = 24.0;
    w.settle_s = 12.0;
    all.push_back(std::move(w));
  }
  {
    // Fig. 6's largest point: IPAC with DVFS over the 7-day trace.
    Workload w;
    w.name = "trace_dc_5415";
    w.trace_driven = true;
    w.trace_sim.num_vms = vdc::trace::kPaperServerCount;
    w.trace_sim.algorithm = vc::ConsolidationAlgorithm::kIpac;
    w.trace_sim.dvfs = true;
    all.push_back(std::move(w));
  }
  return all;
}

class Checks {
 public:
  explicit Checks(std::vector<std::string>& failures) : failures_(failures) {}
  /// Records a failed check; the first few are kept for the report.
  void expect(bool ok, const char* what, const std::string& detail = {}) {
    if (ok || failures_.size() >= 8) return;
    failures_.push_back(std::string(what) + (detail.empty() ? "" : ": " + detail));
  }

 private:
  std::vector<std::string>& failures_;
};

bool all_finite(const std::vector<double>& xs) {
  for (const double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

double bound_for(const std::vector<double>& bounds, std::size_t tier) {
  return tier < bounds.size() ? bounds[tier] : bounds.front();
}

/// True when an optimizer instant (a multiple of `every_s`) falls in (a, b].
bool instant_in(double a, double b, double every_s) {
  return std::floor(b / every_s + 1e-9) > std::floor(a / every_s + 1e-9);
}

void capture_arbitration(Capture& cap, const vd::Cluster& cluster, bool active_only) {
  if (cap.cpus.empty()) {
    for (vd::ServerId s = 0; s < cluster.server_count(); ++s) {
      cap.cpus.push_back(cluster.server(s).cpu());
    }
    cap.arb_offset.push_back(0);
  }
  for (vd::ServerId s = 0; s < cluster.server_count(); ++s) {
    const bool active = cluster.server(s).active();
    if (active) {
      ++cap.active_server_samples;
      if (cluster.overloaded(s)) ++cap.overloaded_server_samples;
    }
    if (active_only && !active) continue;
    cap.arb_server.push_back(static_cast<std::uint32_t>(s));
    for (const vd::VmId vm : cluster.vms_on(s)) {
      cap.arb_demand.push_back(cluster.vm(vm).cpu_demand_ghz);
    }
    cap.arb_offset.push_back(cap.arb_demand.size());
  }
}

Repetition run_testbed(const Workload& w, std::uint64_t seed, Capture* cap) {
  Repetition rep;
  const double t0 = wall_s();
  const vc::SysIdExperimentResult identified = vc::identify_app_model(
      vdc::app::default_two_tier_app("staging", kStagingSeed, 40), vc::SysIdExperimentConfig{});
  const double t1 = wall_s();
  vc::TestbedConfig config = w.testbed;
  config.seed = seed;
  config.model = identified.model;
  auto testbed = std::make_unique<vc::Testbed>(config);
  vc::Testbed& tb = *testbed;
  if (w.surge) {
    const Surge s = *w.surge;
    tb.simulation().schedule(s.from_s, [&tb, s] { tb.set_concurrency(s.app, s.clients); });
    tb.simulation().schedule(s.to_s, [&tb, s, base = config.concurrency] {
      tb.set_concurrency(s.app, base);
    });
  }
  const double t2 = wall_s();
  rep.setup_s = t2 - t0;
  if (cap != nullptr) {
    // No trace to generate: the layer's span is empty.
    const double g0 = wall_s();
    const double g1 = wall_s();
    const int setup = cap->spans.add("setup", "core", cap->root, t0, g1);
    cap->spans.add("core.sysid", "core", setup, t0, t1);
    cap->spans.add("core.construct", "core", setup, t1, t2);
    cap->spans.add("trace.generate", "trace", setup, g0, g1);
    cap->sysid_s = t1 - t0;
    cap->construct_s = t2 - t1;
    cap->generate_s = g1 - g0;
    cap->model = identified.model;
    cap->arbitrator_headroom = 1.1;  // the Testbed's per-period arbitrator
    cap->optimizer = vc::OptimizerConfig{
        .algorithm = config.optimizer_algorithm,
        .utilization_target = config.optimizer_utilization_target,
        .ipac = {},
        .migration_backoff_s = config.optimizer_migration_backoff_s,
        .rack = config.optimizer_rack,
    };
  }

  const double period = config.control_period_s;
  const auto periods = static_cast<std::size_t>(std::floor(w.duration_s / period + 1e-9));
  const double w0 = wall_s();
  const double c0 = cpu_s();
  if (cap == nullptr) {
    tb.run_until(w.duration_s);
  } else {
    cap->run = cap->spans.open("run", "core", cap->root);
    for (std::size_t k = 1; k <= periods; ++k) {
      const double until = static_cast<double>(k) * period;
      Step step;
      step.invocation =
          config.enable_optimizer && instant_in(until - period, until, config.optimizer_period_s);
      if (step.invocation) cap->plan_inputs.push_back({until, tb.cluster()});
      step.start_s = wall_s();
      const double sc = cpu_s();
      tb.run_until(until);
      step.cpu_s = cpu_s() - sc;
      step.end_s = wall_s();
      step.arb_begin = cap->arb_server.size();
      capture_arbitration(*cap, tb.cluster(), /*active_only=*/false);
      step.arb_end = cap->arb_server.size();
      cap->spans.add("core.period[" + std::to_string(k) + "]", "core", cap->run, step.start_s,
                     step.end_s);
      cap->steps.push_back(step);
    }
    cap->spans.close(cap->run);
  }
  const double e0 = wall_s();
  vdc::telemetry::Recorder recorder = tb.take_recorder();
  const std::string csv = vdc::telemetry::to_csv(recorder);
  const double w1 = wall_s();
  rep.window_cpu_s = cpu_s() - c0;
  rep.window_wall_s = w1 - w0;
  rep.sim_s = tb.now();

  // ---- outcome ----
  Outcome& out = rep.outcome;
  out.digest = fnv1a(csv);
  const std::vector<double>& power = recorder.values(vc::kPowerSeries);
  for (const double p : power) out.energy_kwh += p * period / 3.6e6;
  std::size_t samples = 0;
  std::size_t misses = 0;
  for (std::size_t i = 0; i < config.num_apps; ++i) {
    const std::vector<double>& p90 = recorder.values(vc::response_series_name(i));
    for (std::size_t k = 0; k < p90.size(); ++k) {
      if (static_cast<double>(k + 1) * period <= w.settle_s) continue;
      ++samples;
      if (p90[k] > config.setpoint_s) ++misses;
    }
  }
  out.slo_miss_pct =
      samples == 0 ? 0.0 : 100.0 * static_cast<double>(misses) / static_cast<double>(samples);

  // ---- output checks ----
  Checks check(rep.failures);
  check.expect(std::abs(tb.now() - w.duration_s) < 1e-9, "run ended at the requested time");
  for (const std::string& name : recorder.series_names()) {
    if (recorder.is_vector(name)) {
      const auto& rows = recorder.rows(name);
      bool finite = true;
      for (const auto& row : rows) finite = finite && all_finite(row);
      check.expect(rows.size() == periods, "series length", name);
      check.expect(finite, "series finite", name);
    } else {
      const auto& values = recorder.values(name);
      check.expect(values.size() == periods, "series length", name);
      check.expect(all_finite(values), "series finite", name);
    }
  }
  for (std::size_t i = 0; i < config.num_apps; ++i) {
    const vdc::app::MultiTierApp& app = tb.application(i);
    check.expect(app.issued_requests() >= app.completed_requests() &&
                     app.issued_requests() - app.completed_requests() <= app.concurrency(),
                 "request conservation", "app" + std::to_string(i));
    for (const auto& row : recorder.rows(vc::allocation_series_name(i))) {
      for (std::size_t j = 0; j < row.size(); ++j) {
        check.expect(row[j] >= bound_for(config.mpc.c_min, j) &&
                         row[j] <= bound_for(config.mpc.c_max, j),
                     "allocation within [c_min, c_max]", "app" + std::to_string(i));
      }
    }
  }
  for (const double p : power) {
    check.expect(std::isfinite(p) && p > 0.0, "power positive and finite");
  }

  if (cap != nullptr) {
    cap->spans.add("export", "telemetry", cap->root, e0, w1);
    cap->export_s = w1 - e0;
    cap->events = tb.engine().events_executed();
    cap->barriers = tb.engine().barriers();
    for (std::size_t i = 0; i < config.num_apps; ++i) {
      cap->requests_completed += tb.application(i).completed_requests();
    }
    cap->migrations = tb.completed_migrations();
    cap->recorder = std::move(recorder);
  }
  return rep;
}

std::uint64_t digest_of(const vc::TraceSimResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const auto& field) { h = fnv1a(&field, sizeof(field), h); };
  mix(r.total_energy_wh);
  mix(r.energy_wh_per_vm);
  mix(r.migrations);
  mix(r.guard_migrations);
  mix(r.optimizer_invocations);
  mix(r.server_wakes);
  mix(r.final_active_servers);
  mix(r.peak_active_servers);
  mix(r.overload_fraction);
  mix(r.migration_energy_wh);
  return fnv1a(r.power_series_w.data(), r.power_series_w.size() * sizeof(double), h);
}

Repetition run_trace(const Workload& w, std::uint64_t seed, Capture* cap) {
  Repetition rep;
  const double t0 = wall_s();
  vdc::trace::SyntheticTraceOptions options;
  options.seed = seed;
  const vdc::trace::UtilizationTrace trace = vdc::trace::generate_synthetic_trace(options);
  const double t1 = wall_s();
  const vc::TraceDrivenSimulator simulator(trace);
  const double t2 = wall_s();
  rep.setup_s = t2 - t0;

  vc::TraceSimConfig config = w.trace_sim;
  config.seed = seed;
  const double dt = trace.sample_period_s();
  const auto every = static_cast<std::size_t>(std::max(1.0, config.consolidation_period_s / dt));
  double step_wall = 0.0;
  double step_cpu = 0.0;
  if (cap != nullptr) {
    // No model to identify: the layer's span is empty.
    const double i0 = wall_s();
    const double i1 = wall_s();
    const int setup = cap->spans.add("setup", "trace", cap->root, t0, i1);
    cap->spans.add("trace.generate", "trace", setup, t0, t1);
    cap->spans.add("core.construct", "core", setup, t1, t2);
    cap->spans.add("core.sysid", "core", setup, i0, i1);
    cap->generate_s = t1 - t0;
    cap->construct_s = t2 - t1;
    cap->sysid_s = i1 - i0;
    cap->arbitrator_headroom = 1.0;  // the trace cluster's own arbitrator
    cap->optimizer = vc::OptimizerConfig{
        .algorithm = config.algorithm,
        .utilization_target = config.utilization_target,
        .ipac = config.ipac,
        .rack = config.rack,
    };
    config.sample_probe = [cap, &trace, &step_wall, &step_cpu, every, dt,
                           samples = trace.sample_count()](const vd::Cluster& cluster,
                                                           std::size_t k) {
      Step step;
      step.start_s = step_wall;
      step.end_s = wall_s();
      step.cpu_s = cpu_s() - step_cpu;
      step.invocation = k % every == 0;
      step.arb_begin = cap->arb_server.size();
      capture_arbitration(*cap, cluster, /*active_only=*/true);
      step.arb_end = cap->arb_server.size();
      if ((k + 1) % every == 0 && k + 1 < samples) {
        // The optimizer's input at sample k + 1: this cluster with every VM's
        // demand rolled forward to the next trace sample (demand = trace
        // utilization x the VM's fixed peak).
        PlanInput input{static_cast<double>(k + 1) * dt, cluster};
        for (vd::VmId v = 0; v < input.cluster.vm_count(); ++v) {
          const double u = trace.at(v, k);
          if (u > 0.0) {
            input.cluster.vm(v).cpu_demand_ghz =
                input.cluster.vm(v).cpu_demand_ghz / u * trace.at(v, k + 1);
          }
        }
        cap->plan_inputs.push_back(std::move(input));
      }
      cap->spans.add("trace.sample[" + std::to_string(k) + "]", "datacenter", cap->run,
                     step.start_s, step.end_s);
      cap->steps.push_back(step);
      step_wall = wall_s();
      step_cpu = cpu_s();
    };
  }
  const double w0 = wall_s();
  const double c0 = cpu_s();
  if (cap != nullptr) {
    cap->run = cap->spans.open("run", "core", cap->root);
    step_wall = w0;
    step_cpu = c0;
  }
  const vc::TraceSimResult result = simulator.run(config);
  if (cap != nullptr) cap->spans.close(cap->run);
  const double e0 = wall_s();
  rep.outcome.digest = digest_of(result);
  const double w1 = wall_s();
  rep.window_cpu_s = cpu_s() - c0;
  rep.window_wall_s = w1 - w0;
  rep.sim_s = static_cast<double>(trace.sample_count()) * dt;
  rep.outcome.energy_kwh = result.total_energy_wh / 1000.0;
  rep.outcome.overload_pct = 100.0 * result.overload_fraction;

  Checks check(rep.failures);
  check.expect(result.power_series_w.size() == trace.sample_count(), "power series length");
  for (const double p : result.power_series_w) {
    check.expect(std::isfinite(p) && p > 0.0, "power positive and finite");
  }
  check.expect(std::isfinite(result.total_energy_wh) && result.total_energy_wh > 0.0,
               "energy positive and finite");
  check.expect(result.overload_fraction >= 0.0 && result.overload_fraction <= 1.0,
               "overload fraction within [0, 1]");
  check.expect(result.optimizer_invocations == (trace.sample_count() + every - 1) / every,
               "one optimizer invocation per consolidation period");

  if (cap != nullptr) {
    cap->spans.add("export", "core", cap->root, e0, w1);
    cap->export_s = w1 - e0;
    cap->migrations = result.migrations;
  }
  return rep;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Repetition run_repetition(const Workload& w, std::uint64_t seed, Capture* capture) {
  const double before = reference_kernel_s();
  Repetition rep = w.trace_driven ? run_trace(w, seed, capture) : run_testbed(w, seed, capture);
  rep.ref_s = 0.5 * (before + reference_kernel_s());
  return rep;
}

}  // namespace vdcbench
