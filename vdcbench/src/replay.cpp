#include "replay.hpp"

#include <span>

#include "core/app_stack.hpp"
#include "core/response_time_controller.hpp"
#include "datacenter/arbitrator.hpp"
#include "measure.hpp"
#include "reference.hpp"

namespace vdcbench {

namespace vc = vdc::core;

namespace {

/// Timing of one layer's replayed calls. Calls that take milliseconds are
/// timed one by one; sub-microsecond ones (arbitration, appends) are timed
/// per step as a batch, and the sample is the batch's mean call time, so the
/// clock's own cost does not swamp the call's.
struct LayerTimes {
  std::vector<double> samples_s;
  double total_s = 0.0;
  std::size_t calls = 0;
  int span = -1;       ///< the layer's replay span
  double ref_s = 0.0;  ///< reference kernel time around the layer's replay

  void add(double seconds, std::size_t n) {
    total_s += seconds;
    calls += n;
    if (n > 0) samples_s.push_back(seconds / static_cast<double>(n));
  }
};

/// A percentile of the call-time samples, scaled to the metric's unit. A
/// workload that bypasses the layer makes no calls; its replay span is then
/// empty and the figure is that empty span's own measured duration.
double percentile(const SpanLog& spans, const LayerTimes& t, double q, double scale) {
  if (t.samples_s.empty()) return scale * spans.duration_s(t.span);
  return scale * quantile_of(t.samples_s, q);
}

void replay_control(const Workload& w, Capture& cap, int parent, LayerTimes& t,
                    LayerReport& report, std::size_t& iterations, std::size_t& nonconverged,
                    std::size_t& mismatches) {
  t.span = cap.spans.open("replay.control", "control", parent);
  if (cap.recorder) {
    const vdc::telemetry::Recorder& rec = *cap.recorder;
    // The controller exactly as the Testbed configures it.
    vdc::control::MpcConfig mpc = w.testbed.mpc;
    mpc.period_s = w.testbed.control_period_s;
    mpc.setpoint = w.testbed.setpoint_s;
    const double initial = vc::AppStackConfig{}.initial_allocation_ghz;
    for (std::size_t i = 0; i < w.testbed.num_apps; ++i) {
      const std::vector<double>& p90 = rec.values(vc::response_series_name(i));
      const std::vector<std::vector<double>>& alloc = rec.rows(vc::allocation_series_name(i));
      const std::size_t tiers = alloc.empty() ? 0 : alloc.front().size();
      const int app = cap.spans.open("control.app[" + std::to_string(i) + "]", "control", t.span);
      vc::ResponseTimeController controller(cap.model, mpc, std::vector<double>(tiers, initial),
                                            w.testbed.robust);
      for (std::size_t k = 0; k < p90.size() && k < alloc.size(); ++k) {
        // The recorded p90 is what the controller perceived that period
        // (the held value when no request completed).
        vdc::app::PeriodStats stats;
        stats.count = 1;
        stats.controlled = p90[k];
        const double a = wall_s();
        const std::vector<double> demands = controller.control(stats);
        t.add(wall_s() - a, 1);
        const vdc::control::MpcDiagnostics& diag = controller.mpc().diagnostics();
        iterations += diag.qp_iterations;
        if (!diag.qp_converged) ++nonconverged;
        if (demands != alloc[k]) ++mismatches;
      }
      cap.spans.close(app);
    }
  }
  cap.spans.close(t.span);
  if (mismatches > 0) {
    report.failures.push_back("control replay differs from the recorded allocations in " +
                              std::to_string(mismatches) + " periods");
  }
}

void replay_datacenter(Capture& cap, int parent, LayerTimes& t) {
  t.span = cap.spans.open("replay.datacenter", "datacenter", parent);
  const vdc::datacenter::CpuResourceArbitrator arbitrator(cap.arbitrator_headroom);
  for (std::size_t k = 0; k < cap.steps.size(); ++k) {
    const Step& step = cap.steps[k];
    const double s0 = wall_s();
    for (std::size_t e = step.arb_begin; e < step.arb_end; ++e) {
      const std::span<const double> demands(cap.arb_demand.data() + cap.arb_offset[e],
                                            cap.arb_offset[e + 1] - cap.arb_offset[e]);
      static_cast<void>(arbitrator.arbitrate(cap.cpus[cap.arb_server[e]], demands));
    }
    const double s1 = wall_s();
    t.add(s1 - s0, step.arb_end - step.arb_begin);
    cap.spans.add("datacenter.step[" + std::to_string(k + 1) + "]", "datacenter", t.span, s0,
                  s1);
  }
  cap.spans.close(t.span);
}

void replay_consolidate(Capture& cap, int parent, LayerTimes& t, std::size_t& moves) {
  t.span = cap.spans.open("replay.consolidate", "consolidate", parent);
  vc::PowerOptimizer optimizer(cap.optimizer);
  for (std::size_t j = 0; j < cap.plan_inputs.size(); ++j) {
    const PlanInput& input = cap.plan_inputs[j];
    const int span = cap.spans.open("consolidate.plan[" + std::to_string(j + 1) + "]",
                                    "consolidate", t.span);
    const double a = wall_s();
    const vdc::consolidate::PlacementPlan plan = optimizer.plan(input.cluster, input.now_s);
    t.add(wall_s() - a, 1);
    cap.spans.close(span);
    moves += plan.moves.size();
  }
  cap.spans.close(t.span);
}

void replay_telemetry(const Workload& w, Capture& cap, int parent, LayerTimes& t,
                      LayerReport& report) {
  t.span = cap.spans.open("replay.telemetry", "telemetry", parent);
  if (cap.recorder) {
    const vdc::telemetry::Recorder& rec = *cap.recorder;
    vdc::telemetry::RecorderConfig config = w.testbed.telemetry;
    config.sample_period_s = w.testbed.control_period_s;  // as the Testbed sets it
    vdc::telemetry::Recorder fresh(config);
    const std::vector<std::string>& names = rec.series_names();
    std::vector<const std::vector<double>*> scalars(names.size(), nullptr);
    std::vector<const std::vector<std::vector<double>>*> vectors(names.size(), nullptr);
    for (std::size_t s = 0; s < names.size(); ++s) {
      if (rec.is_vector(names[s])) {
        vectors[s] = &rec.rows(names[s]);
        fresh.declare_vector(names[s]);
      } else {
        scalars[s] = &rec.values(names[s]);
        fresh.declare_scalar(names[s]);
      }
    }
    for (std::size_t k = 0; k < cap.steps.size(); ++k) {
      const double time_s = static_cast<double>(k + 1) * w.testbed.control_period_s;
      // Rows are copied ahead so the timed batch holds only the appends.
      std::vector<std::vector<double>> rows;
      for (std::size_t s = 0; s < names.size(); ++s) {
        if (vectors[s] != nullptr && k < vectors[s]->size()) rows.push_back((*vectors[s])[k]);
      }
      std::size_t appended = 0;
      std::size_t next_row = 0;
      const double s0 = wall_s();
      for (std::size_t s = 0; s < names.size(); ++s) {
        if (scalars[s] != nullptr && k < scalars[s]->size()) {
          fresh.append_at(names[s], time_s, (*scalars[s])[k]);
          ++appended;
        } else if (vectors[s] != nullptr && k < vectors[s]->size()) {
          fresh.append(names[s], std::move(rows[next_row++]));
          ++appended;
        }
      }
      const double s1 = wall_s();
      t.add(s1 - s0, appended);
      cap.spans.add("telemetry.step[" + std::to_string(k + 1) + "]", "telemetry", t.span, s0, s1);
    }
    if (!(fresh == rec)) {
      report.failures.push_back("telemetry replay differs from the exported recorder");
    }
  }
  cap.spans.close(t.span);
}

}  // namespace

LayerReport replay_layers(const Workload& w, Capture& cap, const Repetition& traced,
                          double tracing_overhead_s) {
  const Outcome& outcome = traced.outcome;
  LayerReport report;
  const std::size_t n = cap.steps.size();
  const int replay = cap.spans.open("replay", "bench", cap.root);
  LayerTimes control;
  LayerTimes datacenter;
  LayerTimes consolidate;
  LayerTimes telemetry;
  std::size_t iterations = 0;
  std::size_t nonconverged = 0;
  std::size_t mismatches = 0;
  std::size_t moves = 0;
  // Each layer replays between two reference-kernel timings, as the traced
  // run did, so the shares below compare standard-host times taken tens of
  // seconds apart on a host whose speed drifts.
  const auto between_references = [](LayerTimes& t, const auto& body) {
    const double before = reference_kernel_s();
    body();
    t.ref_s = 0.5 * (before + reference_kernel_s());
  };
  between_references(control, [&] {
    replay_control(w, cap, replay, control, report, iterations, nonconverged, mismatches);
  });
  between_references(datacenter, [&] { replay_datacenter(cap, replay, datacenter); });
  between_references(consolidate, [&] { replay_consolidate(cap, replay, consolidate, moves); });
  between_references(telemetry, [&] { replay_telemetry(w, cap, replay, telemetry, report); });
  cap.spans.close(replay);

  // ---- step-level figures ----
  std::vector<double> step_wall;
  std::vector<double> plain_step_wall;  // steps without an optimizer invocation
  double run_cpu = 0.0;
  double run_wall = 0.0;
  double invocation_wall = 0.0;
  for (const Step& s : cap.steps) {
    const double d = s.end_s - s.start_s;
    step_wall.push_back(d);
    if (!s.invocation) plain_step_wall.push_back(d);
    if (s.invocation) invocation_wall += d;
    run_cpu += s.cpu_s;
    run_wall += d;
  }
  // Shares and the residual in standard-host seconds (reference.hpp).
  const auto standard = [](double host_s, double ref_s) {
    return host_s * kStandardReferenceS / ref_s;
  };
  const double run_cpu_std = standard(run_cpu, traced.ref_s);
  const double control_s = standard(control.total_s, control.ref_s);
  const double datacenter_s = standard(datacenter.total_s, datacenter.ref_s);
  const double consolidate_s = standard(consolidate.total_s, consolidate.ref_s);
  const double telemetry_s = standard(telemetry.total_s, telemetry.ref_s);
  const double residual_s = run_cpu_std - control_s - datacenter_s - consolidate_s - telemetry_s;
  const auto share = [run_cpu_std](double s) {
    return run_cpu_std > 0.0 ? 100.0 * s / run_cpu_std : 0.0;
  };
  const double overload_pct =
      w.trace_driven ? outcome.overload_pct
                     : (cap.active_server_samples == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(cap.overloaded_server_samples) /
                                  static_cast<double>(cap.active_server_samples));
  const auto count = [](std::size_t x) { return static_cast<double>(x); };

  report.metrics = {
      {"core.period_ms_p50", "ms", 1e3 * quantile_of(step_wall, 0.5)},
      {"core.period_ms_p99", "ms", 1e3 * quantile_of(step_wall, 0.99)},
      {"core.sysid_s", "s", cap.sysid_s},
      {"core.construct_s", "s", cap.construct_s},
      {"sim.events", "count", count(cap.events)},
      {"sim.barriers", "count", count(cap.barriers)},
      {"app.requests_completed", "count", count(cap.requests_completed)},
      {"sim_app.residual_ms_per_period", "ms", n == 0 ? 0.0 : 1e3 * residual_s / count(n)},
      {"control.solves", "count", count(control.calls)},
      {"control.solve_us_p50", "us", percentile(cap.spans, control, 0.5, 1e6)},
      {"control.solve_us_p99", "us", percentile(cap.spans, control, 0.99, 1e6)},
      {"control.qp_iterations", "count", count(iterations)},
      {"control.qp_nonconverged", "count", count(nonconverged)},
      {"control.replay_mismatches", "count", count(mismatches)},
      {"control.slo_miss_pct", "%", outcome.slo_miss_pct},
      {"datacenter.arbitrations", "count", count(datacenter.calls)},
      {"datacenter.arbitrate_us_p50", "us", percentile(cap.spans, datacenter, 0.5, 1e6)},
      {"datacenter.sample_ms_p50", "ms", 1e3 * quantile_of(plain_step_wall, 0.5)},
      {"datacenter.migrations", "count", count(cap.migrations)},
      {"consolidate.plans", "count", count(consolidate.calls)},
      {"consolidate.plan_ms_p50", "ms", percentile(cap.spans, consolidate, 0.5, 1e3)},
      {"consolidate.plan_ms_max", "ms", percentile(cap.spans, consolidate, 1.0, 1e3)},
      {"consolidate.moves", "count", count(moves)},
      {"consolidate.invocation_share", "fraction",
       run_wall > 0.0 ? invocation_wall / run_wall : 0.0},
      {"consolidate.overload_pct", "%", overload_pct},
      {"telemetry.appends", "count", count(telemetry.calls)},
      {"telemetry.append_ns_p50", "ns", percentile(cap.spans, telemetry, 0.5, 1e9)},
      {"telemetry.series", "count", count(cap.recorder ? cap.recorder->series_count() : 0)},
      {"telemetry.export_s", "s", cap.export_s},
      {"trace.generate_s", "s", cap.generate_s},
      {"tracing.overhead_s", "s", tracing_overhead_s},
      {"share.control_pct", "%", share(control_s)},
      {"share.datacenter_pct", "%", share(datacenter_s)},
      {"share.consolidate_pct", "%", share(consolidate_s)},
      {"share.telemetry_pct", "%", share(telemetry_s)},
      {"share.residual_pct", "%", share(residual_s)},
  };
  return report;
}

}  // namespace vdcbench
