// Chaos-recovery demonstration: the two-level controller under a scripted
// fault campaign. Three fault windows open and close over a 1200 s run:
//
//   [  0, 300)  every live migration aborts at end-of-copy — the optimizer
//               notes each failure, backs the VM off, and re-plans against
//               the realized placement once the window clears;
//   [150, 350)  server 0 crashes (while the abort window still pins its
//               VMs in place) — its VMs are evicted, the optimizer
//               restarts them elsewhere, and the box is repaired cold;
//   [700, 800)  app 0's sensor pipeline goes stale — its MPC degrades to a
//               hold (frozen allocation) instead of chasing ghost data.
//
// Expected shape: consolidation is *delayed*, not prevented; every SLA is
// re-attained after the last window clears; the whole story is legible in
// the telemetry annotations.
#include <cmath>
#include <cstdio>

#include "core/testbed.hpp"
#include "telemetry/export.hpp"

int main() {
  using namespace vdc;

  core::TestbedConfig config;
  config.num_apps = 4;
  config.num_servers = 6;  // oversized so consolidation has work to do
  config.enable_optimizer = true;
  config.optimizer_period_s = 120.0;
  config.optimizer_migration_backoff_s = 150.0;
  config.faults.migration_aborts(0.0, 300.0, 1.0)
      .server_crash(0, 150.0, 350.0)
      .sensor_stale(700.0, 800.0, 0);
  core::Testbed testbed(config);

  std::printf("# Chaos recovery: 4 apps x 2 tiers on 6 servers, IPAC every 120 s\n");
  std::printf("# faults: migration aborts [0,300), srv0 crash [150,350), "
              "app0 sensor stale [700,800)\n\n");
  testbed.run_until(1200.0);

  const telemetry::Recorder recorder = testbed.take_recorder();
  const auto& power = recorder.values(core::kPowerSeries);
  const auto& active = recorder.values(core::kActiveServersSeries);
  const auto& migrated = recorder.values(core::kMigrationsCompletedSeries);
  const auto& failed = recorder.values(core::kFailedMigrationsSeries);
  std::printf("%-10s %12s %12s %12s %12s\n", "time(s)", "power (W)", "active srv",
              "migrations", "failed migr");
  for (double t = 100.0; t <= 1200.0; t += 100.0) {
    // One gauge sample per 4 s control period; the tick at `t` is index t/4-1.
    const auto k = static_cast<std::size_t>(t / config.control_period_s) - 1;
    std::printf("%-10.0f %12.1f %12.0f %12.0f %12.0f\n", t,
                power[std::min(k, power.size() - 1)], active[k], migrated[k], failed[k]);
  }

  std::printf("\n# fault annotations (the recovery story, verbatim):\n");
  for (const telemetry::Annotation& a : recorder.annotations()) {
    std::printf("#   @%6.0f s  %s\n", a.time_s, a.label.c_str());
  }

  const fault::FaultCounters& counters = testbed.fault_injector().counters();
  std::size_t stale_holds = 0;
  for (std::size_t i = 0; i < testbed.app_count(); ++i) {
    if (const core::ResponseTimeController* c = testbed.app_stack(i).controller()) {
      stale_holds += c->stale_holds();
    }
  }

  std::printf("\n# response times after the last fault window clears (t > 900 s):\n");
  bool all_tracked = true;
  for (std::size_t i = 0; i < testbed.app_count(); ++i) {
    const util::RunningStats s = core::stats_after(
        recorder.values(core::response_series_name(i)), 900.0, config.control_period_s);
    std::printf("#   app%zu: mean p90 = %4.0f ms (std %3.0f)\n", i + 1,
                s.mean() * 1000.0, s.stddev() * 1000.0);
    all_tracked = all_tracked && std::abs(s.mean() - 1.0) < 0.3;
  }

  const bool optimizer_replanned =
      testbed.failed_migrations() > 0 && testbed.completed_migrations() > 0;
  const bool crash_recovered = counters.server_crashes == 1 && testbed.vm_restarts() > 0;
  const bool mpc_held = stale_holds > 0;
  const bool consolidated = !active.empty() && active.back() < static_cast<double>(config.num_servers);

  std::printf("\n# %zu migrations aborted, %zu completed after retry -> %s\n",
              testbed.failed_migrations(), testbed.completed_migrations(),
              optimizer_replanned ? "OPTIMIZER RE-PLANNED" : "MISMATCH");
  std::printf("# srv0 crash evicted VMs, %zu restarted elsewhere -> %s\n",
              testbed.vm_restarts(), crash_recovered ? "RECOVERED" : "MISMATCH");
  std::printf("# app0 stale sensor: %zu MPC hold periods -> %s\n", stale_holds,
              mpc_held ? "GRACEFUL DEGRADATION" : "MISMATCH");
  std::printf("# %.0f of %zu servers active at the end -> %s\n", active.back(),
              config.num_servers, consolidated ? "STILL CONSOLIDATED" : "MISMATCH");
  std::printf("# SLAs re-attained after the chaos -> %s\n",
              all_tracked ? "REPRODUCED" : "MISMATCH");
  return optimizer_replanned && crash_recovered && mpc_held && consolidated && all_tracked
             ? 0
             : 1;
}
