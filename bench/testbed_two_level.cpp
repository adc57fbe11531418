// Two-level integration on the testbed scale (Section VII-A's second half:
// "We first evaluate the response time controller and examine the power
// optimizer on the hardware testbed").
//
// Eight two-tier applications start scattered across eight servers (twice
// the paper's four) — deliberately wasteful. The data-center-level
// optimizer consolidates the sixteen tier VMs onto fewer machines with
// live-migration semantics (copy + stop-and-copy downtime) while every
// application's MPC keeps its 90-percentile response time at 1000 ms.
//
// Expected shape: cluster power drops sharply after the first optimizer
// invocation; response times stay at the set point apart from sub-second
// migration blips.
//
// The timeline table is reconstructed post-run from the cluster gauges
// (active servers, completed migrations) recorded every control period.
#include <cstdio>

#include "core/testbed.hpp"

int main() {
  using namespace vdc;

  core::TestbedConfig config;
  config.num_servers = 8;  // oversized on purpose
  config.enable_optimizer = true;
  config.optimizer_period_s = 300.0;
  config.optimizer_algorithm = core::ConsolidationAlgorithm::kIpac;
  core::Testbed testbed(config);

  std::printf("# Two-level testbed: 8 apps x 2 tiers on 8 servers, IPAC every 300 s\n");
  std::printf("# model R^2 = %.2f\n\n", testbed.model_r_squared());
  testbed.run_until(1200.0);

  const telemetry::Recorder recorder = testbed.take_recorder();
  const auto& power = recorder.values(core::kPowerSeries);
  const auto& active = recorder.values(core::kActiveServersSeries);
  const auto& migrated = recorder.values(core::kMigrationsCompletedSeries);
  std::printf("%-10s %12s %14s %14s\n", "time(s)", "power (W)", "active srv",
              "migrations");
  for (double t = 100.0; t <= 1200.0; t += 100.0) {
    // One gauge sample per 4 s control period; the tick at `t` is index t/4-1.
    const auto k = static_cast<std::size_t>(t / config.control_period_s) - 1;
    std::printf("%-10.0f %12.1f %14.0f %14.0f\n", t, power[std::min(k, power.size() - 1)],
                active[k], migrated[k]);
  }

  // Power before vs after consolidation.
  const auto avg = [&](std::size_t lo, std::size_t hi) {
    double s = 0.0;
    for (std::size_t k = lo; k < hi && k < power.size(); ++k) s += power[k];
    return s / static_cast<double>(hi - lo);
  };
  const double before = avg(10, 70);    // 40-280 s: pre-consolidation
  const double after = avg(150, 290);   // 600-1160 s: consolidated steady state

  std::printf("\n# response times with the optimizer active (after 400 s settling):\n");
  bool all_tracked = true;
  for (std::size_t i = 0; i < testbed.app_count(); ++i) {
    const util::RunningStats s = core::stats_after(
        recorder.values(core::response_series_name(i)), 400.0, config.control_period_s);
    std::printf("#   app%zu: mean p90 = %4.0f ms (std %3.0f)\n", i + 1,
                s.mean() * 1000.0, s.stddev() * 1000.0);
    all_tracked = all_tracked && std::abs(s.mean() - 1.0) < 0.25;
  }
  const bool power_drops = after < 0.8 * before;
  std::printf("\n# power: %.1f W scattered -> %.1f W consolidated (%.0f%% saving) -> %s\n",
              before, after, 100.0 * (1.0 - after / before),
              power_drops ? "REPRODUCED" : "MISMATCH");
  std::printf("# SLAs maintained through consolidation -> %s\n",
              all_tracked ? "REPRODUCED" : "MISMATCH");
  std::printf("# %zu live migrations, %zu optimizer invocations\n",
              testbed.completed_migrations(), testbed.optimizer_invocations());
  return power_drops && all_tracked ? 0 : 1;
}
