// Surge control: the paper's Figure-3 scenario as a narrative example.
//
// Eight two-tier applications run on a four-server virtualized testbed,
// each under its own MPC response-time controller. At t=600 s the workload
// of App5 doubles ("breaking news"); the controller re-allocates CPU to
// its two VMs and the 90-percentile response time converges back to the
// 1000 ms SLA, while cluster power rises only slightly.
//
//   ./build/examples/surge_control
#include <cstdio>

#include "core/testbed.hpp"

int main() {
  using namespace vdc;

  core::TestbedConfig config;  // 8 apps, 4 servers, 1000 ms set point
  std::printf("building testbed (8 apps x 2 tiers on 4 servers) ...\n");
  core::Testbed testbed(config);
  std::printf("identified shared ARX model, R^2 = %.2f\n\n", testbed.model_r_squared());

  constexpr std::size_t kApp5 = 4;
  testbed.run_until(600.0);
  testbed.set_concurrency(kApp5, 80);  // App5's workload doubles
  testbed.run_until(1200.0);
  testbed.set_concurrency(kApp5, 40);  // and returns to normal
  testbed.run_until(1500.0);

  // The run is over: read its series once, every 100 s.
  const telemetry::Recorder recorder = testbed.take_recorder();
  const auto& rt = recorder.values(core::response_series_name(kApp5));
  const auto& power = recorder.values(core::kPowerSeries);
  const auto& alloc = recorder.rows(core::allocation_series_name(kApp5));
  std::printf("%8s %16s %14s %16s\n", "time(s)", "App5 p90 (ms)", "power (W)",
              "App5 CPU (GHz)");
  const auto report = [&](double t) {
    // One sample per control period; the tick at `t` is index t/period - 1.
    const auto k = static_cast<std::size_t>(t / config.control_period_s) - 1;
    std::printf("%8.0f %16.0f %14.1f %10.2f+%.2f\n", t, rt[k] * 1000.0, power[k], alloc[k][0],
                alloc[k][1]);
  };

  for (double t = 100.0; t <= 600.0; t += 100.0) report(t);
  std::printf("--- workload of App5 doubles (concurrency 40 -> 80) ---\n");
  for (double t = 700.0; t <= 1200.0; t += 100.0) report(t);
  std::printf("--- workload returns to normal ---\n");
  for (double t = 1300.0; t <= 1500.0; t += 100.0) report(t);

  std::printf("\nsteady-state summary (after the first 100 s):\n");
  for (std::size_t i = 0; i < testbed.app_count(); ++i) {
    const util::RunningStats s = core::stats_after(recorder.values(core::response_series_name(i)),
                                                   100.0, config.control_period_s);
    std::printf("  app%zu: mean p90 = %4.0f ms (std %3.0f)\n", i + 1, s.mean() * 1000.0,
                s.stddev() * 1000.0);
  }
  return 0;
}
