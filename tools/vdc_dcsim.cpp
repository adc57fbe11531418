// vdc_dcsim — run a trace-driven data-center power simulation from the
// command line (the Section VI-B environment as a tool).
//
// Without --trace a synthetic trace is generated (seeded, reproducible).
// Prints the energy/migration/SLA summary; --power-csv dumps the cluster
// power series for plotting.
#include <cstdio>
#include <fstream>
#include <string>

#include "cli/cli.hpp"
#include "core/trace_sim.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace vdc;
  using core::ConsolidationAlgorithm;
  using Forecast = core::TraceSimConfig::Forecast;

  core::TraceSimConfig config;
  config.num_vms = 500;
  std::string trace_path;
  std::string power_csv;
  bool no_dvfs = false;
  double period_hours = config.consolidation_period_s / 3600.0;
  cli::Parser("vdc_dcsim [options]")
      .option("--vms", config.num_vms, "N", "VMs to simulate (default 500)")
      .choice("--algorithm", config.algorithm,
              {{"ipac", ConsolidationAlgorithm::kIpac},
               {"pmapper", ConsolidationAlgorithm::kPMapper},
               {"none", ConsolidationAlgorithm::kNone}},
              "consolidation algorithm (default ipac)")
      .flag("--no-dvfs", no_dvfs, "disable DVFS: servers run at full frequency")
      .option("--period-hours", period_hours, "H", "consolidation period, hours (default 4)")
      .flag("--guard", config.on_demand_overload_guard, "enable the on-demand overload guard")
      .choice("--forecast", config.forecast,
              {{"none", Forecast::kNone},
               {"recent", Forecast::kRecentPeak},
               {"diurnal", Forecast::kDiurnalPeak}},
              "demand forecast the optimizer packs against (default none)")
      .option("--trace", trace_path, "FILE", "utilization trace CSV (default: synthetic)")
      .option("--pool", config.pool_size, "N", "server pool size (default 3000)")
      .option("--seed", config.seed, "S", "simulator seed (default 42)")
      .option("--target", config.utilization_target, "U",
              "per-server utilization target (default 0.8)")
      .option("--power-csv", power_csv, "FILE", "write the cluster power series here")
      .parse(argc, argv);
  if (no_dvfs) config.dvfs = false;
  config.consolidation_period_s = period_hours * 3600.0;

  try {
    trace::UtilizationTrace trace = [&] {
      if (!trace_path.empty()) return trace::read_trace_csv_file(trace_path);
      trace::SyntheticTraceOptions options;
      options.servers = std::max<std::size_t>(config.num_vms, 1);
      return trace::generate_synthetic_trace(options);
    }();
    if (config.num_vms > trace.server_count()) {
      std::fprintf(stderr, "error: --vms %zu exceeds trace series count %zu\n",
                   config.num_vms, trace.server_count());
      return 1;
    }

    std::fprintf(stderr, "simulating %zu VMs over %.1f days, %s%s, period %.1f h ...\n",
                 config.num_vms, trace.duration_s() / 86400.0,
                 core::to_string(config.algorithm).c_str(),
                 config.dvfs ? " + DVFS" : " (no DVFS)",
                 config.consolidation_period_s / 3600.0);
    const core::TraceDrivenSimulator simulator(trace);
    const core::TraceSimResult result = simulator.run(config);

    std::printf("energy total        : %.1f kWh\n", result.total_energy_wh / 1000.0);
    std::printf("energy per VM       : %.1f Wh\n", result.energy_wh_per_vm);
    std::printf("optimizer runs      : %zu\n", result.optimizer_invocations);
    std::printf("migrations          : %zu\n", result.migrations);
    std::printf("guard migrations    : %zu\n", result.guard_migrations);
    std::printf("server wakes        : %zu\n", result.server_wakes);
    std::printf("peak active servers : %zu\n", result.peak_active_servers);
    std::printf("final active servers: %zu\n", result.final_active_servers);
    std::printf("overload fraction   : %.2f%%\n", 100.0 * result.overload_fraction);

    if (!power_csv.empty()) {
      std::ofstream out(power_csv);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", power_csv.c_str());
        return 1;
      }
      util::CsvWriter writer(out, {"sample", "time_s", "power_w"});
      for (std::size_t k = 0; k < result.power_series_w.size(); ++k) {
        writer.row(std::vector<double>{static_cast<double>(k),
                                       static_cast<double>(k) * trace.sample_period_s(),
                                       result.power_series_w[k]});
      }
      std::fprintf(stderr, "wrote power series to %s\n", power_csv.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
