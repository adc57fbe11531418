// Sharded-engine performance and bit-identity harness.
//
// Three presets, mirroring bench/perf_consolidation's JSON contract
// (BENCH_sharding.json, machine-readable for CI gates):
//
//   identity   small two-level testbed run at shard counts {2,8}: every
//              telemetry export must be byte-identical to the default
//              single-shard run (itself pinned to committed goldens by
//              tests/test_sharding.cpp). This is the hard gate — a perf
//              bench that drifts from the reference measures a different
//              program.
//   speedup    a wider testbed (64 apps) at a fixed shard count, advanced
//              with 1 worker thread vs more: SELF-speedup of the identical
//              workload, so the ratio isolates the parallel shard advance
//              (results are verified equal to the single-shard run). The JSON
//              records hardware_concurrency — on a single-core runner the
//              honest answer is ~1x and the number documents exactly that.
//   fleet      bounded-memory completion at fleet scale (default 100k
//              servers hosting 500k VMs = 50k two-tier apps x 5 replicas,
//              low per-app concurrency, a few control periods): the gate is
//              that the run completes and peak RSS stays under the bound,
//              scaling knobs exposed for larger machines.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "app/multi_tier_app.hpp"
#include "cli/cli.hpp"
#include "core/sysid_experiment.hpp"
#include "core/testbed.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace vdc;
using cli::Json;

double peak_rss_gb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // KiB -> GiB
}

const control::ArxModel& shared_model() {
  static const core::SysIdExperimentResult identified = [] {
    core::SysIdExperimentConfig sysid;
    sysid.periods = 120;
    return core::identify_app_model(app::default_two_tier_app("bench", 4242, 40), sysid);
  }();
  return identified.model;
}

core::TestbedConfig base_config(std::size_t apps, std::size_t servers, std::size_t shards,
                                std::size_t threads) {
  core::TestbedConfig config;
  config.num_apps = apps;
  config.num_servers = servers;
  config.seed = 7;
  config.model = shared_model();
  config.shards = shards;
  config.shard_threads = threads;
  return config;
}

struct RunOutcome {
  std::string csv;
  double construct_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t barriers = 0;
  std::size_t migrations = 0;

  [[nodiscard]] double events_per_sec() const {
    return run_s <= 0.0 ? 0.0 : static_cast<double>(events) / run_s;
  }
};

RunOutcome run_testbed(const core::TestbedConfig& config, double duration_s,
                       bool want_csv = true) {
  RunOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  core::Testbed testbed(config);
  const auto t1 = std::chrono::steady_clock::now();
  testbed.run_until(duration_s);
  const auto t2 = std::chrono::steady_clock::now();
  out.construct_s = std::chrono::duration<double>(t1 - t0).count();
  out.run_s = std::chrono::duration<double>(t2 - t1).count();
  out.events = testbed.engine().events_executed();
  out.barriers = testbed.engine().barriers();
  out.migrations = testbed.completed_migrations();
  if (want_csv) out.csv = telemetry::to_csv(testbed.take_recorder());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool skip_fleet = false;
  std::string out_path = "BENCH_sharding.json";
  double min_speedup = 0.0;
  std::size_t fleet_apps = 50000;
  std::size_t fleet_servers = 100000;
  double fleet_duration_s = 12.0;
  double fleet_memory_gb = 32.0;
  cli::Parser("perf_sharding [options]")
      .flag("--quick", quick, "identity preset only (CI smoke)")
      .option("--out", out_path, "PATH", "JSON report path (default BENCH_sharding.json)")
      .option("--min-speedup", min_speedup, "X",
              "exit 1 if the best self-speedup is below X (0 disables; meaningless on 1 core)")
      .option("--fleet-apps", fleet_apps, "N", "fleet preset application count (default 50000)")
      .option("--fleet-servers", fleet_servers, "N",
              "fleet preset server count (default 100000)")
      .option("--fleet-duration", fleet_duration_s, "S",
              "fleet preset simulated seconds (default 12)")
      .option("--fleet-memory-gb", fleet_memory_gb, "X",
              "fleet peak-RSS bound in GiB (default 32)")
      .flag("--skip-fleet", skip_fleet, "omit the fleet preset")
      .parse(argc, argv);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("# perf_sharding: parallel shard advance vs the single-shard reference "
              "(hardware_concurrency=%u)\n", hw);

  Json report = cli::bench_report("perf_sharding", quick);
  bool identity_ok = true;

  // ---- identity preset ------------------------------------------------------
  {
    core::TestbedConfig reference_config = base_config(8, 4, 1, 0);
    reference_config.enable_optimizer = true;
    reference_config.optimizer_period_s = 120.0;
    const double duration_s = 400.0;
    const RunOutcome reference = run_testbed(reference_config, duration_s);
    std::printf("%-10s shards=%-5d %10.3fs %12llu events %8zu migrations\n", "identity", 1,
                reference.run_s, static_cast<unsigned long long>(reference.events),
                reference.migrations);
    Json matches = Json::array();
    for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
      core::TestbedConfig config = reference_config;
      config.shards = shards;
      config.shard_threads = std::min<std::size_t>(hw, shards);
      const RunOutcome sharded = run_testbed(config, duration_s);
      const bool match = sharded.csv == reference.csv;
      identity_ok = identity_ok && match;
      std::printf("%-10s shards=%-5zu %10.3fs %12llu events   identical=%s\n", "identity",
                  shards, sharded.run_s, static_cast<unsigned long long>(sharded.events),
                  match ? "yes" : "NO");
      matches.push(match);
    }
    report.set("identity", Json::object({{"duration_s", duration_s},
                                         {"shard_counts", Json::array({2, 8})},
                                         {"matches", matches}}));
  }

  // ---- self-speedup preset --------------------------------------------------
  double best_speedup = 0.0;
  if (!quick) {
    core::TestbedConfig spec = base_config(64, 16, 8, 1);
    spec.enable_optimizer = true;
    spec.optimizer_period_s = 60.0;
    const double duration_s = 120.0;

    core::TestbedConfig reference_config = spec;
    reference_config.shards = 1;
    reference_config.shard_threads = 0;
    const RunOutcome reference = run_testbed(reference_config, duration_s);

    std::vector<std::size_t> thread_counts = {1, 2, hw};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                        thread_counts.end());

    Json runs = Json::array();
    double wall_at_1 = 0.0;
    for (const std::size_t threads : thread_counts) {
      core::TestbedConfig config = spec;
      config.shard_threads = threads;
      const RunOutcome run = run_testbed(config, duration_s);
      const bool match = run.csv == reference.csv;
      identity_ok = identity_ok && match;
      if (threads == 1) wall_at_1 = run.run_s;
      const double self_speedup = run.run_s <= 0.0 ? 0.0 : wall_at_1 / run.run_s;
      best_speedup = std::max(best_speedup, self_speedup);
      std::printf("%-10s threads=%-4zu %10.3fs %12.0f events/s  self-speedup=%5.2fx  "
                  "identical=%s\n", "speedup", threads, run.run_s, run.events_per_sec(),
                  self_speedup, match ? "yes" : "NO");
      runs.push(Json::object({{"threads", threads}, {"run_s", run.run_s},
                              {"events_per_sec", run.events_per_sec()},
                              {"self_speedup", self_speedup}, {"identical", match}}));
    }
    report.set("speedup", Json::object({{"apps", spec.num_apps}, {"servers", spec.num_servers},
                                        {"shards", spec.shards}, {"duration_s", duration_s},
                                        {"runs", runs}, {"best_self_speedup", best_speedup}}));
  }

  // ---- fleet preset ---------------------------------------------------------
  bool fleet_ok = true;
  if (!quick && !skip_fleet) {
    core::TestbedConfig config = base_config(fleet_apps, fleet_servers, 256, 0);
    config.concurrency = 2;       // light per-app load: scale stresses counts, not queues
    config.initial_replicas = 5;  // 2 tiers x 5 replicas x apps = the VM fleet
    const RunOutcome fleet = run_testbed(config, fleet_duration_s, /*want_csv=*/false);
    const double rss_gb = peak_rss_gb();
    const std::size_t vms = fleet_apps * 2 * 5;
    fleet_ok = rss_gb <= fleet_memory_gb;
    std::printf("%-10s %zu servers / %zu VMs: construct %.1fs, run %.1fs, "
                "%llu events, peak RSS %.2f GiB (bound %.0f)\n", "fleet", fleet_servers,
                vms, fleet.construct_s, fleet.run_s,
                static_cast<unsigned long long>(fleet.events), rss_gb, fleet_memory_gb);
    report.set("fleet", Json::object({{"servers", fleet_servers}, {"apps", fleet_apps},
                                      {"vms", vms}, {"duration_s", fleet_duration_s},
                                      {"construct_s", fleet.construct_s}, {"run_s", fleet.run_s},
                                      {"events", fleet.events},
                                      {"events_per_sec", fleet.events_per_sec()},
                                      {"peak_rss_gb", rss_gb}, {"rss_bound_gb", fleet_memory_gb},
                                      {"within_memory_bound", fleet_ok}}));
  }

  report.set("identity_ok", identity_ok);
  if (const int rc = cli::write_report(out_path, report); rc != 0) return rc;

  if (!identity_ok) {
    std::fprintf(stderr, "REGRESSION: sharded telemetry diverged from the single-shard "
                 "reference\n");
    return 1;
  }
  if (!fleet_ok) {
    std::fprintf(stderr, "REGRESSION: fleet preset exceeded the peak-RSS bound\n");
    return 1;
  }
  if (min_speedup > 0.0 && best_speedup < min_speedup) {
    std::fprintf(stderr, "REGRESSION: best self-speedup %.2fx < required %.2fx\n",
                 best_speedup, min_speedup);
    return 1;
  }
  return 0;
}
