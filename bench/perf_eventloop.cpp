// Event-loop performance regression harness.
//
// Drives an identical closed-loop workload — N clients cycling through a
// processor-sharing queue with heavy-tailed demands and exponential think
// times — through both the optimized engine (sim::Simulation slab +
// dual-mode sim::PsQueue) and the retained naive reference
// (sim::naive::*), and reports throughput for each at 1k / 10k / 100k
// resident jobs. Results are written as machine-readable JSON
// (BENCH_eventloop.json) so CI can gate on regressions.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "oracles/sim/naive.hpp"
#include "sim/ps_queue.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace {

using vdc::cli::Json;

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t completions = 0;
  double wall_s = 0.0;

  [[nodiscard]] double events_per_sec() const { return static_cast<double>(events) / wall_s; }
  [[nodiscard]] double ns_per_event() const {
    return wall_s * 1e9 / static_cast<double>(events);
  }
  [[nodiscard]] double requests_per_sec() const {
    return static_cast<double>(completions) / wall_s;
  }
};

/// Runs the closed-loop workload on any engine exposing the shared
/// Simulation/PsQueue API. The Rng draw sequence is a pure function of the
/// completion order, which both engines reproduce identically, so the two
/// measurements execute the same logical event sequence.
template <typename Sim, typename Queue>
RunResult run_closed_loop(std::size_t n_jobs, std::uint64_t target_completions) {
  Sim sim;
  vdc::util::Rng rng(0xbadc0ffee0ddf00dull);
  std::uint64_t completions = 0;

  auto demand = [&rng]() { return rng.bounded_pareto(1.5, 0.05, 5.0); };

  Queue* queue_ptr = nullptr;
  Queue queue(sim, 2.4, [&](std::uint64_t /*job*/) {
    ++completions;
    if (completions >= target_completions) return;
    const double think = rng.exponential(0.01);
    sim.schedule_after(think, [&] { queue_ptr->add_job(demand()); });
  });
  queue_ptr = &queue;

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_jobs; ++i) queue.add_job(demand());
  while (completions < target_completions && sim.step()) {
  }
  const auto t1 = std::chrono::steady_clock::now();

  RunResult out;
  out.events = sim.events_executed();
  out.completions = completions;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (out.wall_s <= 0.0) out.wall_s = 1e-9;  // clock granularity floor
  return out;
}

Json run_json(const RunResult& r) {
  return Json::object({{"events", r.events}, {"completions", r.completions}, {"wall_s", r.wall_s},
                       {"events_per_sec", r.events_per_sec()}, {"ns_per_event", r.ns_per_event()},
                       {"requests_per_sec", r.requests_per_sec()}});
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool full_naive = false;
  std::string out_path = "BENCH_eventloop.json";
  double min_speedup = 0.0;
  vdc::cli::Parser("perf_eventloop [options]")
      .flag("--quick", quick, "smaller completion targets, skip the 100k size (CI smoke)")
      .flag("--full-naive", full_naive, "also run the naive engine at 100k jobs (minutes)")
      .option("--out", out_path, "PATH", "JSON report path (default BENCH_eventloop.json)")
      .option("--min-speedup", min_speedup, "X",
              "exit 1 if optimized/naive events/sec at 10k jobs is below X (0 disables)")
      .parse(argc, argv);

  std::vector<std::size_t> sizes = {1000, 10000, 100000};
  if (quick) sizes.pop_back();

  std::printf("# perf_eventloop: optimized engine vs retained naive reference\n");
  std::printf("%-8s %-10s %14s %12s %14s\n", "jobs", "engine", "events/sec", "ns/event",
              "requests/sec");

  Json runs = Json::array();
  double speedup_at_10k = 0.0;
  for (const std::size_t n : sizes) {
    // Enough completions to amortize warm-up but bounded so the naive
    // engine's O(n)-per-event sync stays tolerable at 10k jobs.
    const std::uint64_t target = quick ? n : 2 * n;
    const RunResult opt = run_closed_loop<vdc::sim::Simulation, vdc::sim::PsQueue>(n, target);
    std::printf("%-8zu %-10s %14.0f %12.1f %14.1f\n", n, "optimized", opt.events_per_sec(),
                opt.ns_per_event(), opt.requests_per_sec());

    // The naive engine at 100k jobs walks 100k residuals per event; that run
    // takes minutes and is opt-in.
    const bool run_naive = n < 100000 || full_naive;
    RunResult naive;
    if (run_naive) {
      naive =
          run_closed_loop<vdc::sim::naive::Simulation, vdc::sim::naive::PsQueue>(n, target);
      std::printf("%-8zu %-10s %14.0f %12.1f %14.1f\n", n, "naive", naive.events_per_sec(),
                  naive.ns_per_event(), naive.requests_per_sec());
    }

    const double speedup = run_naive ? opt.events_per_sec() / naive.events_per_sec() : 0.0;
    if (run_naive) std::printf("%-8zu %-10s %13.2fx\n", n, "speedup", speedup);
    if (n == 10000) speedup_at_10k = speedup;

    Json row = Json::object({{"jobs", n}, {"optimized", run_json(opt)}});
    row.set("naive", run_naive ? run_json(naive) : Json());
    if (run_naive) row.set("speedup", speedup);
    runs.push(std::move(row));
  }

  Json report = vdc::cli::bench_report("perf_eventloop", quick);
  report.set("sizes", runs).set("speedup_at_10k", speedup_at_10k);
  if (const int rc = vdc::cli::write_report(out_path, report); rc != 0) return rc;

  if (min_speedup > 0.0 && speedup_at_10k < min_speedup) {
    std::fprintf(stderr, "REGRESSION: speedup at 10k jobs %.2fx < required %.2fx\n",
                 speedup_at_10k, min_speedup);
    return 1;
  }
  return 0;
}
