// vdc_capacity — analytic capacity planning for a multi-tier application.
//
// Demands are per-tier mean CPU costs in Gcycles/request; allocations in
// GHz. Uses exact MVA on the closed PS network (the same model the DES
// testbed realizes) to report throughput, response time, per-tier
// utilization — and, with --target, the uniform capacity scale needed to
// reach a response-time goal.
#include <cstdio>
#include <string>
#include <vector>

#include "app/queueing.hpp"
#include "cli/cli.hpp"

int main(int argc, char** argv) {
  using namespace vdc::app;

  std::vector<double> demands_gcycles;
  std::vector<double> allocations_ghz;
  std::size_t clients = 40;
  double think_s = 1.0;
  double target_s = 0.0;
  vdc::cli::Parser parser("vdc_capacity --demands D1,D2[,...] --alloc C1,C2[,...] [options]");
  parser
      .option("--demands", demands_gcycles, "D1,D2,...",
              "per-tier mean CPU cost, Gcycles/request (required)")
      .option("--alloc", allocations_ghz, "C1,C2,...", "per-tier CPU allocation, GHz (required)")
      .option("--clients", clients, "N", "closed-loop client population (default 40)")
      .option("--think", think_s, "Z_s", "mean think time, seconds (default 1)")
      .option("--target", target_s, "R_s",
              "response-time goal: report the capacity scale reaching it")
      .parse(argc, argv);
  if (demands_gcycles.empty()) parser.fail("--demands: missing (required)");
  if (allocations_ghz.size() != demands_gcycles.size()) {
    parser.fail("--alloc: needs one value per --demands entry");
  }
  // Exact MVA walks every population up to --clients.
  if (clients > kMaxMvaClients) {
    parser.fail("--clients: at most " + std::to_string(kMaxMvaClients) + " (exact MVA limit)");
  }
  // A zero allocation makes the tier's service demand infinite.
  for (const double c : allocations_ghz) {
    if (c <= 0.0) parser.fail("--alloc: every allocation must be > 0");
  }

  try {
    ClosedNetwork network;
    network.think_time_s = think_s;
    for (std::size_t i = 0; i < demands_gcycles.size(); ++i) {
      network.service_demands_s.push_back(demands_gcycles[i] / allocations_ghz[i]);
    }
    const MvaResult r = exact_mva(network, clients);
    std::printf("clients %zu, think %.2f s\n", clients, think_s);
    std::printf("throughput     : %.2f req/s (bound %.2f)\n", r.throughput_rps,
                throughput_upper_bound(network, clients));
    std::printf("response time  : %.1f ms\n", r.response_time_s * 1000.0);
    for (std::size_t i = 0; i < r.stations.size(); ++i) {
      std::printf("tier %zu         : residence %.1f ms, queue %.2f, util %.0f%%\n", i + 1,
                  r.stations[i].residence_time_s * 1000.0, r.stations[i].queue_length,
                  100.0 * r.stations[i].utilization);
    }
    if (target_s > 0.0) {
      const double scale = response_time_capacity_scale(network, clients, target_s);
      std::printf("to reach %.0f ms : scale every allocation by %.3f ->", target_s * 1000.0,
                  scale);
      for (const double c : allocations_ghz) std::printf(" %.3f", c * scale);
      std::printf(" GHz\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
