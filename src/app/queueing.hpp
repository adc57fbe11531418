// Analytic queueing models for multi-tier applications.
//
// The simulated testbed is a closed network of processor-sharing stations
// (one per tier) with an exponential think-time terminal. That is a BCMP
// product-form network, so exact Mean Value Analysis applies — and because
// PS stations are insensitive to the service-time distribution beyond its
// mean, MVA predicts the DES's *mean* response time even under the
// heavy-tailed demands the simulator draws. Used for capacity planning
// (how much CPU does a target response time need?) and as an independent
// oracle in the test suite.
#pragma once

#include <cstddef>
#include <vector>

namespace vdc::app {

/// A closed queueing network: N clients with exponential think time cycle
/// through processor-sharing stations in series.
struct ClosedNetwork {
  double think_time_s = 1.0;
  /// Mean service demand per visit at each station (seconds at the
  /// station's current capacity): demand_gcycles / allocation_ghz.
  std::vector<double> service_demands_s;
};

struct MvaStation {
  double residence_time_s = 0.0;  ///< mean time per visit (queueing included)
  double queue_length = 0.0;      ///< mean number of requests at the station
  double utilization = 0.0;       ///< fraction of time busy
};

struct MvaResult {
  double throughput_rps = 0.0;       ///< X(N)
  double response_time_s = 0.0;      ///< sum of residence times (think excluded)
  std::vector<MvaStation> stations;  ///< per-station detail
};

/// Largest population exact MVA accepts. The recursion visits every
/// population 1..N, O(N x stations): a million clients is well under a
/// second, while an unbounded N (say 1e10 from a command line) would run
/// for hours. Capacity scaling solves MVA ~200 times at the same N.
inline constexpr std::size_t kMaxMvaClients = 1'000'000;

/// Exact MVA for the closed PS network with `clients` customers.
/// Throws std::invalid_argument, naming the field, on an empty station
/// list, a negative or non-finite think time, a service demand that is not
/// positive and finite, or more than kMaxMvaClients clients.
[[nodiscard]] MvaResult exact_mva(const ClosedNetwork& network, std::size_t clients);

/// Asymptotic bounds (Denning & Buzen): X(N) <= min(N/(Z+sum D), 1/max D).
[[nodiscard]] double throughput_upper_bound(const ClosedNetwork& network,
                                            std::size_t clients);

/// Capacity planning: the uniform scale factor s >= 1 on all station
/// capacities (i.e. demands divided by s) needed for the mean response
/// time to reach `target_s` with `clients` customers. Returns 1.0 when the
/// target is already met; throws std::invalid_argument when the target is
/// not achievable (<= 0) or inputs are invalid (as for exact_mva).
[[nodiscard]] double response_time_capacity_scale(const ClosedNetwork& network,
                                                      std::size_t clients,
                                                      double target_s);

/// Mean response time of an open M/G/1-PS queue with arrival rate lambda
/// and mean service time s (insensitive to the service distribution):
/// R = s / (1 - lambda*s). Throws when the queue is unstable (rho >= 1).
[[nodiscard]] double mg1_ps_response_time_s(double arrival_rate_rps, double service_time_s);

}  // namespace vdc::app
