#include "app/queueing.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "check/app_audit.hpp"

namespace vdc::app {

namespace {

void validate(const ClosedNetwork& network) {
  if (network.service_demands_s.empty()) {
    throw std::invalid_argument("ClosedNetwork: service_demands_s is empty (no stations)");
  }
  if (!(network.think_time_s >= 0.0) || !std::isfinite(network.think_time_s)) {
    throw std::invalid_argument("ClosedNetwork: think_time_s must be >= 0 and finite");
  }
  for (std::size_t i = 0; i < network.service_demands_s.size(); ++i) {
    const double d = network.service_demands_s[i];
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw std::invalid_argument("ClosedNetwork: service_demands_s[" + std::to_string(i) +
                                  "] must be positive and finite");
    }
  }
}

void validate_clients(std::size_t clients) {
  if (clients > kMaxMvaClients) {
    throw std::invalid_argument("exact_mva: clients " + std::to_string(clients) +
                                " exceeds the limit of " + std::to_string(kMaxMvaClients));
  }
}

}  // namespace

MvaResult exact_mva(const ClosedNetwork& network, std::size_t clients) {
  validate(network);
  validate_clients(clients);
  const std::size_t m = network.service_demands_s.size();
  MvaResult result;
  result.stations.assign(m, MvaStation{});
  if (clients == 0) return result;

  // Exact MVA recursion over the population (Reiser & Lavenberg):
  //   R_i(n) = D_i (1 + Q_i(n-1))     [PS station]
  //   X(n)   = n / (Z + sum R_i(n))
  //   Q_i(n) = X(n) R_i(n)
  std::vector<double> queue(m, 0.0);
  double throughput = 0.0;
  std::vector<double> residence(m, 0.0);
  for (std::size_t n = 1; n <= clients; ++n) {
    double total = network.think_time_s;
    for (std::size_t i = 0; i < m; ++i) {
      residence[i] = network.service_demands_s[i] * (1.0 + queue[i]);
      total += residence[i];
    }
    throughput = static_cast<double>(n) / total;
    for (std::size_t i = 0; i < m; ++i) queue[i] = throughput * residence[i];
  }

  result.throughput_rps = throughput;
  for (std::size_t i = 0; i < m; ++i) {
    result.stations[i].residence_time_s = residence[i];
    result.stations[i].queue_length = queue[i];
    result.stations[i].utilization = throughput * network.service_demands_s[i];
    result.response_time_s += residence[i];
  }
  audit::mva_result(result, clients, network.think_time_s);
  return result;
}

double throughput_upper_bound(const ClosedNetwork& network, std::size_t clients) {
  validate(network);
  double sum = network.think_time_s;
  double bottleneck = 0.0;
  for (const double d : network.service_demands_s) {
    sum += d;
    bottleneck = std::max(bottleneck, d);
  }
  return std::min(static_cast<double>(clients) / sum, 1.0 / bottleneck);
}

double response_time_capacity_scale(const ClosedNetwork& network, std::size_t clients,
                                        double target_s) {
  validate(network);
  validate_clients(clients);
  if (!(target_s > 0.0)) {
    throw std::invalid_argument("response_time_capacity_scale: target must be positive");
  }
  if (exact_mva(network, clients).response_time_s <= target_s) return 1.0;

  // Response time is monotone decreasing in the scale factor; bisect.
  const auto response_at = [&](double scale) {
    ClosedNetwork scaled = network;
    for (double& d : scaled.service_demands_s) d /= scale;
    return exact_mva(scaled, clients).response_time_s;
  };
  double lo = 1.0;
  double hi = 2.0;
  while (response_at(hi) > target_s) {
    hi *= 2.0;
    if (hi > 1e9) {
      throw std::invalid_argument("response_time_capacity_scale: target unreachable");
    }
  }
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-9 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (response_at(mid) > target_s ? lo : hi) = mid;
  }
  return hi;
}

double mg1_ps_response_time_s(double arrival_rate_rps, double service_time_s) {
  if (arrival_rate_rps < 0.0 || !(service_time_s > 0.0)) {
    throw std::invalid_argument("mg1_ps_response_time_s: invalid inputs");
  }
  const double rho = arrival_rate_rps * service_time_s;
  if (rho >= 1.0) {
    throw std::invalid_argument("mg1_ps_response_time_s: unstable queue (rho >= 1)");
  }
  return service_time_s / (1.0 - rho);
}

}  // namespace vdc::app
