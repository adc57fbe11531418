#include "reference.hpp"

#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace vdcbench {

double reference_kernel_s() {
  constexpr int kEvents = 300000;
  std::mt19937_64 rng(42);
  std::exponential_distribution<double> gap(1.0);
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, double> busy;
  for (std::uint32_t id = 0; id < 4096; ++id) {
    queue.push({gap(rng), id});
    busy[id] = 0.0;
  }
  const double start = wall_s();
  double sum = 0.0;
  for (int k = 0; k < kEvents; ++k) {
    const auto [t, id] = queue.top();
    queue.pop();
    busy[id] += t;
    sum += t;
    queue.push({t + gap(rng), id});
  }
  const double elapsed = wall_s() - start;
  const volatile double result = sum;  // volatile: the loop must run
  static_cast<void>(result);
  return elapsed;
}

}  // namespace vdcbench
