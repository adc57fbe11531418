#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vdc::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double exact_quantile(std::span<const double> sorted_values, double q) {
  if (sorted_values.empty()) throw std::invalid_argument("exact_quantile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("exact_quantile: q outside [0,1]");
  const double pos = q * static_cast<double>(sorted_values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return exact_quantile(values, q);
}

void WindowStats::add(double x) {
  if (std::isnan(x)) throw std::invalid_argument("WindowStats: NaN sample");
  moments_.add(x);
  samples_.push_back(x);
}

namespace {

/// The k-th smallest sample when `value` is its value. Equal values are
/// interchangeable except for the two zeros: among the samples that compare
/// equal to 0.0, rank k goes to the (k - #negatives)-th zero counting back
/// from the latest arrival, so the sign bit is a function of the window.
double with_zero_tie(std::span<const double> arrivals, std::size_t k, double value) {
  // vdc-lint: float-eq-ok the tie is exact order equivalence: only -0.0 and +0.0 compare equal with different bits
  if (value != 0.0) return value;
  std::size_t negatives = 0;
  for (const double x : arrivals) negatives += x < 0.0 ? 1 : 0;
  std::size_t rank = k - negatives;
  for (auto it = arrivals.rbegin(); it != arrivals.rend(); ++it) {
    // vdc-lint: float-eq-ok the same exact order equivalence as above, selecting among the zeros
    if (*it == 0.0 && rank-- == 0) return *it;
  }
  return value;  // unreachable: value is one of the zeros counted above
}

}  // namespace

double WindowStats::quantile(double q) const {
  if (samples_.empty()) throw std::invalid_argument("WindowStats::quantile: empty");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("WindowStats::quantile: q outside [0,1]");
  const std::size_t n = samples_.size();
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  std::vector<double> order(samples_);
  const auto lo_it = order.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(order.begin(), lo_it, order.end());
  const double lo_value = with_zero_tie(samples_, lo, *lo_it);
  const double hi_value =
      hi == lo ? lo_value : with_zero_tie(samples_, hi, *std::min_element(lo_it + 1, order.end()));
  return lo_value * (1.0 - frac) + hi_value * frac;
}

}  // namespace vdc::util
