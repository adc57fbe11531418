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
  order_.insert(x);
}

}  // namespace vdc::util
