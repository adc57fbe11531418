#include "core/response_time_controller.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace vdc::core {

namespace {

control::ArxModel harden_model(control::ArxModel model,
                               const std::optional<control::RobustConfig>& robust) {
  if (!robust) return model;
  robust->validate();
  return control::derate_gain(std::move(model), robust->gain_margin);
}

control::MpcConfig harden_config(control::MpcConfig config,
                                 const std::optional<control::RobustConfig>& robust) {
  if (!robust) return config;
  config.setpoint *= robust->setpoint_margin;
  if (robust->release_slew_ghz > 0.0 && config.delta_max > 0.0) {
    config.delta_down_max = std::min(robust->release_slew_ghz, config.delta_max);
  }
  return config;
}

}  // namespace

ResponseTimeController::ResponseTimeController(control::ArxModel model,
                                               control::MpcConfig config,
                                               std::vector<double> initial_allocations,
                                               std::optional<control::RobustConfig> robust)
    : robust_(std::move(robust)),
      mpc_(harden_model(std::move(model), robust_), harden_config(config, robust_)),
      last_measurement_(config.setpoint),
      fed_measurement_(mpc_.setpoint()) {
  if (robust_ && robust_->spike_window > 1) filter_.emplace(robust_->spike_window);
  mpc_.reset(mpc_.setpoint(), initial_allocations);
}

std::vector<double> ResponseTimeController::control(
    const std::optional<app::PeriodStats>& stats) {
  if (stats && stats->stale) {
    // Sensor pipeline wedged: hold the allocation and skip the feedback
    // update — the infeasibility detector also pauses, since it would be
    // voting on numbers that carry no new information.
    ++stale_holds_;
    return mpc_.hold();
  }
  if (stats && stats->count > 0) {
    last_measurement_ = stats->controlled;
    // The robust variant feeds the MPC a windowed median, rejecting
    // isolated sensor spikes; the nominal path feeds the raw sample.
    fed_measurement_ = filter_ ? filter_->apply(stats->controlled) : stats->controlled;
  }
  std::vector<double> demands = mpc_.step(fed_measurement_);

  // Infeasibility watch: the SLA stays violated while CPU re-allocation has
  // stopped helping — either every actuator is railed at its upper bound,
  // or the optimizer is stationary (|dc| negligible) despite the violation.
  const bool violated = fed_measurement_ > mpc_.setpoint() * 1.1;
  const control::MpcConfig& config = mpc_.config();
  bool railed = true;
  bool stalled = true;
  for (std::size_t m = 0; m < demands.size(); ++m) {
    const double range = config.c_max[m] - config.c_min[m];
    if (demands[m] < config.c_max[m] - 0.01 * range) railed = false;
    if (!previous_demands_.empty() &&
        std::abs(demands[m] - previous_demands_[m]) > 0.02 * range) {
      stalled = false;
    }
  }
  if (previous_demands_.empty()) stalled = false;
  previous_demands_ = demands;

  // Windowed majority vote: occasional QP wobble must not reset the
  // detector, but a genuine recovery (violation clears) must.
  history_.push_back(violated && (railed || stalled));
  if (history_.size() > kWindow) history_.erase(history_.begin());
  if (!violated) {
    infeasible_ = false;
    history_.clear();
  } else if (history_.size() == kWindow) {
    const auto hits = static_cast<std::size_t>(
        std::count(history_.begin(), history_.end(), true));
    if (hits * 5 >= kWindow * 4) infeasible_ = true;  // >= 80% of the window
  }
  return demands;
}

}  // namespace vdc::core
