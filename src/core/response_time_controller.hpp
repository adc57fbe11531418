// Application-level response-time controller: the glue between the
// response-time monitor (sensor) and the MPC (decision) for one multi-tier
// application. Produces the per-VM CPU *demands* that the server-level
// arbitrators then grant.
//
// Also watches for SLA infeasibility: the paper (Section IV-A) assumes the
// constrained problem is feasible and notes that when it is not — e.g. the
// application is I/O-bound — "no controller can guarantee the set points
// through CPU resource adaptation". The controller flags that condition
// (actuators saturated at c_max while the SLA stays violated) so the
// operator can bring other resources to bear.
#pragma once

#include <optional>
#include <vector>

#include "app/monitor.hpp"
#include "control/mpc.hpp"
#include "control/robust.hpp"

namespace vdc::core {

class ResponseTimeController {
 public:
  /// `model` and `config` come from system identification / tuning;
  /// `initial_allocations` seeds the controller state (GHz per tier VM).
  /// A `robust` config switches on the Makridis-style hardened variant:
  /// the model's input gain is derated by the uncertainty margin, the MPC
  /// tracks a tightened internal setpoint, the measurement is median-
  /// filtered against sensor spikes, and allocation release is rate-
  /// limited (delta_down_max). Without it, behavior is the paper's nominal
  /// MPC, bit for bit.
  ResponseTimeController(control::ArxModel model, control::MpcConfig config,
                         std::vector<double> initial_allocations,
                         std::optional<control::RobustConfig> robust = std::nullopt);

  /// One control period. `stats` is the monitor's harvest for the period;
  /// when no request completed (empty), the previous measurement is held —
  /// an empty window under load means requests are stuck, so the last
  /// (high) value keeps pressure on the controller. A harvest flagged
  /// *stale* (sensor pipeline wedged) instead degrades to MpcController::
  /// hold(): the previous allocation is kept and no feedback correction is
  /// made, because acting on old numbers as if they were fresh would steer
  /// the plant with fiction.
  [[nodiscard]] std::vector<double> control(const std::optional<app::PeriodStats>& stats);

  /// `setpoint_s` is the SLA value; the robust variant internally tracks
  /// setpoint_s * setpoint_margin.
  void set_setpoint(double setpoint_s) noexcept {
    mpc_.set_setpoint(robust_ ? setpoint_s * robust_->setpoint_margin : setpoint_s);
  }
  /// The setpoint the MPC tracks (already tightened in the robust variant).
  [[nodiscard]] double setpoint() const noexcept { return mpc_.setpoint(); }
  [[nodiscard]] const std::optional<control::RobustConfig>& robust() const noexcept {
    return robust_;
  }
  [[nodiscard]] double last_measurement() const noexcept { return last_measurement_; }
  [[nodiscard]] const control::MpcController& mpc() const noexcept { return mpc_; }

  /// True when the SLA has been violated for `infeasibility_window()`
  /// consecutive periods while CPU re-allocation has stopped helping
  /// (actuators railed at c_max, or the optimizer stationary despite the
  /// violation) — the set point cannot be reached through CPU adaptation
  /// alone (I/O bound, or simply unreachable).
  [[nodiscard]] bool sla_infeasible() const noexcept { return infeasible_; }
  [[nodiscard]] static constexpr std::size_t infeasibility_window() noexcept { return kWindow; }

  /// Periods degraded to hold() because the harvest was flagged stale.
  [[nodiscard]] std::size_t stale_holds() const noexcept { return stale_holds_; }

 private:
  std::optional<control::RobustConfig> robust_;
  control::MpcController mpc_;
  std::optional<control::MedianFilter> filter_;  // robust variant only
  double last_measurement_;
  /// Measurement as fed to the MPC (median-filtered in the robust variant;
  /// identical to last_measurement_ otherwise).
  double fed_measurement_;
  static constexpr std::size_t kWindow = 8;
  std::vector<bool> history_;  // per-period "violated and not improving"
  std::vector<double> previous_demands_;
  bool infeasible_ = false;
  std::size_t stale_holds_ = 0;
};

}  // namespace vdc::core
