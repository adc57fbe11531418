#include "control/mpc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/control_audit.hpp"
#include "linalg/qp.hpp"
#include "util/log.hpp"

namespace vdc::control {

void MpcConfig::validate(std::size_t nu) const {
  if (prediction_horizon == 0) throw std::invalid_argument("MpcConfig: P must be positive");
  if (control_horizon == 0 || control_horizon > prediction_horizon) {
    throw std::invalid_argument("MpcConfig: need 0 < M <= P");
  }
  // Fields that reach the QP must be finite: a NaN here would otherwise
  // surface only in the checks-on QP audit, or silently switch a feature off.
  if (!(q_weight > 0.0) || !std::isfinite(q_weight)) {
    throw std::invalid_argument("MpcConfig: q_weight must be positive and finite");
  }
  if (r_weight.size() != nu) throw std::invalid_argument("MpcConfig: R width mismatch");
  for (const double r : r_weight) {
    if (!(r > 0.0) || !std::isfinite(r)) {
      throw std::invalid_argument("MpcConfig: r_weight entries must be positive and finite");
    }
  }
  if (c_min.size() != nu || c_max.size() != nu) {
    throw std::invalid_argument("MpcConfig: bound width mismatch");
  }
  for (std::size_t m = 0; m < nu; ++m) {
    if (!std::isfinite(c_min[m])) throw std::invalid_argument("MpcConfig: c_min must be finite");
    if (!std::isfinite(c_max[m])) throw std::invalid_argument("MpcConfig: c_max must be finite");
    if (!(c_min[m] >= 0.0) || !(c_max[m] > c_min[m])) {
      throw std::invalid_argument("MpcConfig: need 0 <= c_min < c_max");
    }
  }
  if (!std::isfinite(setpoint)) throw std::invalid_argument("MpcConfig: setpoint must be finite");
  if (!(period_s > 0.0) || !(tref_s > 0.0)) {
    throw std::invalid_argument("MpcConfig: period and Tref must be positive");
  }
  if (!std::isfinite(delta_max)) {
    throw std::invalid_argument("MpcConfig: delta_max must be finite (<= 0 disables the limit)");
  }
  if (!std::isfinite(delta_down_max)) {
    throw std::invalid_argument("MpcConfig: delta_down_max must be finite");
  }
  if (!(terminal_weight >= 0.0) || !std::isfinite(terminal_weight)) {
    throw std::invalid_argument("MpcConfig: terminal_weight must be finite and >= 0");
  }
  if (!(disturbance_gain >= 0.0 && disturbance_gain <= 1.0)) {
    throw std::invalid_argument("MpcConfig: disturbance_gain must be in [0, 1]");
  }
  if (delta_down_max > 0.0 && !(delta_max > 0.0)) {
    throw std::invalid_argument("MpcConfig: delta_down_max needs delta_max > 0");
  }
  if (delta_down_max > 0.0 && delta_down_max > delta_max) {
    throw std::invalid_argument("MpcConfig: delta_down_max must not exceed delta_max");
  }
}

MpcConfig MpcConfig::broadcast(std::size_t nu) const {
  MpcConfig out = *this;
  const auto broadcast_vec = [nu](std::vector<double>& v, const char* what) {
    if (v.size() == 1 && nu > 1) v.assign(nu, v.front());
    if (v.size() != nu) {
      throw std::invalid_argument(std::string("MpcConfig: cannot broadcast ") + what);
    }
  };
  broadcast_vec(out.r_weight, "r_weight");
  broadcast_vec(out.c_min, "c_min");
  broadcast_vec(out.c_max, "c_max");
  return out;
}

MpcController::MpcController(ArxModel model, MpcConfig config)
    : model_(std::move(model)),
      config_(config.broadcast(model_.nu)),
      reference_(config.period_s, config.tref_s) {
  model_.validate();
  config_.validate(model_.nu);
  compute_step_response();

  // Prediction matrix G: row i-1 (prediction step i), column j*nu+m holds
  // s_m(i-j) — the effect of move dc(k+j) on t(k+i).
  const std::size_t p = config_.prediction_horizon;
  const std::size_t m_horizon = config_.control_horizon;
  const std::size_t nu = model_.nu;
  g_ = linalg::Matrix(p, m_horizon * nu);
  for (std::size_t i = 1; i <= p; ++i) {
    for (std::size_t j = 0; j < m_horizon; ++j) {
      if (i <= j) continue;
      for (std::size_t m = 0; m < nu; ++m) {
        g_(i - 1, j * nu + m) = step_response_(i - j - 1, m);
      }
    }
  }

  // Constant Hessian: H = 2 (G' Q G + Rbar) (+ soft terminal term).
  const std::size_t nx = m_horizon * nu;
  hessian_ = g_.transpose() * g_ * (2.0 * config_.q_weight);
  for (std::size_t j = 0; j < m_horizon; ++j) {
    for (std::size_t m = 0; m < nu; ++m) {
      hessian_(j * nu + m, j * nu + m) += 2.0 * config_.r_weight[m];
    }
  }
  if (config_.terminal == MpcConfig::Terminal::kSoft) {
    const double w = 2.0 * config_.q_weight * config_.terminal_weight;
    for (std::size_t r = 0; r < nx; ++r) {
      for (std::size_t c = 0; c < nx; ++c) {
        hessian_(r, c) += w * g_(m_horizon - 1, r) * g_(m_horizon - 1, c);
      }
    }
  }
}

void MpcController::compute_step_response() {
  // Simulate the ARX model from zero initial conditions (no bias) with a
  // unit step on each input in turn; record the output over the prediction
  // horizon. Linear superposition then gives any input trajectory.
  const std::size_t p = config_.prediction_horizon;
  const std::size_t nu = model_.nu;
  step_response_ = linalg::Matrix(p, nu);
  ArxModel unbiased = model_;
  unbiased.bias = 0.0;  // the step response is the *deviation* response
  for (std::size_t m = 0; m < nu; ++m) {
    std::vector<double> t_hist(model_.na, 0.0);
    std::vector<std::vector<double>> c_hist(model_.nb, std::vector<double>(nu, 0.0));
    std::vector<double> step(nu, 0.0);
    step[m] = 1.0;
    // c(k+j) = step for j >= 0; history starts with c(k-1)=...=0.
    for (std::size_t i = 1; i <= p; ++i) {
      // Advance input history: entering period k+i, the most recent input
      // is c(k+i-1) = step.
      c_hist.insert(c_hist.begin(), step);
      c_hist.pop_back();
      const double t = unbiased.predict(t_hist, c_hist);
      step_response_(i - 1, m) = t;
      t_hist.insert(t_hist.begin(), t);
      t_hist.pop_back();
    }
  }
}

std::vector<double> MpcController::free_response() const {
  // Forward-simulate the model over P steps with the input held at c(k-1).
  // The estimated disturbance enters INSIDE the recursion (like the bias
  // term) so it propagates through the AR dynamics — required for
  // offset-free tracking under constant model error.
  const std::size_t p = config_.prediction_horizon;
  std::vector<double> t_hist = t_hist_;
  std::vector<std::vector<double>> c_hist = c_hist_;
  const std::vector<double> held = c_hist_.front();
  std::vector<double> f(p);
  for (std::size_t i = 1; i <= p; ++i) {
    c_hist.insert(c_hist.begin(), held);
    c_hist.pop_back();
    const double t = model_.predict(t_hist, c_hist) + disturbance_;
    f[i - 1] = t;
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
  }
  return f;
}

void MpcController::reset(double t0, std::span<const double> c0) {
  if (c0.size() != model_.nu) throw std::invalid_argument("MpcController::reset: c0 width");
  t_hist_.assign(model_.na, t0);
  c_hist_.assign(model_.nb, std::vector<double>(c0.begin(), c0.end()));
  disturbance_ = 0.0;
  initialized_ = true;
}

std::vector<double> MpcController::current_allocations() const {
  if (!initialized_) throw std::logic_error("MpcController: reset() before querying");
  return c_hist_.front();
}

std::vector<double> MpcController::hold() {
  if (!initialized_) throw std::logic_error("MpcController: reset() before hold()");
  const double predicted = model_.predict(t_hist_, c_hist_) + disturbance_;
  t_hist_.insert(t_hist_.begin(), predicted);
  t_hist_.pop_back();
  const std::vector<double> held = c_hist_.front();
  c_hist_.insert(c_hist_.begin(), held);
  c_hist_.pop_back();
  return held;
}

std::vector<double> MpcController::step(double measured_output) {
  if (!initialized_) throw std::logic_error("MpcController: reset() before step()");
  const std::size_t p = config_.prediction_horizon;
  const std::size_t m_horizon = config_.control_horizon;
  const std::size_t nu = model_.nu;
  const std::size_t nx = m_horizon * nu;

  // Feedback correction (DMC): how far off was the one-step prediction?
  if (config_.disturbance_gain > 0.0) {
    const double predicted = model_.predict(t_hist_, c_hist_);
    disturbance_ += config_.disturbance_gain *
                    ((measured_output - predicted) - disturbance_);
  }

  // Feedback: t(k) enters the model history.
  t_hist_.insert(t_hist_.begin(), measured_output);
  t_hist_.pop_back();

  const std::vector<double> f = free_response();
  const std::vector<double> ref =
      reference_.horizon(p, measured_output, config_.setpoint);

  // Gradient: g = 2 G' Q (f - ref).
  std::vector<double> err(p);
  for (std::size_t i = 0; i < p; ++i) err[i] = f[i] - ref[i];
  linalg::Vector grad = g_.transpose() * std::span<const double>(err);
  for (double& v : grad) v *= 2.0 * config_.q_weight;

  // Terminal constraint: t(k+M|k) = Ts — hard equality or soft penalty.
  linalg::Matrix a_eq;
  linalg::Vector b_eq;
  if (config_.terminal == MpcConfig::Terminal::kHard) {
    double row_norm = 0.0;
    for (std::size_t c = 0; c < nx; ++c) {
      row_norm += g_(m_horizon - 1, c) * g_(m_horizon - 1, c);
    }
    if (row_norm > 1e-16) {
      a_eq = linalg::Matrix(1, nx);
      for (std::size_t c = 0; c < nx; ++c) a_eq(0, c) = g_(m_horizon - 1, c);
      b_eq.assign(1, config_.setpoint - f[m_horizon - 1]);
    }
  } else if (config_.terminal == MpcConfig::Terminal::kSoft) {
    // grad += 2 Q w_T G_M' (f_M - Ts); the Hessian term is precomputed.
    const double w = 2.0 * config_.q_weight * config_.terminal_weight;
    const double residual = f[m_horizon - 1] - config_.setpoint;
    for (std::size_t c = 0; c < nx; ++c) {
      grad[c] += w * g_(m_horizon - 1, c) * residual;
    }
  }

  // Inequalities: actuator range on the cumulative allocation and the
  // per-move rate limit.
  const std::vector<double>& c_prev = c_hist_.front();
  const bool rate_limited = config_.delta_max > 0.0;
  linalg::Matrix m_ineq(2 * nx + (rate_limited ? 2 * nx : 0), nx);
  std::vector<double> gamma;
  gamma.reserve(m_ineq.rows());
  std::size_t row = 0;
  for (std::size_t j = 0; j < m_horizon; ++j) {
    for (std::size_t m = 0; m < nu; ++m) {
      // sum_{l<=j} dc_m(l) <= c_max[m] - c_prev[m]
      for (std::size_t l = 0; l <= j; ++l) m_ineq(row, l * nu + m) = 1.0;
      // -sum <= c_prev[m] - c_min[m] (negated entry by entry, so its zeros are -0.0)
      for (std::size_t c = 0; c < nx; ++c) m_ineq(row + 1, c) = -m_ineq(row, c);
      gamma.push_back(config_.c_max[m] - c_prev[m]);
      gamma.push_back(c_prev[m] - config_.c_min[m]);
      row += 2;
    }
  }
  if (rate_limited) {
    // Asymmetric release limit when configured: dc >= -delta_down_max.
    const double delta_down = config_.delta_down_max > 0.0 ? config_.delta_down_max
                                                           : config_.delta_max;
    for (std::size_t idx = 0; idx < nx; ++idx) {
      m_ineq(row, idx) = 1.0;
      m_ineq(row + 1, idx) = -1.0;
      gamma.push_back(config_.delta_max);
      gamma.push_back(delta_down);
      row += 2;
    }
  }

  linalg::QpResult qp;
  bool solved = false;
  bool equality_constrained = false;
  try {
    qp = linalg::solve_general_qp(hessian_, grad, a_eq, b_eq, m_ineq, gamma);
    solved = true;
    equality_constrained = a_eq.rows() > 0;
  } catch (const std::exception& e) {
    util::Log(util::LogLevel::kWarn, "mpc")
        << "terminal-constrained QP failed (" << e.what() << "); retrying unconstrained";
  }
  if (!solved) {
    try {
      qp = linalg::solve_general_qp(hessian_, grad, linalg::Matrix(), {}, m_ineq, gamma);
      solved = true;
    } catch (const std::exception& e) {
      util::Log(util::LogLevel::kError, "mpc") << "QP failed: " << e.what() << "; holding";
      qp.x.assign(nx, 0.0);
      qp.converged = false;
    }
  }
  if (solved) audit::qp_solution(hessian_, grad, m_ineq, gamma, qp, equality_constrained);

  if (util::log_enabled(util::LogLevel::kDebug)) {
    util::Log dbg(util::LogLevel::kDebug, "mpc");
    dbg << "f=[";
    for (double v : f) dbg << v << " ";
    dbg << "] ref=[";
    for (double v : ref) dbg << v << " ";
    dbg << "] grad=[";
    for (double v : grad) dbg << v << " ";
    dbg << "] x=[";
    for (double v : qp.x) dbg << v << " ";
    dbg << "] d=" << disturbance_;
  }

  diagnostics_.qp_converged = qp.converged;
  diagnostics_.qp_iterations = qp.iterations;
  diagnostics_.cost = qp.objective;
  {
    double terminal_s = f[m_horizon - 1];
    for (std::size_t c = 0; c < nx; ++c) terminal_s += g_(m_horizon - 1, c) * qp.x[c];
    diagnostics_.predicted_terminal = terminal_s;
  }

  // Receding horizon: apply only the first move, clamped to the actuator.
  std::vector<double> c_new(nu);
  for (std::size_t m = 0; m < nu; ++m) {
    double dc = qp.x[m];
    if (config_.delta_max > 0.0) {
      const double delta_down = config_.delta_down_max > 0.0 ? config_.delta_down_max
                                                             : config_.delta_max;
      dc = std::clamp(dc, -delta_down, config_.delta_max);
    }
    c_new[m] = std::clamp(c_prev[m] + dc, config_.c_min[m], config_.c_max[m]);
  }
  audit::allocation_bounds(c_new, config_.c_min, config_.c_max);
  c_hist_.insert(c_hist_.begin(), c_new);
  c_hist_.pop_back();
  return c_new;
}

}  // namespace vdc::control
