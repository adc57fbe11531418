#include "control/mpc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace vdc::control {
namespace {

ArxModel siso_model() {
  // t(k) = 0.5 t(k-1) - 1.0 c(k-1) + 2.0  (steady state: t = (2 - c)/0.5).
  ArxModel m;
  m.na = 1;
  m.nb = 1;
  m.nu = 1;
  m.a = {0.5};
  m.b = linalg::Matrix(1, 1);
  m.b(0, 0) = -1.0;
  m.bias = 2.0;
  return m;
}

ArxModel mimo_model() {
  ArxModel m;
  m.na = 1;
  m.nb = 2;
  m.nu = 2;
  m.a = {0.5};
  m.b = linalg::Matrix(2, 2);
  m.b(0, 0) = -0.5;
  m.b(0, 1) = -1.5;
  m.b(1, 0) = 0.0;
  m.b(1, 1) = 0.2;
  m.bias = 2.0;
  return m;
}

MpcConfig base_config() {
  MpcConfig c;
  c.prediction_horizon = 10;
  c.control_horizon = 3;
  c.q_weight = 1.0;
  c.r_weight = {0.5};
  c.period_s = 4.0;
  c.tref_s = 12.0;
  c.setpoint = 1.0;
  c.c_min = {0.1};
  c.c_max = {3.0};
  c.delta_max = 0.5;
  c.terminal = MpcConfig::Terminal::kSoft;
  return c;
}

/// Runs the controller against its own (exact) model as the plant.
double closed_loop_final(const ArxModel& model, const MpcConfig& config, double t0,
                         std::vector<double> c0, int steps = 120,
                         std::vector<double>* final_c = nullptr) {
  MpcController ctl(model, config);
  ctl.reset(t0, c0);
  std::vector<double> t_hist(model.na, t0);
  std::vector<std::vector<double>> c_hist(model.nb, c0);
  double t = t0;
  for (int k = 0; k < steps; ++k) {
    const std::vector<double> c = ctl.step(t);
    c_hist.insert(c_hist.begin(), c);
    c_hist.pop_back();
    t = model.predict(t_hist, c_hist);
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
    if (final_c) *final_c = c;
  }
  return t;
}

TEST(MpcConfig, ValidationAndBroadcast) {
  MpcConfig c = base_config();
  const MpcConfig wide = c.broadcast(3);
  EXPECT_EQ(wide.r_weight.size(), 3u);
  EXPECT_EQ(wide.c_min.size(), 3u);
  EXPECT_NO_THROW(wide.validate(3));
  c.control_horizon = 0;
  EXPECT_THROW(c.validate(1), std::invalid_argument);
  c = base_config();
  c.control_horizon = 20;  // > P
  EXPECT_THROW(c.validate(1), std::invalid_argument);
  c = base_config();
  c.r_weight = {0.0};
  EXPECT_THROW(c.validate(1), std::invalid_argument);
  c = base_config();
  c.c_min = {2.0};
  c.c_max = {1.0};
  EXPECT_THROW(c.validate(1), std::invalid_argument);
}

/// validate() must throw std::invalid_argument whose message names `field`.
void expect_rejected_naming(const MpcConfig& c, const std::string& field) {
  try {
    c.validate(1);
    ADD_FAILURE() << "accepted an invalid " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(MpcConfig, RejectsNonFiniteTerminalWeight) {
  // A NaN weight used to reach the QP and was caught only by the
  // checks-on solution audit.
  for (const double w : {kNan, kInf, -1.0}) {
    MpcConfig c = base_config();
    c.terminal_weight = w;
    expect_rejected_naming(c, "terminal_weight");
  }
  MpcConfig c = base_config();
  c.terminal_weight = kNan;
  EXPECT_THROW(MpcController(siso_model(), c), std::invalid_argument);
}

TEST(MpcConfig, RejectsNonFiniteDisturbanceGain) {
  // A NaN gain used to fail the `> 0` test and silently turn the DMC
  // correction off.
  for (const double gain : {kNan, kInf, -0.5, 1.5}) {
    MpcConfig c = base_config();
    c.disturbance_gain = gain;
    expect_rejected_naming(c, "disturbance_gain");
  }
}

TEST(MpcConfig, RejectsNonFiniteDeltaMax) {
  // A NaN limit used to fail the `> 0` test and silently drop the rate rows.
  for (const double d : {kNan, kInf}) {
    MpcConfig c = base_config();
    c.delta_max = d;
    expect_rejected_naming(c, "delta_max");
  }
  MpcConfig off = base_config();
  off.delta_max = 0.0;  // <= 0 still disables the limit
  EXPECT_NO_THROW(off.validate(1));
}

TEST(MpcConfig, RejectsNonFiniteDeltaDownMax) {
  MpcConfig c = base_config();
  c.delta_down_max = kNan;
  expect_rejected_naming(c, "delta_down_max");
}

TEST(MpcConfig, RejectsNonFiniteSetpoint) {
  for (const double sp : {kNan, kInf, -kInf}) {
    MpcConfig c = base_config();
    c.setpoint = sp;
    expect_rejected_naming(c, "setpoint");
  }
}

TEST(MpcConfig, RejectsNonFiniteCMin) {
  for (const double lo : {kNan, -kInf}) {
    MpcConfig c = base_config();
    c.c_min = {lo};
    expect_rejected_naming(c, "c_min");
  }
}

TEST(MpcConfig, RejectsNonFiniteCMax) {
  // An infinite c_max passed the c_min < c_max test.
  for (const double hi : {kNan, kInf}) {
    MpcConfig c = base_config();
    c.c_max = {hi};
    expect_rejected_naming(c, "c_max");
  }
}

TEST(MpcConfig, RejectsNonFiniteWeights) {
  MpcConfig c = base_config();
  c.q_weight = kInf;
  expect_rejected_naming(c, "q_weight");
  c = base_config();
  c.r_weight = {kInf};
  expect_rejected_naming(c, "r_weight");
}

TEST(Mpc, StepResponseMatchesHandComputation) {
  const MpcController ctl(siso_model(), base_config());
  const linalg::Matrix& s = ctl.step_response();
  // s(1) = b1 = -1; s(2) = a*s(1) + b1 = -1.5; s(3) = 0.5*(-1.5) - 1 = -1.75.
  EXPECT_NEAR(s(0, 0), -1.0, 1e-12);
  EXPECT_NEAR(s(1, 0), -1.5, 1e-12);
  EXPECT_NEAR(s(2, 0), -1.75, 1e-12);
  // Converges to the DC gain -2.
  EXPECT_NEAR(s(9, 0), -2.0, 0.01);
}

TEST(Mpc, StepRequiresReset) {
  MpcController ctl(siso_model(), base_config());
  EXPECT_THROW((void)ctl.step(1.0), std::logic_error);
  EXPECT_THROW((void)ctl.current_allocations(), std::logic_error);
  ctl.reset(1.0, std::vector<double>{0.5});
  EXPECT_EQ(ctl.current_allocations(), (std::vector<double>{0.5}));
  EXPECT_THROW(ctl.reset(1.0, std::vector<double>{0.5, 0.5}), std::invalid_argument);
}

TEST(Mpc, ConvergesToSetpointOnNominalPlant) {
  const double t_final = closed_loop_final(siso_model(), base_config(), 3.0, {0.5});
  EXPECT_NEAR(t_final, 1.0, 1e-3);
}

TEST(Mpc, ConvergesFromBelow) {
  const double t_final = closed_loop_final(siso_model(), base_config(), 0.2, {2.0});
  EXPECT_NEAR(t_final, 1.0, 1e-3);
}

TEST(Mpc, MimoConvergesToSetpoint) {
  MpcConfig config = base_config();
  config.r_weight = {0.5, 0.5};
  config.c_min = {0.1, 0.1};
  config.c_max = {3.0, 3.0};
  const double t_final = closed_loop_final(mimo_model(), config, 2.5, {0.5, 0.5});
  EXPECT_NEAR(t_final, 1.0, 1e-3);
}

class TerminalModeSweep : public ::testing::TestWithParam<MpcConfig::Terminal> {};

TEST_P(TerminalModeSweep, AllModesConvergeNominally) {
  MpcConfig config = base_config();
  config.terminal = GetParam();
  const double t_final = closed_loop_final(siso_model(), config, 2.0, {0.5});
  EXPECT_NEAR(t_final, 1.0, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Modes, TerminalModeSweep,
                         ::testing::Values(MpcConfig::Terminal::kHard,
                                           MpcConfig::Terminal::kSoft,
                                           MpcConfig::Terminal::kOff));

TEST(Mpc, RespectsActuatorBounds) {
  MpcConfig config = base_config();
  config.c_min = {0.3};
  config.c_max = {0.9};
  MpcController ctl(siso_model(), config);
  ctl.reset(5.0, std::vector<double>{0.5});
  double t = 5.0;
  for (int k = 0; k < 50; ++k) {
    const std::vector<double> c = ctl.step(t);
    EXPECT_GE(c[0], 0.3 - 1e-9);
    EXPECT_LE(c[0], 0.9 + 1e-9);
    t = std::max(0.1, t * 0.8);
  }
}

TEST(Mpc, RespectsRateLimit) {
  MpcConfig config = base_config();
  config.delta_max = 0.05;
  MpcController ctl(siso_model(), config);
  ctl.reset(4.0, std::vector<double>{0.5});
  std::vector<double> prev = {0.5};
  for (int k = 0; k < 30; ++k) {
    const std::vector<double> c = ctl.step(4.0);  // persistent high error
    EXPECT_LE(std::abs(c[0] - prev[0]), 0.05 + 1e-9);
    prev = c;
  }
}

TEST(Mpc, RejectsConstantDisturbanceViaBiasCorrection) {
  // Plant = model + constant offset the model does not know about.
  const ArxModel model = siso_model();
  MpcConfig config = base_config();
  MpcController ctl(model, config);
  ctl.reset(1.0, std::vector<double>{0.5});
  std::vector<double> t_hist = {1.0};
  std::vector<std::vector<double>> c_hist = {{0.5}};
  double t = 1.0;
  const double offset = 0.8;  // unmodeled load increase
  for (int k = 0; k < 150; ++k) {
    const std::vector<double> c = ctl.step(t);
    c_hist.insert(c_hist.begin(), c);
    c_hist.pop_back();
    t = model.predict(t_hist, c_hist) + offset;
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
  }
  EXPECT_NEAR(t, 1.0, 5e-3) << "disturbance must be rejected (offset-free tracking)";
}

TEST(Mpc, NoDisturbanceGainLeavesOffset) {
  const ArxModel model = siso_model();
  MpcConfig config = base_config();
  config.disturbance_gain = 0.0;
  config.terminal = MpcConfig::Terminal::kOff;  // no terminal pull either
  MpcController ctl(model, config);
  ctl.reset(1.0, std::vector<double>{0.5});
  std::vector<double> t_hist = {1.0};
  std::vector<std::vector<double>> c_hist = {{0.5}};
  double t = 1.0;
  for (int k = 0; k < 150; ++k) {
    const std::vector<double> c = ctl.step(t);
    c_hist.insert(c_hist.begin(), c);
    c_hist.pop_back();
    t = model.predict(t_hist, c_hist) + 0.8;
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
  }
  EXPECT_GT(std::abs(t - 1.0), 0.05) << "without correction a steady offset remains";
}

TEST(Mpc, SetpointChangeTracked) {
  const ArxModel model = siso_model();
  MpcController ctl(model, base_config());
  ctl.reset(1.0, std::vector<double>{0.5});
  std::vector<double> t_hist = {1.0};
  std::vector<std::vector<double>> c_hist = {{0.5}};
  double t = 1.0;
  ctl.set_setpoint(1.6);
  EXPECT_DOUBLE_EQ(ctl.setpoint(), 1.6);
  for (int k = 0; k < 120; ++k) {
    const std::vector<double> c = ctl.step(t);
    c_hist.insert(c_hist.begin(), c);
    c_hist.pop_back();
    t = model.predict(t_hist, c_hist);
    t_hist.insert(t_hist.begin(), t);
    t_hist.pop_back();
  }
  EXPECT_NEAR(t, 1.6, 1e-3);
}

TEST(Mpc, DiagnosticsPopulated) {
  MpcController ctl(siso_model(), base_config());
  ctl.reset(2.0, std::vector<double>{0.5});
  (void)ctl.step(2.0);
  const MpcDiagnostics& d = ctl.diagnostics();
  EXPECT_TRUE(d.qp_converged);
  EXPECT_TRUE(std::isfinite(d.predicted_terminal));
  EXPECT_TRUE(std::isfinite(d.cost));
}

TEST(Mpc, HardTerminalInfeasibleFallsBackGracefully) {
  // Huge initial error with a tight rate limit: the hard terminal equality
  // cannot be met. The controller must still return a bounded, in-range
  // move rather than throwing.
  MpcConfig config = base_config();
  config.terminal = MpcConfig::Terminal::kHard;
  config.delta_max = 0.02;
  MpcController ctl(siso_model(), config);
  ctl.reset(50.0, std::vector<double>{0.5});
  const std::vector<double> c = ctl.step(50.0);
  EXPECT_GE(c[0], config.c_min[0] - 1e-9);
  EXPECT_LE(c[0], config.c_max[0] + 1e-9);
}

}  // namespace
}  // namespace vdc::control
