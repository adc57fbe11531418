// Bit-exact differential test of linalg::solve_inequality_qp against the
// dense Hildreth oracle (tests/oracles/dense_hildreth.cpp). The production
// sweep skips zero multipliers; this suite proves it returns the very same
// bits — x, objective, iteration count and convergence flag — on seeded
// random QPs, MPC-shaped QPs (paired cumulative and rate rows, zero-slack
// bounds), degenerate rows, and long-tail solves up to the iteration cap.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "linalg/qp.hpp"
#include "oracles/dense_hildreth.hpp"
#include "util/rng.hpp"

namespace vdc::linalg {
namespace {

struct Problem {
  Matrix h;
  Vector g;
  Matrix m;
  Vector gamma;
  std::size_t max_iterations = 2000;
};

struct Coverage {
  std::size_t solves = 0;
  std::size_t iterated = 0;       // solves that ran the Hildreth sweep
  std::size_t long_tail = 0;      // solves with >= 1,000 iterations
  std::size_t capped = 0;         // solves stopped by max_iterations
};

bool bitwise_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_identical(const Problem& p, Coverage& coverage, const std::string& label) {
  const QpResult want = oracles::dense_hildreth_qp(p.h, p.g, p.m, p.gamma, p.max_iterations);
  const QpResult got = solve_inequality_qp(p.h, p.g, p.m, p.gamma, p.max_iterations);
  ASSERT_EQ(got.x.size(), want.x.size()) << label;
  EXPECT_EQ(std::memcmp(got.x.data(), want.x.data(), want.x.size() * sizeof(double)), 0)
      << label;
  EXPECT_TRUE(bitwise_equal(got.objective, want.objective)) << label;
  EXPECT_EQ(got.iterations, want.iterations) << label;
  EXPECT_EQ(got.converged, want.converged) << label;
  ++coverage.solves;
  if (want.iterations > 0) ++coverage.iterated;
  if (want.iterations >= 1000) ++coverage.long_tail;
  if (!want.converged) ++coverage.capped;
}

Matrix random_spd(std::size_t n, double ridge, util::Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd = b.transpose() * b;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += ridge;
  return spd;
}

Vector random_vector(std::size_t n, double lo, double hi, util::Rng& rng) {
  Vector v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Dense random constraints, ~30% exact zeros, gamma straddling zero so
/// the unconstrained minimizer is usually infeasible.
Problem random_dense(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 8));
  const auto q = static_cast<std::size_t>(rng.uniform_int(2, static_cast<std::int64_t>(4 * n)));
  Problem p{.h = random_spd(n, 0.1, rng),
            .g = random_vector(n, -3.0, 3.0, rng),
            .m = Matrix(q, n),
            .gamma = random_vector(q, -1.0, 1.0, rng)};
  for (std::size_t r = 0; r < q; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.uniform() > 0.3) p.m(r, c) = rng.uniform(-1.0, 1.0);
    }
  }
  return p;
}

/// The MPC controller's QP: H = 2(q G'G + R) plus a soft terminal term,
/// cumulative-allocation rows paired with their negations (whose zeros are
/// -0.0, as the controller builds them) and +/- rate rows. The previous
/// allocation sits exactly on c_min or c_max a third of the time each,
/// which gives gamma = 0 rows and degenerate (zero) duals.
Problem mpc_shaped(util::Rng& rng) {
  const auto nu = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const auto horizon = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const std::size_t prediction = 8;
  const std::size_t nx = horizon * nu;
  Matrix step(prediction, nu);
  for (std::size_t m = 0; m < nu; ++m) {
    const double a = rng.uniform(0.0, 0.9);
    const double b = rng.uniform(-2.0, -0.1);
    double s = 0.0;
    for (std::size_t i = 0; i < prediction; ++i) step(i, m) = s = a * s + b;
  }
  Matrix gm(prediction, nx);
  for (std::size_t i = 1; i <= prediction; ++i) {
    for (std::size_t j = 0; j < horizon && j < i; ++j) {
      for (std::size_t m = 0; m < nu; ++m) gm(i - 1, j * nu + m) = step(i - j - 1, m);
    }
  }
  const double q_weight = 1.0;
  const double terminal = rng.uniform() < 0.5 ? 50.0 : 0.0;
  Matrix h = gm.transpose() * gm * (2.0 * q_weight);
  for (std::size_t c = 0; c < nx; ++c) h(c, c) += 2.0 * rng.uniform(0.005, 0.05);
  const double w = 2.0 * q_weight * terminal;
  for (std::size_t r = 0; r < nx; ++r) {
    for (std::size_t c = 0; c < nx; ++c) h(r, c) += w * gm(horizon - 1, r) * gm(horizon - 1, c);
  }
  const Vector err = random_vector(prediction, -2.0, 2.0, rng);
  Vector g = gm.transpose() * std::span<const double>(err);
  const double residual = rng.uniform(-2.0, 2.0);
  for (std::size_t c = 0; c < nx; ++c) {
    g[c] = g[c] * 2.0 * q_weight + w * gm(horizon - 1, c) * residual;
  }

  const bool rate_limited = rng.uniform() < 0.8;
  Matrix m(2 * nx + (rate_limited ? 2 * nx : 0), nx);
  Vector gamma;
  std::size_t row = 0;
  for (std::size_t j = 0; j < horizon; ++j) {
    for (std::size_t u = 0; u < nu; ++u) {
      const double c_min = 0.05;
      const double c_max = rng.uniform(1.0, 4.0);
      const double pick = rng.uniform();
      const double c_prev = pick < 1.0 / 3 ? c_min : pick < 2.0 / 3 ? c_max
                                                                    : rng.uniform(c_min, c_max);
      for (std::size_t l = 0; l <= j; ++l) m(row, l * nu + u) = 1.0;
      for (std::size_t c = 0; c < nx; ++c) m(row + 1, c) = -m(row, c);
      gamma.push_back(c_max - c_prev);
      gamma.push_back(c_prev - c_min);
      row += 2;
    }
  }
  if (rate_limited) {
    const double delta_max = rng.uniform(0.02, 0.5);
    const double delta_down = rng.uniform() < 0.5 ? delta_max : rng.uniform(0.01, delta_max);
    for (std::size_t idx = 0; idx < nx; ++idx) {
      m(row, idx) = 1.0;
      m(row + 1, idx) = -1.0;
      gamma.push_back(delta_max);
      gamma.push_back(delta_down);
      row += 2;
    }
  }
  return Problem{
      .h = std::move(h), .g = std::move(g), .m = std::move(m), .gamma = std::move(gamma)};
}

/// A dense problem with rows the sweep must skip (P(i,i) <= 1e-14): an
/// all-zero row, a -0.0 row and a row scaled down to ~1e-9.
Problem with_degenerate_rows(util::Rng& rng) {
  Problem base = random_dense(rng);
  const std::size_t n = base.h.rows();
  const std::size_t q = base.m.rows();
  Matrix m(q + 3, n);
  m.set_block(0, 0, base.m);
  for (std::size_t c = 0; c < n; ++c) {
    m(q + 1, c) = -0.0;
    m(q + 2, c) = 1e-9 * rng.uniform(-1.0, 1.0);
  }
  base.m = std::move(m);
  base.gamma.push_back(rng.uniform(-1.0, 1.0));
  base.gamma.push_back(rng.uniform(-1.0, 1.0));
  base.gamma.push_back(-1e-3);  // violated but degenerate: skipped by both sweeps
  return base;
}

TEST(HildrethDifferential, RandomDenseQpsMatchBitwise) {
  util::Rng rng(14);
  Coverage coverage;
  for (int t = 0; t < 400; ++t) {
    expect_identical(random_dense(rng), coverage, "dense " + std::to_string(t));
  }
  EXPECT_GT(coverage.iterated, coverage.solves / 2);
}

TEST(HildrethDifferential, MpcShapedQpsMatchBitwise) {
  util::Rng rng(1007);
  Coverage coverage;
  for (int t = 0; t < 400; ++t) {
    expect_identical(mpc_shaped(rng), coverage, "mpc " + std::to_string(t));
  }
  EXPECT_GT(coverage.iterated, coverage.solves / 4);
}

TEST(HildrethDifferential, DegenerateRowsMatchBitwise) {
  util::Rng rng(77);
  Coverage coverage;
  for (int t = 0; t < 200; ++t) {
    expect_identical(with_degenerate_rows(rng), coverage, "degenerate " + std::to_string(t));
  }
  EXPECT_GT(coverage.iterated, coverage.solves / 2);
}

TEST(HildrethDifferential, LongTailSolvesMatchBitwise) {
  // The fleet's costly solves are MPC QPs pinned at c_min that run for
  // well over a thousand sweeps; keep drawing MPC-shaped problems until
  // enough of those long-tail solves have been compared.
  util::Rng rng(2000);
  Coverage coverage;
  std::size_t near_cap = 0;
  for (int t = 0; t < 20000 && coverage.long_tail < 100; ++t) {
    const Problem p = mpc_shaped(rng);
    const QpResult probe = oracles::dense_hildreth_qp(p.h, p.g, p.m, p.gamma);
    if (probe.iterations < 1000) continue;
    if (probe.converged && probe.iterations >= 1500) ++near_cap;
    expect_identical(p, coverage, "tail " + std::to_string(t));
  }
  EXPECT_EQ(coverage.long_tail, 100U);
  EXPECT_GT(near_cap, 0U);
  EXPECT_GT(coverage.capped, 0U);
}

TEST(HildrethDifferential, SmallIterationCapsMatchBitwise) {
  // Stopping after a handful of sweeps compares mid-iteration multiplier
  // states, not just converged ones.
  util::Rng rng(3);
  Coverage coverage;
  for (int t = 0; t < 200; ++t) {
    Problem p = t % 2 == 0 ? random_dense(rng) : mpc_shaped(rng);
    p.max_iterations = static_cast<std::size_t>(rng.uniform_int(1, 6));
    expect_identical(p, coverage, "capped " + std::to_string(t));
  }
  EXPECT_GT(coverage.capped, 0U);
}

}  // namespace
}  // namespace vdc::linalg
