#include "linalg/qp.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.hpp"

namespace vdc::linalg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EqualityQp, UnconstrainedMinimizer) {
  const Matrix h{{2.0, 0.0}, {0.0, 4.0}};
  const std::vector<double> g = {-2.0, -8.0};  // minimizer (1, 2)
  const QpResult r = solve_equality_qp(h, g, Matrix(), {});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-10);
  EXPECT_NEAR(r.x[1], 2.0, 1e-10);
}

TEST(EqualityQp, ProjectsOntoConstraint) {
  // min 1/2||x||^2 s.t. x1 + x2 = 2 -> (1, 1).
  const Matrix h = Matrix::identity(2);
  Matrix a(1, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  const QpResult r = solve_equality_qp(h, std::vector<double>{0.0, 0.0}, a,
                                       std::vector<double>{2.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-10);
  EXPECT_NEAR(r.x[1], 1.0, 1e-10);
  EXPECT_NEAR(r.objective, 1.0, 1e-10);
}

TEST(EqualityQp, DimensionChecks) {
  const Matrix h = Matrix::identity(2);
  EXPECT_THROW(solve_equality_qp(h, std::vector<double>{0.0}, Matrix(), {}),
               std::invalid_argument);
  Matrix a(1, 3);
  EXPECT_THROW(solve_equality_qp(h, std::vector<double>{0.0, 0.0}, a,
                                 std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(InequalityQp, InactiveConstraintsGiveUnconstrainedPoint) {
  const Matrix h = Matrix::identity(2);
  const std::vector<double> g = {-1.0, -1.0};  // minimizer (1,1)
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  const QpResult r = solve_inequality_qp(h, g, m, std::vector<double>{5.0, 5.0});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
}

TEST(InequalityQp, ActiveBoundClamps) {
  // min 1/2||x||^2 - [1,1]x s.t. x <= 0.2 -> (0.2, 0.2).
  const Matrix h = Matrix::identity(2);
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  const QpResult r = solve_inequality_qp(h, std::vector<double>{-1.0, -1.0}, m,
                                         std::vector<double>{0.2, 0.2});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.2, 1e-7);
  EXPECT_NEAR(r.x[1], 0.2, 1e-7);
}

TEST(InequalityQp, RedundantRowsHarmless) {
  const Matrix h = Matrix::identity(2);
  Matrix m(5, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  m(2, 0) = 1.0;  // duplicate of row 0
  m(3, 1) = 1.0;  // duplicate of row 1
  m(4, 0) = 1.0;
  m(4, 1) = 1.0;
  const QpResult r =
      solve_inequality_qp(h, std::vector<double>{-1.0, -1.0}, m,
                          std::vector<double>{0.2, 0.2, 0.2, 0.2, 0.4});
  EXPECT_NEAR(r.x[0], 0.2, 1e-6);
  EXPECT_NEAR(r.x[1], 0.2, 1e-6);
}

TEST(InequalityQp, RejectsNonFiniteConstraintMatrix) {
  // The sweep skips zero multipliers, which is exact only for a finite M:
  // a NaN or infinite P(i,j) times a zero multiplier is NaN, not zero.
  const Matrix h = Matrix::identity(2);
  const std::vector<double> g = {-4.0, -4.0};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf}) {
    Matrix m = Matrix::identity(2);
    m(1, 0) = bad;
    EXPECT_THROW((void)solve_inequality_qp(h, g, m, std::vector<double>{1.0, 1.0}),
                 std::invalid_argument);
  }
}

TEST(GeneralQp, EqualityPlusActiveInequality) {
  // min 1/2||x||^2 s.t. x1+x2 = 0.8, x1 <= 0.1 -> (0.1, 0.7).
  const Matrix h = Matrix::identity(2);
  Matrix a(1, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  const QpResult r = solve_general_qp(h, std::vector<double>{0.0, 0.0}, a,
                                      std::vector<double>{0.8}, m,
                                      std::vector<double>{0.1, 2.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.1, 1e-6);
  EXPECT_NEAR(r.x[1], 0.7, 1e-6);
}

TEST(GeneralQp, DependentEqualityRowsThrow) {
  const Matrix h = Matrix::identity(3);
  Matrix a(2, 3);
  a(0, 0) = 1.0;
  a(1, 0) = 2.0;  // scalar multiple of row 0
  EXPECT_THROW(solve_general_qp(h, std::vector<double>(3, 0.0), a,
                                std::vector<double>{1.0, 2.0}, Matrix(), {}),
               std::runtime_error);
}

TEST(BoxQp, UnconstrainedInteriorSolution) {
  const Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  const std::vector<double> g = {-1.0, 1.0};  // minimizer (0.5, -0.5)
  const QpResult r = solve_box_qp(h, g, std::vector<double>{-1.0, -1.0},
                                  std::vector<double>{1.0, 1.0});
  EXPECT_NEAR(r.x[0], 0.5, 1e-8);
  EXPECT_NEAR(r.x[1], -0.5, 1e-8);
}

TEST(BoxQp, ClampsAtBound) {
  const Matrix h{{2.0, 0.0}, {0.0, 0.1}};
  const std::vector<double> g = {1.0, -3.0};  // unconstrained (-0.5, 30)
  const QpResult r = solve_box_qp(h, g, std::vector<double>{-1.0, -1.0},
                                  std::vector<double>{1.0, 1.0});
  EXPECT_NEAR(r.x[0], -0.5, 1e-7);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(BoxQp, InfiniteBoundsSkipRows) {
  const Matrix h = Matrix::identity(1);
  const QpResult r = solve_box_qp(h, std::vector<double>{-4.0},
                                  std::vector<double>{-kInf}, std::vector<double>{kInf});
  EXPECT_NEAR(r.x[0], 4.0, 1e-10);
}

TEST(BoxQp, EqualityPlusTightBox) {
  // min 1/2||x||^2 s.t. x1+x2 = 1.8, x1 <= 0.5, x2 <= 1.5 -> (0.5, 1.3).
  const Matrix h = Matrix::identity(2);
  Matrix a(1, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  const QpResult r = solve_box_qp(h, std::vector<double>{0.0, 0.0},
                                  std::vector<double>{-kInf, -kInf},
                                  std::vector<double>{0.5, 1.5}, a,
                                  std::vector<double>{1.8});
  EXPECT_NEAR(r.x[0], 0.5, 1e-6);
  EXPECT_NEAR(r.x[1], 1.3, 1e-6);
}

TEST(BoxQp, RejectsInvertedBounds) {
  const Matrix h = Matrix::identity(1);
  EXPECT_THROW(solve_box_qp(h, std::vector<double>{0.0}, std::vector<double>{1.0},
                            std::vector<double>{-1.0}),
               std::invalid_argument);
}

class RandomBoxQpSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomBoxQpSweep, SatisfiesKktConditions) {
  util::Rng rng(static_cast<std::uint64_t>(400 + GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 4;
  // SPD Hessian.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix h = b.transpose() * b;
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  std::vector<double> g(n);
  for (double& v : g) v = rng.uniform(-2.0, 2.0);
  const std::vector<double> lo(n, -0.4);
  const std::vector<double> hi(n, 0.4);

  const QpResult r = solve_box_qp(h, g, lo, hi);
  ASSERT_TRUE(r.converged);
  // Feasibility.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(r.x[i], lo[i] - 1e-8);
    EXPECT_LE(r.x[i], hi[i] + 1e-8);
  }
  // Stationarity: for interior coordinates the gradient must vanish; at an
  // active bound the gradient must point outward.
  const Vector hx = h * std::span<const double>(r.x);
  for (std::size_t i = 0; i < n; ++i) {
    const double grad = hx[i] + g[i];
    if (r.x[i] > lo[i] + 1e-6 && r.x[i] < hi[i] - 1e-6) {
      EXPECT_NEAR(grad, 0.0, 1e-5) << "interior coordinate " << i;
    } else if (r.x[i] <= lo[i] + 1e-6) {
      EXPECT_GE(grad, -1e-5) << "lower-bound coordinate " << i;
    } else {
      EXPECT_LE(grad, 1e-5) << "upper-bound coordinate " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBoxQpSweep, ::testing::Range(0, 16));

class RandomGeneralQpSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomGeneralQpSweep, SatisfiesKktWithEqualityAndBoxConstraints) {
  util::Rng rng(static_cast<std::uint64_t>(800 + GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 4;
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix h = b.transpose() * b;
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  std::vector<double> g(n);
  for (double& v : g) v = rng.uniform(-2.0, 2.0);

  // One equality row through a feasible interior point.
  Matrix a(1, n);
  for (std::size_t j = 0; j < n; ++j) a(0, j) = rng.uniform(0.5, 1.5);
  std::vector<double> interior(n);
  for (double& v : interior) v = rng.uniform(-0.2, 0.2);
  const Vector ax = a * std::span<const double>(interior);
  const std::vector<double> rhs = {ax[0]};
  const std::vector<double> lo(n, -0.5);
  const std::vector<double> hi(n, 0.5);

  const QpResult r = solve_box_qp(h, g, lo, hi, a, rhs);
  ASSERT_TRUE(r.converged);
  // Feasibility: equality within tolerance, bounds exactly.
  const Vector axr = a * std::span<const double>(r.x);
  EXPECT_NEAR(axr[0], rhs[0], 1e-5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(r.x[i], lo[i] - 1e-8);
    EXPECT_LE(r.x[i], hi[i] + 1e-8);
  }
  // Optimality: the objective cannot be improved by feasible perturbations
  // inside the null space of A and the inactive box region.
  const double f0 = qp_objective(h, g, r.x);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<double> direction(n);
    for (double& v : direction) v = rng.uniform(-1.0, 1.0);
    // Project onto null(A).
    const Vector ad = a * std::span<const double>(direction);
    double norm_a2 = 0.0;
    for (std::size_t j = 0; j < n; ++j) norm_a2 += a(0, j) * a(0, j);
    for (std::size_t j = 0; j < n; ++j) direction[j] -= ad[0] * a(0, j) / norm_a2;
    for (const double eps : {1e-4, -1e-4}) {
      std::vector<double> candidate = r.x;
      bool feasible = true;
      for (std::size_t j = 0; j < n; ++j) {
        candidate[j] += eps * direction[j];
        if (candidate[j] < lo[j] || candidate[j] > hi[j]) feasible = false;
      }
      if (!feasible) continue;
      EXPECT_GE(qp_objective(h, g, candidate), f0 - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGeneralQpSweep, ::testing::Range(0, 12));

TEST(QpObjective, EvaluatesQuadratic) {
  const Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  const std::vector<double> g = {1.0, -1.0};
  const std::vector<double> x = {2.0, 3.0};
  // 1/2 x'Hx + g'x = (4 + 9) + (2 - 3) = 12.
  EXPECT_DOUBLE_EQ(qp_objective(h, g, x), 12.0);
}

}  // namespace
}  // namespace vdc::linalg
