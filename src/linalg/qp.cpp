#include "linalg/qp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"

namespace vdc::linalg {

double qp_objective(const Matrix& h, std::span<const double> g, std::span<const double> x) {
  const Vector hx = h * x;
  return 0.5 * dot(x, hx) + dot(g, x);
}

QpResult solve_equality_qp(const Matrix& h, std::span<const double> g, const Matrix& a,
                           std::span<const double> b) {
  const std::size_t n = h.rows();
  if (!h.square() || g.size() != n) throw std::invalid_argument("equality_qp: bad dimensions");
  const std::size_t p = a.rows();
  if (p > 0 && a.cols() != n) throw std::invalid_argument("equality_qp: A width mismatch");
  if (b.size() != p) throw std::invalid_argument("equality_qp: b length mismatch");

  QpResult result;
  if (p == 0) {
    // Unconstrained: H x = -g.
    const CholeskyDecomposition chol(h);
    result.x = chol.solve(scale(g, -1.0));
  } else {
    Matrix kkt(n + p, n + p);
    kkt.set_block(0, 0, h);
    kkt.set_block(0, n, a.transpose());
    kkt.set_block(n, 0, a);
    Vector rhs(n + p, 0.0);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -g[i];
    for (std::size_t i = 0; i < p; ++i) rhs[n + i] = b[i];
    const Vector xl = lu_solve(std::move(kkt), rhs);
    result.x.assign(xl.begin(), xl.begin() + static_cast<std::ptrdiff_t>(n));
  }
  result.converged = true;
  result.iterations = 1;
  result.objective = qp_objective(h, g, result.x);
  return result;
}

QpResult solve_inequality_qp(const Matrix& h, std::span<const double> g, const Matrix& m,
                             std::span<const double> gamma, std::size_t max_iterations,
                             double tolerance) {
  const std::size_t n = h.rows();
  const std::size_t q = m.rows();
  if (!h.square() || g.size() != n) throw std::invalid_argument("inequality_qp: bad dims");
  if (q > 0 && m.cols() != n) throw std::invalid_argument("inequality_qp: M width mismatch");
  if (gamma.size() != q) throw std::invalid_argument("inequality_qp: gamma length mismatch");
  for (const double v : m.data()) {
    if (!std::isfinite(v)) throw std::invalid_argument("inequality_qp: M must be finite");
  }

  const CholeskyDecomposition chol(h);
  const Vector x0 = chol.solve(scale(g, -1.0));  // unconstrained minimizer

  QpResult result;
  if (q == 0) {
    result.x = x0;
    result.converged = true;
    result.objective = qp_objective(h, g, result.x);
    return result;
  }

  // Check whether the unconstrained minimizer is already feasible.
  const Vector mx0 = m * x0;
  bool feasible = true;
  for (std::size_t i = 0; i < q; ++i) {
    if (mx0[i] > gamma[i] + tolerance) {
      feasible = false;
      break;
    }
  }
  if (feasible) {
    result.x = x0;
    result.converged = true;
    result.iterations = 0;
    result.objective = qp_objective(h, g, result.x);
    return result;
  }

  // Dual problem matrices: P = M H^-1 M^T, k = gamma - M x0 (the dual is
  // min_{lambda>=0} 1/2 lambda'P lambda + k'lambda, solved coordinate-wise;
  // Hildreth's procedure).
  Matrix hinv_mt(n, q);
  {
    Vector col(n);
    for (std::size_t c = 0; c < q; ++c) {
      for (std::size_t r = 0; r < n; ++r) col[r] = m(c, r);
      const Vector sol = chol.solve(col);
      for (std::size_t r = 0; r < n; ++r) hinv_mt(r, c) = sol[r];
    }
  }
  const Matrix p = m * hinv_mt;  // q x q, PSD
  Vector k(q);
  for (std::size_t i = 0; i < q; ++i) k[i] = gamma[i] - mx0[i];

  // The sweep sums P(i,j) lambda[j] over the non-zero multipliers only,
  // kept in `active` in ascending index order. The result is bit-identical
  // to the dense sum over every j: P is finite (M is, and H passed
  // Cholesky), so a zero multiplier adds an exact signed zero, which can
  // only flip the sign of a zero s, and max(0, -s/pii) maps both signs to
  // +0. Ascending order keeps the non-zero terms in the dense addition
  // order. tests/test_qp_differential.cpp holds the dense oracle.
  Vector lambda(q, 0.0);
  std::vector<std::size_t> active;
  active.reserve(q);
  const std::span<const double> p_data = p.data();
  std::size_t iter = 0;
  bool converged = false;
  for (; iter < max_iterations; ++iter) {
    double max_change = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      const double* p_row = p_data.data() + i * q;
      const double pii = p_row[i];
      if (pii <= 1e-14) continue;  // degenerate row: constraint parallel to others
      double s = k[i];
      for (const std::size_t j : active) {
        if (j != i) s += p_row[j] * lambda[j];
      }
      const double updated = std::max(0.0, -s / pii);
      max_change = std::max(max_change, std::abs(updated - lambda[i]));
      // vdc-lint: float-eq-ok bitwise zero test: max(0, .) yields exactly +0.0 for an inactive multiplier
      const bool was_active = lambda[i] != 0.0;
      // vdc-lint: float-eq-ok bitwise zero test: max(0, .) yields exactly +0.0 for an inactive multiplier
      const bool is_active = updated != 0.0;
      lambda[i] = updated;
      if (was_active != is_active) {
        const auto pos = std::lower_bound(active.begin(), active.end(), i);
        if (is_active) {
          active.insert(pos, i);
        } else {
          active.erase(pos);
        }
      }
    }
    if (max_change < tolerance) {
      converged = true;
      ++iter;
      break;
    }
  }

  // Recover the primal point: x = x0 - H^-1 M^T lambda.
  Vector x = x0;
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < q; ++c) s += hinv_mt(r, c) * lambda[c];
    x[r] -= s;
  }

  result.x = std::move(x);
  result.converged = converged;
  result.iterations = iter;
  result.objective = qp_objective(h, g, result.x);
  return result;
}

QpResult solve_general_qp(const Matrix& h, std::span<const double> g, const Matrix& a,
                          std::span<const double> b, const Matrix& m,
                          std::span<const double> gamma, std::size_t max_iterations) {
  const std::size_t n = h.rows();
  if (!h.square() || g.size() != n) throw std::invalid_argument("general_qp: bad dimensions");
  const std::size_t p = a.rows();
  const std::size_t q = m.rows();
  if (q > 0 && m.cols() != n) throw std::invalid_argument("general_qp: M width mismatch");
  if (gamma.size() != q) throw std::invalid_argument("general_qp: gamma length mismatch");

  if (p == 0) {
    return solve_inequality_qp(h, g, m, gamma, max_iterations);
  }
  if (a.cols() != n || b.size() != p) throw std::invalid_argument("general_qp: A/b dimensions");
  if (p >= n) throw std::invalid_argument("general_qp: too many equality constraints");

  // Null-space elimination: QR of A^T gives x = x_p + Z z with A Z = 0.
  const QrDecomposition qr(a.transpose());
  if (qr.rank_deficient()) {
    throw std::runtime_error("general_qp: equality constraints are dependent");
  }

  // Particular solution: A x_p = b with x_p = Q [R^-T b; 0].
  const Matrix r = qr.r();
  Vector y1(p);
  for (std::size_t i = 0; i < p; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= r(j, i) * y1[j];  // R^T forward substitution
    y1[i] = s / r(i, i);
  }
  Vector y_full(n, 0.0);
  std::copy(y1.begin(), y1.end(), y_full.begin());
  const Vector x_particular = qr.q_apply(y_full);

  // Null-space basis: trailing n-p columns of Q.
  const Matrix q_full = qr.q_full();
  const std::size_t nz = n - p;
  Matrix z(n, nz);
  for (std::size_t rr = 0; rr < n; ++rr) {
    for (std::size_t c = 0; c < nz; ++c) z(rr, c) = q_full(rr, p + c);
  }

  // Reduced problem in z: 1/2 z' (Z'HZ) z + (Z'(g + H x_p))' z,
  // subject to (M Z) z <= gamma - M x_p.
  const Matrix hz = z.transpose() * h * z;
  const Vector hxp = h * std::span<const double>(x_particular);
  const Vector tmp = add(g, hxp);
  const Vector gz = z.transpose() * std::span<const double>(tmp);

  Matrix mz;
  Vector gamma_z;
  if (q > 0) {
    mz = m * z;
    const Vector mxp = m * std::span<const double>(x_particular);
    gamma_z = sub(gamma, mxp);
  }
  QpResult reduced = solve_inequality_qp(hz, gz, mz, gamma_z, max_iterations);

  QpResult result;
  result.converged = reduced.converged;
  result.iterations = reduced.iterations;
  const Vector zx = z * std::span<const double>(reduced.x);
  result.x = add(x_particular, zx);
  result.objective = qp_objective(h, g, result.x);
  return result;
}

QpResult solve_box_qp(const Matrix& h, std::span<const double> g, std::span<const double> lo,
                      std::span<const double> hi, const Matrix& a, std::span<const double> b,
                      std::size_t max_iterations) {
  const std::size_t n = h.rows();
  if (lo.size() != n || hi.size() != n) throw std::invalid_argument("box_qp: bound sizes");
  for (std::size_t i = 0; i < n; ++i) {
    if (lo[i] > hi[i]) throw std::invalid_argument("box_qp: lo > hi");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Assemble finite box bounds as inequality rows M x <= gamma.
  std::vector<std::pair<double, std::size_t>> rows;  // (sign, coordinate)
  for (std::size_t i = 0; i < n; ++i) {
    if (hi[i] < kInf) rows.emplace_back(+1.0, i);
    if (lo[i] > -kInf) rows.emplace_back(-1.0, i);
  }
  Matrix m(rows.size(), n);
  Vector gamma(rows.size(), 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto [sign, i] = rows[r];
    m(r, i) = sign;
    gamma[r] = sign > 0 ? hi[i] : -lo[i];
  }

  QpResult result = solve_general_qp(h, g, a, b, m, gamma, max_iterations);
  // Guard against small dual-iteration overshoot: project onto the box.
  // (With equality constraints present this projection can perturb A x = b
  // by at most the same overshoot; the MPC treats that as model error.)
  for (std::size_t i = 0; i < n; ++i) result.x[i] = std::clamp(result.x[i], lo[i], hi[i]);
  result.objective = qp_objective(h, g, result.x);
  return result;
}

}  // namespace vdc::linalg
