#include "oracles/dense_hildreth.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/cholesky.hpp"

namespace vdc::oracles {

using linalg::CholeskyDecomposition;
using linalg::Matrix;
using linalg::QpResult;
using linalg::Vector;

// Kept verbatim (apart from the name) so any change in the production
// solver's arithmetic shows up as a bitwise difference. Do not optimize.
QpResult dense_hildreth_qp(const Matrix& h, std::span<const double> g, const Matrix& m,
                           std::span<const double> gamma, std::size_t max_iterations,
                           double tolerance) {
  const std::size_t n = h.rows();
  const std::size_t q = m.rows();
  if (!h.square() || g.size() != n) throw std::invalid_argument("inequality_qp: bad dims");
  if (q > 0 && m.cols() != n) throw std::invalid_argument("inequality_qp: M width mismatch");
  if (gamma.size() != q) throw std::invalid_argument("inequality_qp: gamma length mismatch");

  const CholeskyDecomposition chol(h);
  const Vector x0 = chol.solve(linalg::scale(g, -1.0));  // unconstrained minimizer

  QpResult result;
  if (q == 0) {
    result.x = x0;
    result.converged = true;
    result.objective = linalg::qp_objective(h, g, result.x);
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
    result.objective = linalg::qp_objective(h, g, result.x);
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

  Vector lambda(q, 0.0);
  std::size_t iter = 0;
  bool converged = false;
  for (; iter < max_iterations; ++iter) {
    double max_change = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      const double pii = p(i, i);
      if (pii <= 1e-14) continue;  // degenerate row: constraint parallel to others
      double s = k[i];
      for (std::size_t j = 0; j < q; ++j) {
        if (j != i) s += p(i, j) * lambda[j];
      }
      const double updated = std::max(0.0, -s / pii);
      max_change = std::max(max_change, std::abs(updated - lambda[i]));
      lambda[i] = updated;
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
  result.objective = linalg::qp_objective(h, g, result.x);
  return result;
}

}  // namespace vdc::oracles
