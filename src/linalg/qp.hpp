// Convex quadratic programming for the MPC controller:
//
//   minimize   (1/2) x^T H x + g^T x
//   subject to A x = b          (terminal constraint)
//              lo <= x <= hi    (actuator range)
//
// Equality constraints are eliminated with a QR null-space method; the
// remaining box-constrained problem is solved with Hildreth's dual
// coordinate-ascent procedure, a classic choice for embedded MPC.
#pragma once

#include <limits>
#include <optional>

#include "linalg/matrix.hpp"

namespace vdc::linalg {

struct QpResult {
  Vector x;
  bool converged = false;
  std::size_t iterations = 0;
  /// Objective value (1/2 x'Hx + g'x) at the returned point.
  double objective = 0.0;
};

/// Solves the purely equality-constrained QP via the KKT system
///   [H A^T; A 0] [x; lambda] = [-g; b].
/// Pass an empty `a` (0 rows) for an unconstrained minimization.
/// H must be positive definite on the null space of A.
[[nodiscard]] QpResult solve_equality_qp(const Matrix& h, std::span<const double> g,
                                         const Matrix& a, std::span<const double> b);

/// Hildreth's procedure for  min 1/2 x'Hx + g'x  s.t.  M x <= gamma.
/// H must be positive definite and M finite (std::invalid_argument
/// otherwise). Converges monotonically for convex QPs;
/// `converged` is false when the iteration cap was reached (the returned
/// point is still primal-feasible up to the active-constraint residual).
[[nodiscard]] QpResult solve_inequality_qp(const Matrix& h, std::span<const double> g,
                                           const Matrix& m, std::span<const double> gamma,
                                           std::size_t max_iterations = 2000,
                                           double tolerance = 1e-9);

/// General convex QP: equality constraints A x = b eliminated via a QR
/// null-space method, general inequalities M x <= gamma handled by
/// Hildreth's procedure on the reduced problem. Pass empty matrices for
/// absent constraint blocks.
[[nodiscard]] QpResult solve_general_qp(const Matrix& h, std::span<const double> g,
                                        const Matrix& a, std::span<const double> b,
                                        const Matrix& m, std::span<const double> gamma,
                                        std::size_t max_iterations = 2000);

/// Full MPC problem: box bounds plus optional equality constraints.
/// Use +/-infinity in hi/lo for unbounded coordinates.
[[nodiscard]] QpResult solve_box_qp(const Matrix& h, std::span<const double> g,
                                    std::span<const double> lo, std::span<const double> hi,
                                    const Matrix& a = Matrix(), std::span<const double> b = {},
                                    std::size_t max_iterations = 2000);

/// Evaluates (1/2) x^T H x + g^T x.
[[nodiscard]] double qp_objective(const Matrix& h, std::span<const double> g,
                                  std::span<const double> x);

}  // namespace vdc::linalg
