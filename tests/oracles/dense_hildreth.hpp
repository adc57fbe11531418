// Differential oracle for linalg::solve_inequality_qp: the dense Hildreth
// procedure exactly as the solver ran it before its sweep learned to skip
// zero multipliers. The production solver must reproduce this bit for bit
// (tests/test_qp_differential.cpp).
#pragma once

#include "linalg/qp.hpp"

namespace vdc::oracles {

/// min 1/2 x'Hx + g'x  s.t.  M x <= gamma, by dense Hildreth sweeps over
/// every multiplier. Same contract and defaults as
/// linalg::solve_inequality_qp.
[[nodiscard]] linalg::QpResult dense_hildreth_qp(const linalg::Matrix& h,
                                                 std::span<const double> g,
                                                 const linalg::Matrix& m,
                                                 std::span<const double> gamma,
                                                 std::size_t max_iterations = 2000,
                                                 double tolerance = 1e-9);

}  // namespace vdc::oracles
