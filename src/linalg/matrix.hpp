// Small dense linear algebra for the MPC controller and system
// identification. Matrices here are tiny (tens of rows), so the
// implementation favors clarity and numerical robustness over blocking.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace vdc::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Row-wise construction: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// Diagonal matrix from a vector.
  static Matrix diag(std::span<const double> d);
  /// Column vector (n x 1) from a vector.
  static Matrix column(std::span<const double> v);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  // Bounds-checked element access. Inline because the QP solver's inner
  // loops read through it; the throw lives out of line.
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) [[unlikely]] throw_out_of_range();
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) [[unlikely]] throw_out_of_range();
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }
  [[nodiscard]] std::span<double> data() noexcept { return data_; }

  [[nodiscard]] Matrix transpose() const;
  [[nodiscard]] Matrix operator+(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator-(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator*(double scalar) const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double scalar);

  /// Matrix-vector product (x.size() must equal cols()).
  [[nodiscard]] Vector operator*(std::span<const double> x) const;

  /// Writes rhs into the block with top-left corner (r0, c0).
  void set_block(std::size_t r0, std::size_t c0, const Matrix& block);
  [[nodiscard]] Matrix block(std::size_t r0, std::size_t c0, std::size_t rows,
                             std::size_t cols) const;

  /// Frobenius norm.
  [[nodiscard]] double norm() const noexcept;
  /// Max |a_ij| — used in tolerance scaling.
  [[nodiscard]] double max_abs() const noexcept;

  [[nodiscard]] std::string to_string(int precision = 4) const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  [[noreturn]] static void throw_out_of_range();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- free vector helpers (Vector is std::vector<double>) -------------------

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);
[[nodiscard]] double norm2(std::span<const double> v) noexcept;
[[nodiscard]] Vector add(std::span<const double> a, std::span<const double> b);
[[nodiscard]] Vector sub(std::span<const double> a, std::span<const double> b);
[[nodiscard]] Vector scale(std::span<const double> v, double s);
/// a += s * b (axpy).
void axpy(double s, std::span<const double> b, std::span<double> a);

/// Spectral radius via the power iteration with deflation fallback; used by
/// the closed-loop stability analysis. Returns an estimate of max |lambda|.
[[nodiscard]] double spectral_radius(const Matrix& a, std::size_t iterations = 500);

}  // namespace vdc::linalg
