#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace vdc::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diag(std::span<const double> d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::column(std::span<const double> v) {
  Matrix m(v.size(), 1);
  for (std::size_t i = 0; i < v.size(); ++i) m(i, 0) = v[i];
  return m;
}

void Matrix::throw_out_of_range() { throw std::out_of_range("Matrix: index out of range"); }

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = data_[r * cols_ + c];
  }
  return t;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  Matrix out = *this;
  out += rhs;
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  Matrix out = *this;
  out -= rhs;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) throw std::invalid_argument("Matrix+: shape");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) throw std::invalid_argument("Matrix-: shape");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out = *this;
  out *= scalar;
  return out;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix*: inner dimensions differ");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[r * cols_ + k];
      // vdc-lint: float-eq-ok sparsity skip: exact zero only short-circuits work, any nonzero entry takes the full multiply path
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out.data_[r * rhs.cols_ + c] += a * rhs.data_[k * rhs.cols_ + c];
      }
    }
  }
  return out;
}

Vector Matrix::operator*(std::span<const double> x) const {
  if (cols_ != x.size()) throw std::invalid_argument("Matrix*v: dimension mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += data_[r * cols_ + c] * x[c];
    y[r] = s;
  }
  return y;
}

void Matrix::set_block(std::size_t r0, std::size_t c0, const Matrix& b) {
  if (r0 + b.rows_ > rows_ || c0 + b.cols_ > cols_) {
    throw std::out_of_range("Matrix::set_block: block exceeds bounds");
  }
  for (std::size_t r = 0; r < b.rows_; ++r) {
    for (std::size_t c = 0; c < b.cols_; ++c) {
      data_[(r0 + r) * cols_ + (c0 + c)] = b.data_[r * b.cols_ + c];
    }
  }
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t rows, std::size_t cols) const {
  if (r0 + rows > rows_ || c0 + cols > cols_) {
    throw std::out_of_range("Matrix::block: block exceeds bounds");
  }
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out(r, c) = data_[(r0 + r) * cols_ + (c0 + c)];
    }
  }
  return out;
}

double Matrix::norm() const noexcept {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::max_abs() const noexcept {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream out;
  out.precision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    out << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) out << ", ";
      out << data_[r * cols_ + c];
    }
    out << (r + 1 == rows_ ? "]]" : "]\n");
  }
  return out.str();
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> v) noexcept {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

Vector add(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("add: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("sub: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(std::span<const double> v, double s) {
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] * s;
  return out;
}

void axpy(double s, std::span<const double> b, std::span<double> a) {
  if (a.size() != b.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

double spectral_radius(const Matrix& a, std::size_t iterations) {
  if (!a.square()) throw std::invalid_argument("spectral_radius: matrix must be square");
  if (a.rows() == 0) return 0.0;
  // rho(A) = lim_k ||A^k||^{1/k}; repeated squaring with renormalization
  // converges quickly and is robust to complex-conjugate eigenvalue pairs
  // (where plain power iteration on the vector oscillates).
  Matrix p = a;
  double log_scale = 0.0;
  double power = 1.0;  // p approximates A^power / exp(log_scale)
  const std::size_t squarings = std::min<std::size_t>(40, iterations);
  for (std::size_t i = 0; i < squarings; ++i) {
    const double n = p.norm();
    // vdc-lint: float-eq-ok a norm of exactly 0.0 means the iterate is identically zero; the guard avoids log(0)
    if (n == 0.0) return 0.0;
    p *= 1.0 / n;
    log_scale += std::log(n);
    p = p * p;
    log_scale *= 2.0;
    power *= 2.0;
  }
  const double n = p.norm();
  // vdc-lint: float-eq-ok a norm of exactly 0.0 means the iterate is identically zero; the guard avoids log(0)
  if (n == 0.0) return 0.0;
  return std::exp((log_scale + std::log(n)) / power);
}

}  // namespace vdc::linalg
