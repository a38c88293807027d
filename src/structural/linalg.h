// Small dense linear algebra for the structural models: enough to assemble
// frame stiffness/mass matrices, statically condense substructures, and run
// time integrators. Row-major storage, LU with partial pivoting, Cholesky
// for SPD systems. Sizes here are tiny (tens of DOFs), so clarity wins over
// blocking/vectorization.
#pragma once

#include <cstddef>
#include <vector>

#include "util/result.h"

namespace nees::structural {

using Vector = std::vector<double>;

Vector operator+(const Vector& a, const Vector& b);
Vector operator-(const Vector& a, const Vector& b);
Vector operator*(double scalar, const Vector& v);
double Dot(const Vector& a, const Vector& b);
double NormInf(const Vector& v);
double Norm2(const Vector& v);

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;
  Matrix operator*(double scalar) const;
  Vector operator*(const Vector& v) const;
  /// `out` = this * v, reusing `out`'s storage (must not alias `v`).
  void MultiplyInto(const Vector& v, Vector& out) const;
  Matrix Transpose() const;

  /// Frobenius-norm distance, for test assertions.
  double Distance(const Matrix& other) const;

  bool IsSymmetric(double tolerance = 1e-9) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting; reusable for multiple solves.
class LuFactorization {
 public:
  /// Fails with kInvalidArgument for non-square, kFailedPrecondition for
  /// (numerically) singular matrices.
  static util::Result<LuFactorization> Compute(const Matrix& a);

  Vector Solve(const Vector& b) const;
  /// Solve() into `x`, reusing its storage (must not alias `b`).
  void SolveInto(const Vector& b, Vector& x) const;
  Matrix Solve(const Matrix& b) const;
  double Determinant() const;

 private:
  Matrix lu_;
  std::vector<std::size_t> pivots_;
  int pivot_sign_ = 1;
};

/// Solves a x = b by LU; convenience for one-off systems.
util::Result<Vector> SolveLinear(const Matrix& a, const Vector& b);

/// Cholesky (a = L L^T) for symmetric positive definite systems; fails with
/// kFailedPrecondition if `a` is not SPD.
util::Result<Matrix> CholeskyFactor(const Matrix& a);

/// Inverse via LU (small matrices only).
util::Result<Matrix> Inverse(const Matrix& a);

/// Smallest/largest eigenvalue estimates of a symmetric matrix by (inverse)
/// power iteration — used for modal sanity checks of assembled frames.
util::Result<double> LargestEigenvalue(const Matrix& a, int iterations = 200);
util::Result<double> SmallestEigenvalue(const Matrix& a, int iterations = 200);

}  // namespace nees::structural
