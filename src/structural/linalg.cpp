#include "structural/linalg.h"

#include <cassert>
#include <cmath>

namespace nees::structural {

Vector operator+(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector operator-(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector operator*(double scalar, const Vector& v) {
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = scalar * v[i];
  return out;
}

double Dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double NormInf(const Vector& v) {
  double max = 0.0;
  for (double x : v) max = std::max(max, std::fabs(x));
  return max;
}

double Norm2(const Vector& v) { return std::sqrt(Dot(v, v)); }

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::operator+(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] + other.data_[i];
  }
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] - other.data_[i];
  }
  return out;
}

Matrix Matrix::operator*(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += aik * other(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] * scalar;
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  Vector out;
  MultiplyInto(v, out);
  return out;
}

void Matrix::MultiplyInto(const Vector& v, Vector& out) const {
  assert(cols_ == v.size() && &out != &v);
  out.resize(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) sum += (*this)(i, j) * v[j];
    out[i] = sum;
  }
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

double Matrix::Distance(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double sum = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = data_[i] - other.data_[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

bool Matrix::IsSymmetric(double tolerance) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      if (std::fabs((*this)(i, j) - (*this)(j, i)) > tolerance) return false;
    }
  }
  return true;
}

util::Result<LuFactorization> LuFactorization::Compute(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return util::InvalidArgument("LU requires a square matrix");
  }
  const std::size_t n = a.rows();
  LuFactorization f;
  f.lu_ = a;
  f.pivots_.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.pivots_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude in this column at/below the diagonal.
    std::size_t pivot_row = col;
    double pivot_value = std::fabs(f.lu_(col, col));
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::fabs(f.lu_(row, col)) > pivot_value) {
        pivot_value = std::fabs(f.lu_(row, col));
        pivot_row = row;
      }
    }
    if (pivot_value < 1e-13) {
      return util::FailedPrecondition("matrix is singular");
    }
    if (pivot_row != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(f.lu_(col, j), f.lu_(pivot_row, j));
      }
      std::swap(f.pivots_[col], f.pivots_[pivot_row]);
      f.pivot_sign_ = -f.pivot_sign_;
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      f.lu_(row, col) /= f.lu_(col, col);
      const double factor = f.lu_(row, col);
      for (std::size_t j = col + 1; j < n; ++j) {
        f.lu_(row, j) -= factor * f.lu_(col, j);
      }
    }
  }
  return f;
}

Vector LuFactorization::Solve(const Vector& b) const {
  Vector x;
  SolveInto(b, x);
  return x;
}

void LuFactorization::SolveInto(const Vector& b, Vector& x) const {
  const std::size_t n = lu_.rows();
  assert(b.size() == n && &x != &b);
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[pivots_[i]];
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
  }
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu_(i, j) * x[j];
    x[i] /= lu_(i, i);
  }
}

Matrix LuFactorization::Solve(const Matrix& b) const {
  Matrix x(b.rows(), b.cols());
  Vector column(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) column[i] = b(i, j);
    const Vector solved = Solve(column);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = solved[i];
  }
  return x;
}

double LuFactorization::Determinant() const {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

util::Result<Vector> SolveLinear(const Matrix& a, const Vector& b) {
  NEES_ASSIGN_OR_RETURN(LuFactorization lu, LuFactorization::Compute(a));
  return lu.Solve(b);
}

util::Result<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return util::InvalidArgument("Cholesky requires a square matrix");
  }
  if (!a.IsSymmetric(1e-8)) {
    return util::FailedPrecondition("Cholesky requires a symmetric matrix");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          return util::FailedPrecondition("matrix is not positive definite");
        }
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

util::Result<Matrix> Inverse(const Matrix& a) {
  NEES_ASSIGN_OR_RETURN(LuFactorization lu, LuFactorization::Compute(a));
  return lu.Solve(Matrix::Identity(a.rows()));
}

util::Result<double> LargestEigenvalue(const Matrix& a, int iterations) {
  if (a.rows() != a.cols() || a.rows() == 0) {
    return util::InvalidArgument("eigenvalue estimate requires square matrix");
  }
  Vector v(a.rows(), 1.0);
  v[0] = 1.3;  // break symmetry against eigenvector-orthogonal starts
  double lambda = 0.0;
  for (int i = 0; i < iterations; ++i) {
    Vector w = a * v;
    const double norm = Norm2(w);
    if (norm < 1e-300) return util::FailedPrecondition("matrix maps to zero");
    v = (1.0 / norm) * w;
    lambda = Dot(v, a * v) / Dot(v, v);
  }
  return lambda;
}

util::Result<double> SmallestEigenvalue(const Matrix& a, int iterations) {
  NEES_ASSIGN_OR_RETURN(LuFactorization lu, LuFactorization::Compute(a));
  Vector v(a.rows(), 1.0);
  v[0] = 1.3;
  double mu = 0.0;
  for (int i = 0; i < iterations; ++i) {
    Vector w = lu.Solve(v);
    const double norm = Norm2(w);
    if (norm < 1e-300) return util::FailedPrecondition("inverse maps to zero");
    v = (1.0 / norm) * w;
    mu = Dot(v, a * v) / Dot(v, v);
  }
  return mu;
}

}  // namespace nees::structural
