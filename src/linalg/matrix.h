// Dense row-major matrix of doubles.
//
// This is the workhorse type of the library: datasets (n records x m
// attributes), covariance matrices (m x m) and eigenvector bases are all
// Matrix values. The class is deliberately small; algorithms live in free
// functions (eigen.h, cholesky.h, lu.h, orthogonal.h, matrix_util.h).

#ifndef RANDRECON_LINALG_MATRIX_H_
#define RANDRECON_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/check.h"

namespace randrecon {
namespace linalg {

/// A column vector / 1-D array of doubles. Row extraction, mean vectors and
/// single records use this alias.
using Vector = std::vector<double>;

/// Dense row-major matrix. Entry (i, j) lives at data()[i * cols() + j].
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// A rows x cols matrix, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// A rows x cols matrix with every entry set to `fill`.
  Matrix(size_t rows, size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Constructs from nested initializer lists:
  ///   Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  /// All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Builds a matrix from a flat row-major buffer (size must be rows*cols).
  static Matrix FromRowMajor(size_t rows, size_t cols, std::vector<double> data);

  /// The k x k identity matrix.
  static Matrix Identity(size_t k);

  /// A square matrix with `diag` on the diagonal, zero elsewhere.
  static Matrix Diagonal(const Vector& diag);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Mutable entry access. Bounds-checked via RR_CHECK.
  double& operator()(size_t i, size_t j) {
    RR_CHECK(i < rows_ && j < cols_)
        << "index (" << i << "," << j << ") out of " << rows_ << "x" << cols_;
    return data_[i * cols_ + j];
  }

  /// Const entry access. Bounds-checked via RR_CHECK.
  double operator()(size_t i, size_t j) const {
    RR_CHECK(i < rows_ && j < cols_)
        << "index (" << i << "," << j << ") out of " << rows_ << "x" << cols_;
    return data_[i * cols_ + j];
  }

  /// Raw row-major storage (for tight inner loops).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Pointer to the start of row i.
  double* row_data(size_t i) { return data_.data() + i * cols_; }
  const double* row_data(size_t i) const { return data_.data() + i * cols_; }

  /// Copies row i into a Vector.
  Vector Row(size_t i) const;

  /// Copies column j into a Vector.
  Vector Col(size_t j) const;

  /// Overwrites row i from `values` (size must equal cols()).
  void SetRow(size_t i, const Vector& values);

  /// Overwrites column j from `values` (size must equal rows()).
  void SetCol(size_t j, const Vector& values);

  /// Returns the transpose.
  Matrix Transpose() const;

  /// Returns the sub-block of the first `num_cols` columns (used to form
  /// the principal-eigenvector matrix Q-hat in PCA-DR).
  Matrix LeftColumns(size_t num_cols) const;

  /// Returns the sub-block [row_begin, row_end) x [col_begin, col_end).
  Matrix Block(size_t row_begin, size_t row_end, size_t col_begin,
               size_t col_end) const;

  /// Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Exact element-wise equality (for round-trip tests; use
  /// MaxAbsDifference from matrix_util.h for tolerance comparisons).
  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Element-wise sum; shapes must match.
Matrix operator+(const Matrix& a, const Matrix& b);

/// Element-wise difference; shapes must match.
Matrix operator-(const Matrix& a, const Matrix& b);

/// Matrix product (a.cols() must equal b.rows()).
Matrix operator*(const Matrix& a, const Matrix& b);

/// Scalar product.
Matrix operator*(const Matrix& a, double scalar);

/// Matrix-vector product (a.cols() must equal x.size()).
Vector operator*(const Matrix& a, const Vector& x);

/// Row-vector-matrix product xᵀA (x.size() must equal a.rows()).
Vector MultiplyVectorMatrix(const Vector& x, const Matrix& a);

}  // namespace linalg
}  // namespace randrecon

#endif  // RANDRECON_LINALG_MATRIX_H_
