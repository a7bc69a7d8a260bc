#include "linalg/matrix.h"

#include "linalg/kernels.h"

namespace randrecon {
namespace linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() == 0 ? 0 : rows.begin()->size()) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    RR_CHECK_EQ(row.size(), cols_) << "ragged initializer list";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::FromRowMajor(size_t rows, size_t cols, std::vector<double> data) {
  RR_CHECK_EQ(data.size(), rows * cols);
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(size_t k) {
  Matrix m(k, k);
  for (size_t i = 0; i < k; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  Matrix m(diag.size(), diag.size());
  for (size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Vector Matrix::Row(size_t i) const {
  RR_CHECK_LT(i, rows_);
  return Vector(row_data(i), row_data(i) + cols_);
}

Vector Matrix::Col(size_t j) const {
  RR_CHECK_LT(j, cols_);
  Vector out(rows_);
  for (size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + j];
  return out;
}

void Matrix::SetRow(size_t i, const Vector& values) {
  RR_CHECK_LT(i, rows_);
  RR_CHECK_EQ(values.size(), cols_);
  std::copy(values.begin(), values.end(), row_data(i));
}

void Matrix::SetCol(size_t j, const Vector& values) {
  RR_CHECK_LT(j, cols_);
  RR_CHECK_EQ(values.size(), rows_);
  for (size_t i = 0; i < rows_; ++i) data_[i * cols_ + j] = values[i];
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  kernels::TransposeInto(data_.data(), rows_, cols_, t.data_.data());
  return t;
}

Matrix Matrix::LeftColumns(size_t num_cols) const {
  RR_CHECK_LE(num_cols, cols_);
  return Block(0, rows_, 0, num_cols);
}

Matrix Matrix::Block(size_t row_begin, size_t row_end, size_t col_begin,
                     size_t col_end) const {
  RR_CHECK(row_begin <= row_end && row_end <= rows_);
  RR_CHECK(col_begin <= col_end && col_end <= cols_);
  Matrix out(row_end - row_begin, col_end - col_begin);
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* src = row_data(i) + col_begin;
    std::copy(src, src + (col_end - col_begin), out.row_data(i - row_begin));
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  RR_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  RR_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out += b;
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out -= b;
  return out;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  return kernels::MatMul(a, b);
}

Matrix operator*(const Matrix& a, double scalar) {
  Matrix out = a;
  out *= scalar;
  return out;
}


Vector operator*(const Matrix& a, const Vector& x) {
  RR_CHECK_EQ(a.cols(), x.size()) << "matvec shape mismatch";
  Vector out(a.rows(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row_data(i);
    double sum = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) sum += row[j] * x[j];
    out[i] = sum;
  }
  return out;
}

Vector MultiplyVectorMatrix(const Vector& x, const Matrix& a) {
  RR_CHECK_EQ(x.size(), a.rows()) << "vecmat shape mismatch";
  Vector out(a.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* row = a.row_data(i);
    for (size_t j = 0; j < a.cols(); ++j) out[j] += xi * row[j];
  }
  return out;
}

}  // namespace linalg
}  // namespace randrecon
