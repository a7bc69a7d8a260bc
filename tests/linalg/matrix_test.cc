#include "linalg/matrix.h"

#include <gtest/gtest.h>

namespace randrecon {
namespace linalg {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(0, 0), 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(MatrixDeathTest, RaggedInitializerListAborts) {
  auto make_ragged = [] { Matrix m{{1.0, 2.0}, {3.0}}; };
  EXPECT_DEATH(make_ragged(), "ragged");
}

TEST(MatrixTest, FromRowMajor) {
  Matrix m = Matrix::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
}

TEST(MatrixDeathTest, FromRowMajorSizeMismatchAborts) {
  EXPECT_DEATH({ Matrix::FromRowMajor(2, 2, {1, 2, 3}); }, "RR_CHECK");
}

TEST(MatrixTest, IdentityAndDiagonal) {
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id(0, 0), 1.0);
  EXPECT_EQ(id(0, 1), 0.0);
  Matrix d = Matrix::Diagonal({2.0, 5.0});
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 5.0);
  EXPECT_EQ(d(1, 0), 0.0);
}

TEST(MatrixDeathTest, OutOfBoundsAccessAborts) {
  Matrix m(2, 2);
  EXPECT_DEATH({ (void)m(2, 0); }, "out of");
  EXPECT_DEATH({ (void)m(0, 2); }, "out of");
}

TEST(MatrixTest, RowAndColExtraction) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.Row(1), (Vector{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (Vector{3, 6}));
}

TEST(MatrixTest, SetRowAndSetCol) {
  Matrix m(2, 2);
  m.SetRow(0, {1, 2});
  m.SetCol(1, {9, 8});
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 9.0);
  EXPECT_EQ(m(1, 1), 8.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(0, 1), 4.0);
  EXPECT_EQ(t(2, 0), 3.0);
}

TEST(MatrixTest, TransposeTwiceIsIdentityOp) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_TRUE(m.Transpose().Transpose() == m);
}

TEST(MatrixTest, LeftColumns) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix left = m.LeftColumns(2);
  EXPECT_EQ(left.cols(), 2u);
  EXPECT_EQ(left(1, 1), 5.0);
}

TEST(MatrixTest, Block) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  Matrix b = m.Block(1, 3, 0, 2);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.cols(), 2u);
  EXPECT_EQ(b(0, 0), 4.0);
  EXPECT_EQ(b(1, 1), 8.0);
}

TEST(MatrixTest, AdditionSubtraction) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  Matrix sum = a + b;
  EXPECT_EQ(sum(1, 1), 44.0);
  Matrix diff = b - a;
  EXPECT_EQ(diff(0, 0), 9.0);
}

TEST(MatrixDeathTest, ShapeMismatchAdditionAborts) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_DEATH({ a += b; }, "shape mismatch");
}

TEST(MatrixTest, ScalarMultiplication) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_EQ((a * 2.0)(1, 0), 6.0);
  EXPECT_EQ((a * 0.5)(0, 1), 1.0);
}

TEST(MatrixTest, MatrixProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a * b;
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, NonSquareProductShapes) {
  Matrix a(2, 3, 1.0);
  Matrix b(3, 4, 1.0);
  Matrix c = a * b;
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_EQ(c(0, 0), 3.0);
}

TEST(MatrixTest, IdentityIsMultiplicativeNeutral) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_TRUE(a * Matrix::Identity(2) == a);
  EXPECT_TRUE(Matrix::Identity(2) * a == a);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Vector x{1, 1};
  Vector y = a * x;
  EXPECT_EQ(y, (Vector{3, 7}));
}

TEST(MatrixTest, VectorMatrixProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Vector x{1, 1};
  EXPECT_EQ(MultiplyVectorMatrix(x, a), (Vector{4, 6}));
}

}  // namespace
}  // namespace linalg
}  // namespace randrecon
