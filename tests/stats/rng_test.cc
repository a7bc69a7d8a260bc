#include "stats/rng.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "linalg/vector_ops.h"

namespace randrecon {
namespace stats {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Gaussian(), b.Gaussian());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Gaussian() != b.Gaussian()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(7);
  linalg::Vector sample = rng.GaussianVector(100000);
  EXPECT_NEAR(linalg::Mean(sample), 0.0, 0.02);
  EXPECT_NEAR(linalg::Variance(sample), 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(8);
  linalg::Vector sample = rng.GaussianVector(100000, 3.0, 2.0);
  EXPECT_NEAR(linalg::Mean(sample), 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(linalg::Variance(sample)), 2.0, 0.05);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMatrixShapeAndVariance) {
  Rng rng(11);
  linalg::Matrix m = rng.GaussianMatrix(200, 50);
  EXPECT_EQ(m.rows(), 200u);
  EXPECT_EQ(m.cols(), 50u);
  double sum = 0.0, sumsq = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sumsq += m.data()[i] * m.data()[i];
  }
  const double n = static_cast<double>(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

// Rng is the Philox stream, and its scalar draws return what one-element
// fills would: draw i is an element of the canonical slice sequence, bit
// for bit.
TEST(RngTest, GaussianDrawsAreCanonicalSliceElements) {
  // Each scalar Gaussian consumes a whole Box–Muller pair and keeps its
  // cosine element, so draw i is slice element 2i.
  Rng rng(7);
  double slice[32];
  GaussianSliceAt(Philox(7), 0, slice, 32);
  for (int i = 0; i < 16; ++i) {
    const double draw = rng.Gaussian();
    EXPECT_EQ(std::memcmp(&draw, &slice[2 * i], sizeof(double)), 0) << i;
  }
}

TEST(RngTest, UniformDrawsAreCanonicalSliceElements) {
  Rng rng(7);
  double slice[16];
  UniformSliceAt(Philox(7), -2.5, 7.5, 0, slice, 16);
  for (int i = 0; i < 16; ++i) {
    const double draw = rng.Uniform(-2.5, 7.5);
    EXPECT_EQ(std::memcmp(&draw, &slice[i], sizeof(double)), 0) << i;
  }
}

TEST(RngTest, InterleavedDrawSequenceIsPinned) {
  // Gaussian/uniform/int/seed draws interleave through one cursor;
  // golden values of the canonical Philox sequence.
  Rng rng(77);
  EXPECT_EQ(rng.Gaussian(), 1.7750480769313883);
  EXPECT_EQ(rng.Uniform(0.0, 1.0), 0.014624036872991297);
  EXPECT_EQ(rng.UniformInt(0, 99), 96);
  EXPECT_EQ(rng.Gaussian(2.0, 3.0), 2.6315299811613002);
  EXPECT_EQ(rng.UniformInt(-10, 1000), 217);
  EXPECT_EQ(rng.NextSeed(), 7288445693524829327ull);
  EXPECT_EQ(rng.Uniform(-1.0, 1.0), -0.94934100792262544);
}

TEST(RngTest, UniformIntCoversWidthPowerOfTwoPlusOne) {
  // Widths 2^k + 1 sit just above a power of two, where rejection does
  // the most work: every value of [-4, 4] appears about equally often.
  Rng rng(21);
  int counts[9] = {0};
  for (int i = 0; i < 9000; ++i) {
    const int64_t v = rng.UniformInt(-4, 4);  // width 2^3 + 1
    ASSERT_GE(v, -4);
    ASSERT_LE(v, 4);
    ++counts[v + 4];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
  // Width 2^63 + 1: about half of all 64-bit words are rejected, and the
  // accepted draws still split evenly around the midpoint.
  const int64_t half = int64_t{1} << 62;
  int below = 0;
  for (int i = 0; i < 4000; ++i) {
    const int64_t v = rng.UniformInt(-half, half);
    ASSERT_GE(v, -half);
    ASSERT_LE(v, half);
    below += v < 0 ? 1 : 0;
  }
  EXPECT_NEAR(below, 2000, 200);
  // Width 3·2^62: a plain Next64() % width would give the lowest third
  // of the range half of the mass; rejection gives it a third.
  const int64_t lo = std::numeric_limits<int64_t>::min();  // -2^63
  int low_third = 0;
  for (int i = 0; i < 4000; ++i) {
    const int64_t v = rng.UniformInt(lo, half - 1);  // lo + 3·2^62 - 1
    ASSERT_LE(v, half - 1);
    low_third += v < -half ? 1 : 0;
  }
  EXPECT_NEAR(low_third, 4000 / 3, 120);
}

TEST(RngTest, NextSeedProducesIndependentStreams) {
  Rng parent(12);
  Rng child1(parent.NextSeed());
  Rng child2(parent.NextSeed());
  // The streams should not be identical.
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (child1.Gaussian() != child2.Gaussian()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace stats
}  // namespace randrecon
