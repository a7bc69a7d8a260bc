#include "stats/distribution.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/vector_ops.h"

namespace randrecon {
namespace stats {
namespace {

TEST(StandardNormalTest, PdfPeakAndSymmetry) {
  EXPECT_NEAR(StandardNormalPdf(0.0), 0.3989422804, 1e-9);
  EXPECT_DOUBLE_EQ(StandardNormalPdf(1.5), StandardNormalPdf(-1.5));
}

TEST(StandardNormalTest, CdfKnownValues) {
  EXPECT_NEAR(StandardNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StandardNormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(StandardNormalCdf(-1.96), 0.025, 1e-3);
}

TEST(NormalDistributionTest, Moments) {
  NormalDistribution d(2.0, 3.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 9.0);
  EXPECT_DOUBLE_EQ(d.stddev(), 3.0);
}

TEST(NormalDistributionTest, PdfIntegratesToOne) {
  NormalDistribution d(1.0, 2.0);
  // Trapezoid over ±8σ.
  double integral = 0.0;
  const double step = 0.01;
  for (double x = 1.0 - 16.0; x < 1.0 + 16.0; x += step) {
    integral += d.Pdf(x) * step;
  }
  EXPECT_NEAR(integral, 1.0, 1e-6);
}

TEST(NormalDistributionTest, CdfMatchesPdfIntegral) {
  NormalDistribution d(0.0, 1.5);
  double integral = 0.0;
  const int num_steps = 12750;  // Exactly covers [-12, 0.75].
  const double step = (0.75 - (-12.0)) / num_steps;
  // Midpoint rule keeps the discretization error well under tolerance.
  for (int k = 0; k < num_steps; ++k) {
    integral += d.Pdf(-12.0 + (k + 0.5) * step) * step;
  }
  EXPECT_NEAR(integral, d.Cdf(0.75), 1e-4);
}

TEST(NormalDistributionTest, SampleMoments) {
  NormalDistribution d(-1.0, 0.5);
  Rng rng(13);
  linalg::Vector sample(50000);
  d.SampleSliceAt(rng, 0, sample.data(), sample.size());
  EXPECT_NEAR(linalg::Mean(sample), -1.0, 0.02);
  EXPECT_NEAR(linalg::Variance(sample), 0.25, 0.01);
}

TEST(NormalDistributionTest, CloneIsIndependentCopy) {
  NormalDistribution d(4.0, 2.0);
  auto clone = d.Clone();
  EXPECT_DOUBLE_EQ(clone->Mean(), 4.0);
  EXPECT_DOUBLE_EQ(clone->Variance(), 4.0);
  EXPECT_DOUBLE_EQ(clone->Pdf(4.0), d.Pdf(4.0));
}

TEST(NormalDistributionTest, ToStringMentionsParameters) {
  NormalDistribution d(0.0, 5.0);
  EXPECT_NE(d.ToString().find("Normal"), std::string::npos);
  EXPECT_NE(d.ToString().find("25"), std::string::npos);  // Variance.
}

TEST(NormalDistributionDeathTest, RejectsNonPositiveStddev) {
  EXPECT_DEATH({ NormalDistribution d(0.0, 0.0); }, "positive stddev");
}

TEST(UniformDistributionTest, Moments) {
  UniformDistribution d(-3.0, 3.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.0);
  EXPECT_NEAR(d.Variance(), 3.0, 1e-12);  // (b-a)²/12 = 36/12.
}

TEST(UniformDistributionTest, PdfConstantInsideZeroOutside) {
  UniformDistribution d(0.0, 4.0);
  EXPECT_DOUBLE_EQ(d.Pdf(2.0), 0.25);
  EXPECT_DOUBLE_EQ(d.Pdf(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(d.Pdf(4.1), 0.0);
}

TEST(UniformDistributionTest, CdfPiecewise) {
  UniformDistribution d(0.0, 4.0);
  EXPECT_DOUBLE_EQ(d.Cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.Cdf(5.0), 1.0);
}

TEST(UniformDistributionTest, SamplesStayInRange) {
  UniformDistribution d(-1.0, 1.0);
  Rng rng(14);
  linalg::Vector sample(1000);
  d.SampleSliceAt(rng, 0, sample.data(), sample.size());
  for (const double v : sample) {
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(UniformDistributionDeathTest, RejectsEmptyInterval) {
  EXPECT_DEATH({ UniformDistribution d(1.0, 1.0); }, "lo < hi");
}

TEST(LaplaceDistributionTest, Moments) {
  LaplaceDistribution d(1.0, 2.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 1.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 8.0);  // 2b².
}

TEST(LaplaceDistributionTest, PdfPeakAndSymmetry) {
  LaplaceDistribution d(0.0, 1.0);
  EXPECT_DOUBLE_EQ(d.Pdf(0.0), 0.5);
  EXPECT_DOUBLE_EQ(d.Pdf(2.0), d.Pdf(-2.0));
  EXPECT_NEAR(d.Pdf(1.0), 0.5 * std::exp(-1.0), 1e-12);
}

TEST(LaplaceDistributionTest, CdfKnownValues) {
  LaplaceDistribution d(0.0, 1.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.0), 0.5);
  EXPECT_NEAR(d.Cdf(1.0), 1.0 - 0.5 * std::exp(-1.0), 1e-12);
  EXPECT_NEAR(d.Cdf(-1.0), 0.5 * std::exp(-1.0), 1e-12);
}

TEST(LaplaceDistributionTest, SampleMoments) {
  LaplaceDistribution d(3.0, 1.5);
  Rng rng(15);
  linalg::Vector sample(80000);
  d.SampleSliceAt(rng, 0, sample.data(), sample.size());
  EXPECT_NEAR(linalg::Mean(sample), 3.0, 0.05);
  EXPECT_NEAR(linalg::Variance(sample), 4.5, 0.15);
}

TEST(LaplaceDistributionTest, HeavierTailsThanNormalOfSameVariance) {
  LaplaceDistribution laplace(0.0, 1.0);            // Variance 2.
  NormalDistribution normal(0.0, std::sqrt(2.0));   // Variance 2.
  EXPECT_GT(laplace.Pdf(5.0), normal.Pdf(5.0));
}

TEST(LaplaceDistributionDeathTest, RejectsNonPositiveScale) {
  EXPECT_DEATH({ LaplaceDistribution d(0.0, 0.0); }, "positive scale");
}

TEST(DistributionBatchTest, SlicesMatchDistributionMoments) {
  const size_t n = 120000;
  std::vector<double> draws(n);

  NormalDistribution normal(1.0, 2.0);
  normal.SampleSliceAt(Philox(2, 0), 0, draws.data(), n);
  double sum = 0.0, sq = 0.0;
  for (double v : draws) { sum += v; sq += v * v; }
  EXPECT_NEAR(sum / n, 1.0, 0.03);
  EXPECT_NEAR(sq / n - (sum / n) * (sum / n), 4.0, 0.1);

  UniformDistribution uniform(-3.0, 1.0);
  uniform.SampleSliceAt(Philox(3, 0), 0, draws.data(), n);
  sum = sq = 0.0;
  for (double v : draws) {
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 1.0);
    sum += v; sq += v * v;
  }
  EXPECT_NEAR(sum / n, -1.0, 0.03);
  EXPECT_NEAR(sq / n - (sum / n) * (sum / n), 16.0 / 12.0, 0.05);

  LaplaceDistribution laplace(0.5, 1.5);
  laplace.SampleSliceAt(Philox(4, 0), 0, draws.data(), n);
  sum = sq = 0.0;
  for (double v : draws) { sum += v; sq += v * v; }
  EXPECT_NEAR(sum / n, 0.5, 0.03);
  EXPECT_NEAR(sq / n - (sum / n) * (sum / n), 2.0 * 1.5 * 1.5, 0.15);
}

TEST(DistributionBatchTest, SlicesAreElementIndexed) {
  // Slice [k, k+len) must be the window of slice [0, n) — the property
  // the independent-noise batch path relies on for straddled blocks.
  LaplaceDistribution laplace(0.0, 1.0);
  std::vector<double> whole(500), window(100);
  const Philox stream(9, 7);
  laplace.SampleSliceAt(stream, 0, whole.data(), whole.size());
  laplace.SampleSliceAt(stream, 123, window.data(), window.size());
  for (size_t i = 0; i < window.size(); ++i) {
    ASSERT_EQ(window[i], whole[123 + i]) << i;
  }
}

}  // namespace
}  // namespace stats
}  // namespace randrecon
