#include "perturb/noise_model.h"

#include <cmath>

#include "linalg/matrix_util.h"

namespace randrecon {
namespace perturb {
namespace {

std::vector<std::unique_ptr<stats::ScalarDistribution>> GaussianMarginals(
    const linalg::Matrix& covariance) {
  std::vector<std::unique_ptr<stats::ScalarDistribution>> marginals;
  marginals.reserve(covariance.rows());
  for (size_t j = 0; j < covariance.rows(); ++j) {
    const double var = covariance(j, j);
    marginals.push_back(std::make_unique<stats::NormalDistribution>(
        0.0, std::sqrt(var > 0.0 ? var : 1e-12)));
  }
  return marginals;
}

}  // namespace

NoiseModel NoiseModel::IndependentGaussian(size_t num_attributes,
                                           double stddev) {
  RR_CHECK_GT(stddev, 0.0);
  linalg::Vector diag(num_attributes, stddev * stddev);
  linalg::Matrix covariance = linalg::Matrix::Diagonal(diag);
  return NoiseModel(false, std::move(covariance),
                    GaussianMarginals(linalg::Matrix::Diagonal(diag)));
}

Result<NoiseModel> NoiseModel::Independent(
    std::unique_ptr<stats::ScalarDistribution> per_attribute,
    size_t num_attributes) {
  if (per_attribute == nullptr) {
    return Status::InvalidArgument("NoiseModel: null distribution");
  }
  if (num_attributes == 0) {
    return Status::InvalidArgument("NoiseModel: zero attributes");
  }
  if (std::fabs(per_attribute->Mean()) > 1e-9) {
    return Status::InvalidArgument(
        "NoiseModel: randomization noise must have zero mean, got " +
        std::to_string(per_attribute->Mean()));
  }
  const double var = per_attribute->Variance();
  linalg::Matrix covariance =
      linalg::Matrix::Diagonal(linalg::Vector(num_attributes, var));
  std::vector<std::unique_ptr<stats::ScalarDistribution>> marginals;
  marginals.reserve(num_attributes);
  for (size_t j = 0; j < num_attributes; ++j) {
    marginals.push_back(per_attribute->Clone());
  }
  return NoiseModel(false, std::move(covariance), std::move(marginals));
}

Result<NoiseModel> NoiseModel::CorrelatedGaussian(linalg::Matrix covariance) {
  if (covariance.rows() != covariance.cols()) {
    return Status::InvalidArgument("NoiseModel: covariance not square");
  }
  if (!linalg::IsSymmetric(covariance,
                           1e-8 * (1.0 + linalg::FrobeniusNorm(covariance)))) {
    return Status::InvalidArgument("NoiseModel: covariance not symmetric");
  }
  for (size_t j = 0; j < covariance.rows(); ++j) {
    if (covariance(j, j) <= 0.0) {
      return Status::InvalidArgument(
          "NoiseModel: non-positive noise variance on attribute " +
          std::to_string(j));
    }
  }
  auto marginals = GaussianMarginals(covariance);
  return NoiseModel(true, std::move(covariance), std::move(marginals));
}

NoiseModel::NoiseModel(const NoiseModel& other)
    : correlated_(other.correlated_),
      covariance_(other.covariance_) {
  marginals_.reserve(other.marginals_.size());
  for (const auto& marginal : other.marginals_) {
    marginals_.push_back(marginal->Clone());
  }
}

NoiseModel& NoiseModel::operator=(const NoiseModel& other) {
  if (this == &other) return *this;
  correlated_ = other.correlated_;
  covariance_ = other.covariance_;
  marginals_.clear();
  marginals_.reserve(other.marginals_.size());
  for (const auto& marginal : other.marginals_) {
    marginals_.push_back(marginal->Clone());
  }
  return *this;
}

bool NoiseModel::HasUniformVariance(double tol) const {
  for (size_t j = 1; j < covariance_.rows(); ++j) {
    if (std::fabs(covariance_(j, j) - covariance_(0, 0)) > tol) return false;
  }
  return true;
}

const stats::ScalarDistribution& NoiseModel::Marginal(size_t j) const {
  RR_CHECK_LT(j, marginals_.size());
  return *marginals_[j];
}

void NoiseModel::SampleMarginalSliceAt(size_t j, const stats::Philox& stream,
                                       uint64_t elem_begin, double* out,
                                       size_t n) const {
  RR_CHECK_LT(j, marginals_.size());
  marginals_[j]->SampleSliceAt(stream, elem_begin, out, n);
}

}  // namespace perturb
}  // namespace randrecon
