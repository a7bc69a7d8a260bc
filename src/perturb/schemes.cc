#include "perturb/schemes.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "linalg/eigen.h"
#include "linalg/matrix_util.h"

namespace randrecon {
namespace perturb {

linalg::Matrix RandomizationScheme::GenerateNoise(size_t num_records,
                                                  stats::Philox* gen) const {
  linalg::Matrix noise(num_records, num_attributes(), 0.0);
  AddNoiseAt(gen->Substream(gen->Next64()), 0, num_records, &noise);
  return noise;
}

Result<data::Dataset> RandomizationScheme::Disguise(
    const data::Dataset& original, stats::Philox* gen) const {
  if (original.num_attributes() != num_attributes()) {
    return Status::InvalidArgument(
        "Disguise: dataset has " + std::to_string(original.num_attributes()) +
        " attributes, scheme expects " + std::to_string(num_attributes()));
  }
  linalg::Matrix disguised = original.records();
  const linalg::Matrix noise = GenerateNoise(original.num_records(), gen);
  disguised += noise;
  return data::Dataset::Create(std::move(disguised),
                               original.attribute_names());
}

IndependentNoiseScheme IndependentNoiseScheme::Gaussian(size_t num_attributes,
                                                        double stddev) {
  return IndependentNoiseScheme(
      NoiseModel::IndependentGaussian(num_attributes, stddev));
}

IndependentNoiseScheme IndependentNoiseScheme::Uniform(size_t num_attributes,
                                                       double half_width) {
  RR_CHECK_GT(half_width, 0.0);
  Result<NoiseModel> model = NoiseModel::Independent(
      std::make_unique<stats::UniformDistribution>(-half_width, half_width),
      num_attributes);
  RR_CHECK(model.ok()) << model.status().ToString();
  return IndependentNoiseScheme(std::move(model).value());
}

void IndependentNoiseScheme::AddNoiseAt(const stats::Philox& base,
                                        uint64_t record_begin, size_t rows,
                                        linalg::Matrix* chunk,
                                        const ParallelOptions& options) const {
  const size_t m = num_attributes();
  RR_CHECK_EQ(chunk->cols(), m);
  RR_CHECK_LE(rows, chunk->rows());
  // Block b's noise is elements [0, kBatchBlockRows*m) of the (shared)
  // marginal's canonical sequence over Substream(b), laid out row-major —
  // an element-granular pure function, so straddled blocks are sliced
  // without generating the rest of the block.
  stats::ForEachBatchBlock(
      record_begin, rows, options,
      [&](uint64_t b, uint64_t lo, uint64_t hi) {
        const size_t count = static_cast<size_t>(hi - lo) * m;
        const uint64_t elem0 =
            (lo - b * stats::kBatchBlockRows) * static_cast<uint64_t>(m);
        std::vector<double> noise(count);
        noise_model_.SampleMarginalSliceAt(0, base.Substream(b), elem0,
                                           noise.data(), count);
        double* out = chunk->row_data(static_cast<size_t>(lo - record_begin));
        for (size_t i = 0; i < count; ++i) out[i] += noise[i];
      });
}

Result<CorrelatedGaussianScheme> CorrelatedGaussianScheme::Create(
    linalg::Matrix covariance) {
  RR_ASSIGN_OR_RETURN(NoiseModel model,
                      NoiseModel::CorrelatedGaussian(covariance));
  RR_ASSIGN_OR_RETURN(
      stats::MultivariateNormalSampler sampler,
      stats::MultivariateNormalSampler::CreateZeroMean(covariance));
  return CorrelatedGaussianScheme(std::move(model), std::move(sampler));
}

Result<CorrelatedGaussianScheme> CorrelatedGaussianScheme::MimicCovariance(
    const linalg::Matrix& data_covariance, double scale) {
  if (scale <= 0.0) {
    return Status::InvalidArgument("MimicCovariance: scale must be positive");
  }
  return Create(data_covariance * scale);
}

Result<CorrelatedGaussianScheme> CorrelatedGaussianScheme::FromEigenstructure(
    const linalg::Matrix& eigenvectors,
    const linalg::Vector& noise_eigenvalues) {
  if (eigenvectors.rows() != eigenvectors.cols() ||
      eigenvectors.cols() != noise_eigenvalues.size()) {
    return Status::InvalidArgument(
        "FromEigenstructure: eigenvector/eigenvalue shape mismatch");
  }
  if (!linalg::HasOrthonormalColumns(eigenvectors, 1e-6)) {
    return Status::InvalidArgument(
        "FromEigenstructure: basis is not orthonormal");
  }
  for (double lambda : noise_eigenvalues) {
    if (lambda < 0.0) {
      return Status::InvalidArgument(
          "FromEigenstructure: negative noise eigenvalue");
    }
  }
  return Create(linalg::ComposeFromEigen(noise_eigenvalues, eigenvectors));
}

void CorrelatedGaussianScheme::AddNoiseAt(const stats::Philox& base,
                                          uint64_t record_begin, size_t rows,
                                          linalg::Matrix* chunk,
                                          const ParallelOptions& options) const {
  const size_t m = num_attributes();
  RR_CHECK_EQ(chunk->cols(), m);
  RR_CHECK_LE(rows, chunk->rows());
  // Jointly Gaussian noise rides the MVN block generator: noise record i
  // is row i of the sampler's deterministic record stream over `base`.
  stats::ForEachBatchBlock(
      record_begin, rows, options,
      [&](uint64_t b, uint64_t lo, uint64_t hi) {
        const size_t count = static_cast<size_t>(hi - lo);
        std::vector<double> noise(count * m);
        sampler_.SampleBlockSlice(
            base, b, static_cast<size_t>(lo - b * stats::kBatchBlockRows),
            static_cast<size_t>(hi - b * stats::kBatchBlockRows),
            noise.data());
        double* out = chunk->row_data(static_cast<size_t>(lo - record_begin));
        for (size_t i = 0; i < count * m; ++i) out[i] += noise[i];
      });
}

linalg::Vector InterpolateSpectra(const linalg::Vector& from,
                                  const linalg::Vector& to, double t) {
  RR_CHECK_EQ(from.size(), to.size());
  RR_CHECK(t >= 0.0 && t <= 1.0) << "interpolation parameter out of [0,1]";
  linalg::Vector out(from.size());
  for (size_t i = 0; i < from.size(); ++i) {
    out[i] = (1.0 - t) * from[i] + t * to[i];
  }
  return out;
}

}  // namespace perturb
}  // namespace randrecon
