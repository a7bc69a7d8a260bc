// Extension E3 — the *utility* side of randomization: the Agrawal-
// Srikant density reconstruction (our stats::ReconstructDensity) is what
// makes randomized data minable at all. This bench measures how well the
// original marginal density is recovered from disguised samples as the
// sample count and the noise level vary, for Gaussian and Laplace noise
// and for a bimodal original.
//
// Reported metric: L1 distance between the reconstructed density and the
// true density on the reconstruction grid (0 = perfect, 2 = disjoint).

#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "stats/density_reconstruction.h"
#include "stats/distribution.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): bench binary.

namespace {

/// The original attribute a case disguises: its true density and a
/// sampler filling n draws from a stream.
struct Original {
  std::function<double(double)> pdf;
  std::function<void(const stats::Philox&, double*, size_t)> sample;
};

Original FromDistribution(const stats::ScalarDistribution& d) {
  return {[&d](double x) { return d.Pdf(x); },
          [&d](const stats::Philox& stream, double* out, size_t n) {
            d.SampleSliceAt(stream, 0, out, n);
          }};
}

/// Equal-weight mixture of N(-6, 1.5²) and N(6, 1.5²): each draw picks
/// its component with a uniform, then takes that component's draw.
Original Bimodal() {
  static const stats::NormalDistribution left(-6.0, 1.5), right(6.0, 1.5);
  return {[](double x) { return 0.5 * left.Pdf(x) + 0.5 * right.Pdf(x); },
          [](const stats::Philox& stream, double* out, size_t n) {
            std::vector<double> pick(n), left_draws(n), right_draws(n);
            stats::UniformSliceAt(stream.Substream(0), 0, pick.data(), n);
            left.SampleSliceAt(stream.Substream(1), 0, left_draws.data(), n);
            right.SampleSliceAt(stream.Substream(2), 0, right_draws.data(), n);
            for (size_t i = 0; i < n; ++i) {
              out[i] = pick[i] < 0.5 ? left_draws[i] : right_draws[i];
            }
          }};
}

double L1AgainstTruth(const stats::GridDensity& estimate,
                      const Original& truth) {
  double l1 = 0.0;
  for (size_t k = 0; k < estimate.points.size(); ++k) {
    l1 += std::fabs(estimate.density[k] - truth.pdf(estimate.points[k])) *
          estimate.step;
  }
  return l1;
}

int RunCase(const char* label, const Original& original,
            const stats::ScalarDistribution& noise) {
  std::printf("%s, noise %s\n", label, noise.ToString().c_str());
  std::printf("%s%s\n", PadLeft("n", 10).c_str(), PadLeft("L1 err", 10).c_str());
  for (size_t n : {200u, 1000u, 5000u, 20000u}) {
    const stats::Rng rng(31337 + n);
    linalg::Vector disguised(n), noise_draws(n);
    original.sample(rng.Substream(0), disguised.data(), n);
    noise.SampleSliceAt(rng.Substream(1), 0, noise_draws.data(), n);
    for (size_t i = 0; i < n; ++i) disguised[i] += noise_draws[i];
    auto density = stats::ReconstructDensity(disguised, noise);
    if (!density.ok()) {
      std::fprintf(stderr, "%s\n", density.status().ToString().c_str());
      return 1;
    }
    std::printf("%s%s\n", PadLeft(std::to_string(n), 10).c_str(),
                PadLeft(FormatDouble(L1AgainstTruth(density.value(), original),
                                     4),
                        10)
                    .c_str());
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main() {
  Stopwatch stopwatch;
  std::printf(
      "Extension E3: AS2000 distribution recovery quality (the data-mining "
      "utility that randomization promises)\n\n");

  const stats::NormalDistribution normal_original(0.0, 4.0);
  const stats::NormalDistribution gaussian_noise(0.0, 4.0);
  const stats::LaplaceDistribution laplace_noise(0.0, 4.0 / std::sqrt(2.0));
  const Original normal = FromDistribution(normal_original);

  if (RunCase("Original N(0, 16)", normal, gaussian_noise) != 0) {
    return 1;
  }
  if (RunCase("Original N(0, 16)", normal, laplace_noise) != 0) {
    return 1;
  }
  if (RunCase("Original bimodal mixture", Bimodal(), gaussian_noise) != 0) {
    return 1;
  }
  std::printf(
      "Reading: the aggregate distribution converges with n for every "
      "noise family — exactly why randomization is useful for mining — "
      "while the figure benches show the *individual records* leaking. "
      "Both halves of the paper's trade-off, measured.\n");
  std::printf("elapsed: %.2fs\n\n", stopwatch.ElapsedSeconds());
  return 0;
}
