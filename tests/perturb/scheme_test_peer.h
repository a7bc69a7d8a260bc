// Test-only access to IndependentNoiseScheme's NoiseModel constructor
// (the friend schemes.h grants), for noise families the public factories
// do not offer.

#ifndef RANDRECON_TESTS_PERTURB_SCHEME_TEST_PEER_H_
#define RANDRECON_TESTS_PERTURB_SCHEME_TEST_PEER_H_

#include <memory>
#include <utility>

#include "common/check.h"
#include "perturb/noise_model.h"
#include "perturb/schemes.h"
#include "stats/distribution.h"

namespace randrecon {
namespace perturb {

class IndependentNoiseSchemeTestPeer {
 public:
  /// Zero-mean Laplace noise with scale b (variance 2b²) on each of m
  /// attributes.
  static IndependentNoiseScheme Laplace(size_t num_attributes, double scale) {
    Result<NoiseModel> model = NoiseModel::Independent(
        std::make_unique<stats::LaplaceDistribution>(0.0, scale),
        num_attributes);
    RR_CHECK(model.ok()) << model.status().ToString();
    return IndependentNoiseScheme(std::move(model).value());
  }
};

}  // namespace perturb
}  // namespace randrecon

#endif  // RANDRECON_TESTS_PERTURB_SCHEME_TEST_PEER_H_
