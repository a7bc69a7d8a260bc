#include "workload.h"

#include <cstring>

#include "data/synthetic.h"
#include "instrument.h"
#include "linalg/eigen.h"
#include "linalg/matrix_util.h"
#include "stats/random_orthogonal.h"
#include "stats/rng.h"

namespace perfbench {

namespace rr = randrecon;

rr::linalg::Matrix PlantedCovariance(size_t m, size_t rank, double principal,
                                     uint64_t seed) {
  rr::stats::Rng rng(seed);
  const rr::linalg::Matrix q = rr::stats::RandomOrthogonalMatrix(m, &rng);
  return rr::linalg::Symmetrize(rr::linalg::ComposeFromEigen(
      rr::data::TwoLevelSpectrum(m, rank, principal, 0.0), q));
}

rr::pipeline::StreamingAttackOptions AttackOptions(rr::pipeline::StreamingAttack attack) {
  rr::pipeline::StreamingAttackOptions options;
  options.attack = attack;
  options.sf.bound_scale = kSfBoundScale;
  return options;
}

namespace {

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameDouble(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

bool SameReport(const rr::pipeline::StreamingAttackReport& a,
                const rr::pipeline::StreamingAttackReport& b) {
  return a.num_records == b.num_records && a.num_attributes == b.num_attributes &&
         a.num_components == b.num_components && SameDoubles(a.eigenvalues, b.eigenvalues) &&
         SameDoubles(a.mean, b.mean) && SameDouble(a.rmse_vs_disguised, b.rmse_vs_disguised);
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + tag * 0x9E3779B97F4A7C15ull + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::string> ColumnNames(size_t m) {
  std::vector<std::string> names;
  for (size_t j = 0; j < m; ++j) names.push_back("a" + std::to_string(j));
  return names;
}

double SecondsSince(double start_s) { return NowSeconds() - start_s; }

}  // namespace perfbench
