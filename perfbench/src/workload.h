// The benchmark's two workloads and what they share: the run
// configuration, the metric record each prints, and the planted-spectrum
// inputs every workload attacks.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "pipeline/streaming_attack.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory the workload owns for its stores and reports.
  std::string work_dir;
};

/// One measured metric; its unit is the one BENCHMARK.json gives the name.
struct Metric {
  std::string name;
  double value = 0;
  /// Raw samples behind the value (1 for a single measurement or count).
  size_t samples = 1;
};

struct WorkloadResult {
  /// Empty when every correctness gate held; otherwise the first failure.
  std::string failure;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The workload parameters, as a JSON object.
  std::string params_json;
  std::vector<Metric> metrics;

  void Fail(const std::string& why) {
    if (failure.empty()) failure = why;
  }
  void Add(std::string name, double value, size_t samples = 1) {
    metrics.push_back({std::move(name), value, samples});
  }
};

WorkloadResult RunStoreSweep(const RunConfig& config);
WorkloadResult RunLiveService(const RunConfig& config);

/// A planted spectrum: the paper's §7.1 covariance Q Λ Qᵀ with
/// `rank` equal principal eigenvalues and exactly zero non-principal ones
/// (the Fig. 3 setting), so PCA-DR's eigengap and SF's cut (with
/// kSfBoundScale) both land on p = rank. Q is drawn from `seed`.
randrecon::linalg::Matrix PlantedCovariance(size_t m, size_t rank,
                                            double principal, uint64_t seed);

/// SF's cut at 1.01 x the Marchenko-Pastur edge instead of the published
/// 1.0. With exactly zero non-principal eigenvalues the largest noise
/// eigenvalue of Cov(Y) lies below the published edge by only ~1.6
/// Tracy-Widom widths at m = 16 (the noise fills m - rank dimensions, the
/// edge assumes m), so SF returned p = rank + 1 on about one seed in 30;
/// 1% adds at least 8 widths at the sizes here and stays far below the
/// principal eigenvalues (5 sigma^2).
constexpr double kSfBoundScale = 1.01;

/// Attack options with the repository defaults, the given attack, and
/// kSfBoundScale.
randrecon::pipeline::StreamingAttackOptions AttackOptions(
    randrecon::pipeline::StreamingAttack attack);

/// Bitwise equality of everything a report computes from the data.
bool SameReport(const randrecon::pipeline::StreamingAttackReport& a,
                const randrecon::pipeline::StreamingAttackReport& b);

/// The expected RMSE of a perfect rank-p projection attack against the
/// originals: the noise energy left inside the principal subspace,
/// sigma * sqrt(p / m). A correct attack lands within a few percent above.
inline double ProjectionRmse(double sigma, size_t rank, size_t m) {
  return sigma * std::sqrt(static_cast<double>(rank) / static_cast<double>(m));
}

/// Gate band for rmse_vs_reference as multiples of ProjectionRmse.
constexpr double kRmseBandLow = 0.95;
constexpr double kRmseBandHigh = 1.10;

/// A seed for one input stream of a run, decorrelated from the run seed
/// and from the other streams' tags (splitmix64 of seed + tag).
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Column names "a0", "a1", ... for an m-attribute store.
std::vector<std::string> ColumnNames(size_t m);

/// Seconds since `start_s` on the trace clock, as a sample.
double SecondsSince(double start_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
