// Micro-benchmark for the blocked/parallel kernel layer: times the naive
// loops against the kernels they were replaced by — dense matmul, sample
// covariance, symmetric Jacobi eigendecomposition at m in {64, 256, 512},
// the per-chunk Gram reduction of pass 1 (GramAtAChunk) on 4096-record
// chunks m in {8, 16, 32, 64} wide, pass 1's columnar per-block
// accumulation (StreamingMoments::AccumulateColumns) at the same widths,
// and small in-memory SampleCovariance calls (256x64, 512x128) — and
// writes BENCH_linalg.json so every future change has a perf trajectory
// to compare against.
//
// The "naive" implementations below are verbatim copies of the code
// paths the kernels replaced: the i-k-j operator* loop, the column-pair
// SampleCovariance loop over bounds-checked operator(), the Jacobi sweep
// with a full off-diagonal rescan per sweep, the plain row-sequential
// column-pair Gram loop that narrow chunks ran before the register-tiled
// kernel, and the element-by-element columnar staging loop that ran
// before register-transposed tiles. Keep them frozen — they are the
// baseline the acceptance numbers are measured against.
//
// Flags: --smoke=true     small sizes / single rep (CI)
//        --seed=N         RNG seed (default 7)
//        --json=PATH      output path (default BENCH_linalg.json)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "linalg/eigen.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/matrix_util.h"
#include "stats/moments.h"
#include "stats/rng.h"
#include "stats/streaming_moments.h"

namespace randrecon {
namespace bench {
namespace {

using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------------------
// Frozen pre-PR baselines.
// ---------------------------------------------------------------------------

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row_data(i);
    double* out_row = out.row_data(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const double a_ik = a_row[k];
      if (a_ik == 0.0) continue;
      const double* b_row = b.row_data(k);
      for (size_t j = 0; j < b.cols(); ++j) {
        out_row[j] += a_ik * b_row[j];
      }
    }
  }
  return out;
}

Matrix NaiveSampleCovariance(const Matrix& data) {
  const size_t n = data.rows();
  const size_t m = data.cols();
  const Matrix centered = stats::CenterColumns(data);
  Matrix cov(m, m);
  const double denom = static_cast<double>(n);
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a; b < m; ++b) {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        sum += centered(i, a) * centered(i, b);
      }
      cov(a, b) = sum / denom;
      cov(b, a) = cov(a, b);
    }
  }
  return cov;
}

/// The plain column-pair chunk Gram loop (upper triangle, records in
/// order); GramAtAChunk's narrow path must match it bit for bit.
void NaiveGramChunk(const double* a, size_t rows, size_t m, double* partial) {
  std::fill(partial, partial + m * m, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    const double* row = a + i * m;
    for (size_t p = 0; p < m; ++p) {
      const double v = row[p];
      double* partial_row = partial + p * m;
      for (size_t q = p; q < m; ++q) partial_row[q] += v * row[q];
    }
  }
}

/// StreamingMoments' columnar path with the element-by-element staging
/// loop it ran before register-transposed tiles: records are staged one
/// by one across the column slices, then each full block is centered,
/// reduced with GramAtAChunk and merged exactly as the library does.
/// AccumulateColumns must match it bit for bit.
class NaiveColumnarMoments {
 public:
  explicit NaiveColumnarMoments(size_t m)
      : m_(m),
        sums_(m, 0.0),
        shift_(m, 0.0),
        mean_(m, 0.0),
        delta_(m, 0.0),
        staging_(linalg::kernels::kGramChunkRows * m),
        partial_(m * m),
        scatter_(m * m, 0.0) {}

  void AccumulateColumns(const double* const* columns, size_t num_rows) {
    size_t consumed = 0;
    while (consumed < num_rows) {
      const size_t span =
          std::min(num_rows - consumed,
                   linalg::kernels::kGramChunkRows - staging_rows_);
      Stage(columns, consumed, span, shift_.data(), mean_.data(),
            sums_.data(), delta_.data(),
            staging_.data() + staging_rows_ * m_);
      staging_rows_ += span;
      consumed += span;
      if (staging_rows_ == linalg::kernels::kGramChunkRows) Flush();
    }
    num_records_ += num_rows;
  }

  Vector means() const {
    Vector means = sums_;
    for (double& value : means) value /= static_cast<double>(num_records_);
    return means;
  }

  Matrix FinalizeCovariance() {
    if (staging_rows_ > 0) Flush();
    Matrix covariance(m_, m_);
    double* c = covariance.data();
    std::copy(scatter_.begin(), scatter_.end(), c);
    for (size_t p = 0; p < m_; ++p) {
      for (size_t q = p + 1; q < m_; ++q) c[q * m_ + p] = c[p * m_ + q];
    }
    for (size_t i = 0; i < covariance.size(); ++i) {
      c[i] /= static_cast<double>(num_records_);
    }
    return covariance;
  }

 private:
  void Stage(const double* const* columns, size_t consumed, size_t span,
             const double* __restrict shift, const double* __restrict mean,
             double* __restrict sums, double* __restrict moved_sums,
             double* __restrict staged) const {
    for (size_t i = 0; i < span; ++i) {
      double* out = staged + i * m_;
      for (size_t j = 0; j < m_; ++j) {
        const double x = columns[j][consumed + i];
        sums[j] += x;
        const double moved = (x - shift[j]) - mean[j];
        out[j] = moved;
        moved_sums[j] += moved;
      }
    }
  }

  void Flush() {
    const size_t m = m_;
    const size_t rows = staging_rows_;
    double* block = staging_.data();
    for (double& value : delta_) value /= static_cast<double>(rows);
    for (size_t i = 0; i < rows; ++i) {
      double* row = block + i * m;
      for (size_t j = 0; j < m; ++j) row[j] -= delta_[j];
    }
    linalg::kernels::GramAtAChunk(block, rows, m, partial_.data());
    const double n_a = static_cast<double>(merged_rows_);
    const double n_b = static_cast<double>(rows);
    const double n = n_a + n_b;
    const double weight = n_a * n_b / n;
    for (size_t p = 0; p < m; ++p) {
      double* scatter_row = scatter_.data() + p * m;
      const double* partial_row = partial_.data() + p * m;
      for (size_t q = p; q < m; ++q) {
        scatter_row[q] += partial_row[q] + delta_[p] * delta_[q] * weight;
      }
    }
    if (merged_rows_ == 0) {
      std::copy(delta_.begin(), delta_.end(), shift_.begin());
      std::fill(mean_.begin(), mean_.end(), 0.0);
      for (size_t i = 0; i < rows; ++i) {
        const double* row = block + i * m;
        for (size_t j = 0; j < m; ++j) mean_[j] += row[j];
      }
      for (double& value : mean_) value /= n_b;
    } else {
      const double share = n_b / n;
      for (size_t j = 0; j < m; ++j) mean_[j] += delta_[j] * share;
    }
    std::fill(delta_.begin(), delta_.end(), 0.0);
    merged_rows_ += rows;
    staging_rows_ = 0;
  }

  size_t m_;
  size_t num_records_ = 0;
  size_t merged_rows_ = 0;
  Vector sums_, shift_, mean_, delta_;
  std::vector<double> staging_;
  size_t staging_rows_ = 0;
  std::vector<double> partial_, scatter_;
};

double NaiveOffDiagonalSquaredSum(const Matrix& a) {
  double sum = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (i != j) sum += a(i, j) * a(i, j);
    }
  }
  return sum;
}

Result<linalg::EigenDecomposition> NaiveSymmetricEigen(const Matrix& input) {
  const linalg::JacobiOptions options;
  const size_t m = input.rows();
  Matrix a = linalg::Symmetrize(input);
  Matrix q = Matrix::Identity(m);
  const double scale = linalg::FrobeniusNorm(a);
  const double threshold = options.tolerance * options.tolerance *
                           (scale > 0.0 ? scale * scale : 1.0);
  bool converged = NaiveOffDiagonalSquaredSum(a) <= threshold;
  for (int sweep = 0; sweep < options.max_sweeps && !converged; ++sweep) {
    for (size_t p = 0; p + 1 < m; ++p) {
      for (size_t r = p + 1; r < m; ++r) {
        const double apr = a(p, r);
        if (std::fabs(apr) < 1e-300) continue;
        const double app = a(p, p);
        const double arr = a(r, r);
        const double theta = (arr - app) / (2.0 * apr);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (size_t k = 0; k < m; ++k) {
          const double akp = a(k, p);
          const double akr = a(k, r);
          a(k, p) = c * akp - s * akr;
          a(k, r) = s * akp + c * akr;
        }
        for (size_t k = 0; k < m; ++k) {
          const double apk = a(p, k);
          const double ark = a(r, k);
          a(p, k) = c * apk - s * ark;
          a(r, k) = s * apk + c * ark;
        }
        for (size_t k = 0; k < m; ++k) {
          const double qkp = q(k, p);
          const double qkr = q(k, r);
          q(k, p) = c * qkp - s * qkr;
          q(k, r) = s * qkp + c * qkr;
        }
      }
    }
    converged = NaiveOffDiagonalSquaredSum(a) <= threshold;
  }
  if (!converged) {
    return Status::NumericalError("naive Jacobi did not converge");
  }
  Vector eigenvalues(m);
  for (size_t i = 0; i < m; ++i) eigenvalues[i] = a(i, i);
  std::sort(eigenvalues.begin(), eigenvalues.end(),
            [](double lhs, double rhs) { return lhs > rhs; });
  return linalg::EigenDecomposition{std::move(eigenvalues), std::move(q)};
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

Matrix RandomSpd(size_t m, stats::Rng* rng) {
  const Matrix g = rng->GaussianMatrix(m, m);
  Matrix a = linalg::Symmetrize(g * g.Transpose());
  for (size_t i = 0; i < m; ++i) a(i, i) += 1.0;
  a *= 1.0 / static_cast<double>(m);
  return a;
}

struct Comparison {
  double naive_seconds = 0.0;
  double kernel_seconds = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times the two implementations back-to-back within each rep and reports
/// median times plus the median of the per-rep speedup ratios. Pairing the
/// ratio within a rep makes it robust against frequency drift and noisy
/// neighbours: both sides of one ratio share the same machine state.
template <typename NaiveFn, typename KernelFn>
Comparison TimePair(int reps, const NaiveFn& naive_fn,
                    const KernelFn& kernel_fn) {
  std::vector<double> naive_samples, kernel_samples, ratios;
  for (int rep = 0; rep < reps; ++rep) {
    // Floor at 1 ns: a coarse clock reading 0 must not produce inf ratios.
    Stopwatch watch;
    naive_fn();
    naive_samples.push_back(std::max(watch.ElapsedSeconds(), 1e-9));
    watch.Restart();
    kernel_fn();
    kernel_samples.push_back(std::max(watch.ElapsedSeconds(), 1e-9));
    ratios.push_back(naive_samples.back() / kernel_samples.back());
  }
  Comparison comparison;
  comparison.naive_seconds = Median(std::move(naive_samples));
  comparison.kernel_seconds = Median(std::move(kernel_samples));
  comparison.speedup = Median(std::move(ratios));
  return comparison;
}

void Record(std::vector<BenchResult>* results, const std::string& op,
            const std::string& shape, double work_records,
            const Comparison& comparison) {
  BenchResult naive;
  naive.name = op + "/" + shape + "/naive";
  naive.elapsed_seconds = comparison.naive_seconds;
  naive.records_per_second = work_records / comparison.naive_seconds;
  results->push_back(naive);

  BenchResult kernel;
  kernel.name = op + "/" + shape + "/kernel";
  kernel.elapsed_seconds = comparison.kernel_seconds;
  kernel.records_per_second = work_records / comparison.kernel_seconds;
  kernel.metrics.emplace_back("speedup", comparison.speedup);
  kernel.metrics.emplace_back("max_abs_diff", comparison.max_abs_diff);
  results->push_back(kernel);

  std::printf("%-11s %-8s naive %9.6fs  kernel %9.6fs  speedup %6.2fx  "
              "maxdiff %.2e\n",
              op.c_str(), shape.c_str(), comparison.naive_seconds,
              comparison.kernel_seconds, comparison.speedup,
              comparison.max_abs_diff);
}

}  // namespace
}  // namespace bench
}  // namespace randrecon

int main(int argc, char** argv) {
  using namespace randrecon;
  using bench::BenchResult;
  using linalg::Matrix;

  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  const auto smoke = flags.GetBool("smoke", false);
  const auto seed = flags.GetInt("seed", 7);
  if (!smoke.ok() || !seed.ok()) {
    std::fprintf(stderr, "bad flag value\n");
    return 2;
  }
  const std::string json_path = flags.GetString("json", "BENCH_linalg.json");

  const std::vector<size_t> sizes =
      smoke.value() ? std::vector<size_t>{64, 128}
                    : std::vector<size_t>{64, 256, 512};
  stats::Rng rng(static_cast<uint64_t>(seed.value()));
  std::vector<BenchResult> results;

  for (size_t m : sizes) {
    const int reps = m <= 64 ? 50 : 9;

    // Dense matmul: C = A * B.
    {
      const Matrix a = rng.GaussianMatrix(m, m);
      const Matrix b = rng.GaussianMatrix(m, m);
      Matrix naive_out, kernel_out;
      bench::Comparison comparison = bench::TimePair(
          reps, [&] { naive_out = bench::NaiveMatMul(a, b); },
          [&] { kernel_out = linalg::kernels::MatMul(a, b); });
      comparison.max_abs_diff = linalg::MaxAbsDifference(naive_out, kernel_out);
      bench::Record(&results, "matmul", std::to_string(m),
                    static_cast<double>(m), comparison);
    }

    // Sample covariance over n = 4m records.
    {
      const size_t n = 4 * m;
      const Matrix data = rng.GaussianMatrix(n, m);
      Matrix naive_cov, kernel_cov;
      bench::Comparison comparison = bench::TimePair(
          reps, [&] { naive_cov = bench::NaiveSampleCovariance(data); },
          [&] { kernel_cov = stats::SampleCovariance(data); });
      comparison.max_abs_diff = linalg::MaxAbsDifference(naive_cov, kernel_cov);
      bench::Record(&results, "covariance", std::to_string(m),
                    static_cast<double>(n), comparison);
    }

    // Symmetric eigendecomposition of a random SPD matrix.
    {
      const Matrix spd = bench::RandomSpd(m, &rng);
      const int eigen_reps = m <= 64 ? 5 : 1;
      Result<linalg::EigenDecomposition> naive_eig =
          Status::NumericalError("not run");
      Result<linalg::EigenDecomposition> kernel_eig =
          Status::NumericalError("not run");
      bench::Comparison comparison = bench::TimePair(
          eigen_reps, [&] { naive_eig = bench::NaiveSymmetricEigen(spd); },
          [&] { kernel_eig = linalg::SymmetricEigen(spd); });
      if (!naive_eig.ok() || !kernel_eig.ok()) {
        std::fprintf(stderr, "eigen failed at m=%zu\n", m);
        return 1;
      }
      double max_eval_diff = 0.0;
      for (size_t i = 0; i < m; ++i) {
        max_eval_diff = std::max(
            max_eval_diff, std::fabs(naive_eig.value().eigenvalues[i] -
                                     kernel_eig.value().eigenvalues[i]));
      }
      comparison.max_abs_diff = max_eval_diff;
      bench::Record(&results, "eigen", std::to_string(m),
                    static_cast<double>(m), comparison);
    }
  }

  // Pass 1's per-block reduction: one full kGramChunkRows-record chunk.
  // At m = 16 this is every StreamingMoments block of the repo benchmark.
  for (size_t m : smoke.value() ? std::vector<size_t>{8, 16}
                                : std::vector<size_t>{8, 16, 32, 64}) {
    const size_t rows = linalg::kernels::kGramChunkRows;
    const Matrix data = rng.GaussianMatrix(rows, m);
    Matrix naive_partial(m, m), kernel_partial(m, m);
    bench::Comparison comparison = bench::TimePair(
        smoke.value() ? 20 : 200,
        [&] {
          bench::NaiveGramChunk(data.data(), rows, m, naive_partial.data());
        },
        [&] {
          linalg::kernels::GramAtAChunk(data.data(), rows, m,
                                        kernel_partial.data());
        });
    comparison.max_abs_diff =
        linalg::MaxAbsDifference(naive_partial, kernel_partial);
    bench::Record(&results, "gram",
                  std::to_string(rows) + "x" + std::to_string(m),
                  static_cast<double>(rows), comparison);
  }

  // Pass 1's columnar per-block step: the mapped block's column slices
  // staged and merged by AccumulateColumns against the frozen
  // element-by-element staging loop. Each rep feeds the same cache-hot
  // block kBlocksPerRep times (so later blocks take the merge path) and
  // reports time per block; the means and covariance must agree bitwise.
  // `moments/columnar` runs the library's default threads, where later
  // blocks fold on the caller and reduce their Grams on the pool;
  // `moments/columnar_1thread` pins one thread, the inline per-block
  // path.
  constexpr size_t kBlocksPerRep = 8;
  for (const int threads : {0, 1}) {
    for (size_t m : smoke.value() ? std::vector<size_t>{8, 16}
                                  : std::vector<size_t>{8, 16, 32, 64}) {
      ParallelOptions parallel;
      parallel.num_threads = threads;
      const size_t rows = linalg::kernels::kGramChunkRows;
      const Matrix block = rng.GaussianMatrix(m, rows);  // Row j = column j.
      std::vector<const double*> columns(m);
      for (size_t j = 0; j < m; ++j) columns[j] = block.row_data(j);
      Matrix naive_cov, kernel_cov;
      linalg::Vector naive_means, kernel_means;
      bench::Comparison comparison = bench::TimePair(
          smoke.value() ? 10 : 100,
          [&] {
            bench::NaiveColumnarMoments moments(m);
            for (size_t b = 0; b < kBlocksPerRep; ++b) {
              moments.AccumulateColumns(columns.data(), rows);
            }
            naive_means = moments.means();
            naive_cov = moments.FinalizeCovariance();
          },
          [&] {
            stats::StreamingMoments moments(m, parallel);
            for (size_t b = 0; b < kBlocksPerRep; ++b) {
              moments.AccumulateColumns(columns.data(), rows);
            }
            kernel_means = moments.means();
            kernel_cov = moments.FinalizeCovariance();
          });
      comparison.naive_seconds /= kBlocksPerRep;
      comparison.kernel_seconds /= kBlocksPerRep;
      comparison.max_abs_diff = linalg::MaxAbsDifference(naive_cov, kernel_cov);
      for (size_t j = 0; j < m; ++j) {
        comparison.max_abs_diff =
            std::max(comparison.max_abs_diff,
                     std::fabs(naive_means[j] - kernel_means[j]));
      }
      bench::Record(&results,
                    threads == 1 ? "moments/columnar_1thread"
                                 : "moments/columnar",
                    std::to_string(rows) + "x" + std::to_string(m),
                    static_cast<double>(rows), comparison);
    }
  }

  // Small in-memory SampleCovariance calls, where per-call setup (the
  // accumulator's staging buffer) is visible next to the Gram work.
  for (const auto& shape : {std::pair<size_t, size_t>{256, 64}, {512, 128}}) {
    const Matrix data = rng.GaussianMatrix(shape.first, shape.second);
    Matrix naive_cov, kernel_cov;
    bench::Comparison comparison = bench::TimePair(
        smoke.value() ? 10 : 200,
        [&] { naive_cov = bench::NaiveSampleCovariance(data); },
        [&] { kernel_cov = stats::SampleCovariance(data); });
    comparison.max_abs_diff = linalg::MaxAbsDifference(naive_cov, kernel_cov);
    bench::Record(&results, "covariance",
                  std::to_string(shape.first) + "x" +
                      std::to_string(shape.second),
                  static_cast<double>(shape.first), comparison);
  }

  const bench::BenchConfig config = {
      {"smoke", smoke.value() ? "true" : "false"},
      {"seed", std::to_string(seed.value())},
      {"covariance_records", "4m"},
      {"narrow_gram_width", std::to_string(linalg::kernels::kNarrowGramWidth)},
      {"threads_env", std::getenv("RANDRECON_THREADS")
                          ? std::getenv("RANDRECON_THREADS")
                          : "auto"},
  };
  const Status json_status =
      bench::WriteBenchJson(json_path, "micro_linalg", config, results);
  if (!json_status.ok()) {
    std::fprintf(stderr, "%s\n", json_status.ToString().c_str());
    return 1;
  }
  std::printf("bench json written to %s\n", json_path.c_str());
  return 0;
}
