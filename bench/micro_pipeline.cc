// Micro-benchmark for the out-of-core attack pipeline (PR 2): streaming
// covariance + SF/PCA-DR reconstruction against the in-memory paths they
// replace, at n in {1e5, 1e6} records. Writes BENCH_pipeline.json so the
// perf/fidelity trajectory is checked in.
//
// What the numbers demonstrate:
//   * covariance */stream has max_abs_diff == 0 — the streamed moments
//     are BITWISE the in-memory stats::SampleCovariance;
//   * attack_{pca,sf} */stream has recon_max_abs_diff <= 1e-10 against
//     the in-memory reconstructors (acceptance criterion), measured by a
//     comparing sink that never materializes the streamed reconstruction;
//   * resident_bytes_stream vs resident_bytes_inmem — the pipeline's
//     working set is O(chunk_rows·m + m²) while the in-memory attack
//     holds multiple n x m matrices.
//
// The generation side: MvnRecordSource + PerturbingRecordSource on the
// Philox counter substrate (vectorized fills, fixed-block parallel
// generation), plus the full MVN -> perturb -> streaming-attack run. The
// exit gate also re-checks the substrate's streaming contract: the
// disguised stream must be BITWISE identical across chunk sizes
// {1, 7, 64, n} x thread counts {1, 4}.
//
// Flags: --smoke=true     small sizes / single rep (CI)
//        --seed=N         RNG seed (default 7)
//        --chunk_rows=N   streamed chunk size (default 4096)
//        --json=PATH      output path (default BENCH_pipeline.json)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <memory>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/pca_dr.h"
#include "core/spectral_filtering.h"
#include "data/synthetic.h"
#include "linalg/kernels.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/streaming_attack.h"
#include "stats/moments.h"
#include "stats/philox.h"
#include "stats/streaming_moments.h"

namespace randrecon {
namespace bench {
namespace {

using linalg::Matrix;

/// Tracks the max abs difference against a reference reconstruction
/// without storing the streamed chunks — the streaming side's working
/// set stays O(chunk·m) even while being verified.
class ComparingSink final : public pipeline::ChunkSink {
 public:
  explicit ComparingSink(const Matrix* reference) : reference_(reference) {}

  Status Consume(size_t row_offset, const Matrix& chunk,
                 size_t num_rows) override {
    for (size_t i = 0; i < num_rows; ++i) {
      const double* row = chunk.row_data(i);
      const double* reference_row = reference_->row_data(row_offset + i);
      for (size_t j = 0; j < chunk.cols(); ++j) {
        max_abs_diff_ = std::max(max_abs_diff_,
                                 std::fabs(row[j] - reference_row[j]));
      }
    }
    return Status::OK();
  }

  double max_abs_diff() const { return max_abs_diff_; }

 private:
  const Matrix* reference_;
  double max_abs_diff_ = 0.0;
};

double MedianOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times `fn` `reps` times and returns the median (floored at 1 ns).
template <typename Fn>
double TimeMedian(int reps, const Fn& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    fn();
    samples.push_back(std::max(watch.ElapsedSeconds(), 1e-9));
  }
  return MedianOf(std::move(samples));
}

void Record(std::vector<BenchResult>* results, const std::string& name,
            double seconds, double records,
            std::vector<std::pair<std::string, double>> metrics = {}) {
  BenchResult result;
  result.name = name;
  result.elapsed_seconds = seconds;
  result.records_per_second = records / seconds;
  result.metrics = std::move(metrics);
  results->push_back(result);
  std::printf("%-26s %10.4fs  %12.0f rec/s", name.c_str(), seconds,
              result.records_per_second);
  for (const auto& metric : result.metrics) {
    std::printf("  %s=%.3g", metric.first.c_str(), metric.second);
  }
  std::printf("\n");
}

/// Builds the MVN -> perturb synthetic disguised stream used by the
/// generation benchmarks (population seed and noise seed derived from
/// the bench seed).
pipeline::PerturbingRecordSource MakeDisguisedSource(
    const linalg::Vector& mean, const Matrix& covariance, size_t n,
    uint64_t seed, const perturb::IndependentNoiseScheme* scheme,
    const ParallelOptions& parallel = ParallelOptions{}) {
  auto inner = pipeline::MvnRecordSource::Create(mean, covariance, n, seed);
  if (!inner.ok()) {
    std::fprintf(stderr, "%s\n", inner.status().ToString().c_str());
    std::exit(1);
  }
  pipeline::MvnRecordSource mvn = std::move(inner).value();
  mvn.set_parallel_options(parallel);  // inner generation, not just noise
  pipeline::PerturbingRecordSource source(
      std::make_unique<pipeline::MvnRecordSource>(std::move(mvn)), scheme,
      seed + 1);
  source.set_parallel_options(parallel);
  return source;
}

/// Drains a source through `chunk`-row reads; returns records served.
size_t DrainSource(pipeline::RecordSource* source, size_t chunk, size_t m) {
  Matrix buffer(chunk, m);
  size_t total = 0;
  for (;;) {
    auto rows = source->NextChunk(&buffer);
    if (!rows.ok()) {
      std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
      std::exit(1);
    }
    if (rows.value() == 0) break;
    total += rows.value();
  }
  return total;
}

/// Collects the full stream into one matrix (for the bitwise-invariance
/// sweep, which runs at a reduced n).
Matrix CollectSource(pipeline::RecordSource* source, size_t chunk, size_t m) {
  Matrix buffer(chunk, m);
  std::vector<double> values;
  for (;;) {
    auto rows = source->NextChunk(&buffer);
    if (!rows.ok()) {
      std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
      std::exit(1);
    }
    if (rows.value() == 0) break;
    values.insert(values.end(), buffer.data(),
                  buffer.data() + rows.value() * m);
  }
  const size_t n = values.size() / m;
  return Matrix::FromRowMajor(n, m, std::move(values));
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
  const auto chunk_rows = flags.GetInt("chunk_rows", 4096);
  if (!smoke.ok() || !seed.ok() || !chunk_rows.ok() ||
      chunk_rows.value() < 1) {
    std::fprintf(stderr, "bad flag value\n");
    return 2;
  }
  const std::string json_path = flags.GetString("json", "BENCH_pipeline.json");

  const size_t m = smoke.value() ? 16 : 32;
  const std::vector<size_t> sizes =
      smoke.value() ? std::vector<size_t>{2000, 10000}
                    : std::vector<size_t>{100000, 1000000};
  const size_t chunk = static_cast<size_t>(chunk_rows.value());
  const double sigma = 0.5;

  stats::Philox rng(static_cast<uint64_t>(seed.value()));
  std::vector<BenchResult> results;
  double worst_recon_diff = 0.0;
  bool generation_invariant = true;
  std::printf("substrate engine: %s\n",
              stats::philox_internal::ActiveEngine());

  // -------------------------------------------------------------------
  // Generation: the MVN -> perturb synthetic stream, and the full
  // streaming attack over it.
  // -------------------------------------------------------------------
  for (size_t n : sizes) {
    const int reps = n <= 100000 ? 3 : 1;
    const size_t m = smoke.value() ? 16 : 32;
    const double records = static_cast<double>(n);
    const linalg::Vector mean(m, 0.0);
    data::SyntheticDatasetSpec spec;
    spec.eigenvalues = data::TwoLevelSpectrum(m, m / 8, 8.0, 0.1);
    auto truth = data::GenerateSpectrumDataset(spec, 0, &rng);
    if (!truth.ok()) {
      std::fprintf(stderr, "%s\n", truth.status().ToString().c_str());
      return 1;
    }
    const Matrix& covariance = truth.value().covariance;
    const auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
    const perturb::NoiseModel& noise = scheme.noise_model();
    const uint64_t gen_seed = static_cast<uint64_t>(seed.value()) + n;
    std::printf("-- generation n=%zu m=%zu chunk=%zu\n", n, m, chunk);

    // Raw generation throughput: drain the disguised stream once.
    const double gen_seconds = bench::TimeMedian(reps, [&] {
      auto source =
          bench::MakeDisguisedSource(mean, covariance, n, gen_seed, &scheme);
      if (bench::DrainSource(&source, chunk, m) != n) std::exit(1);
    });
    // End-to-end: two-pass streaming SF attack regenerating the stream
    // from the seed on every pass (the out-of-core story).
    pipeline::StreamingAttackOptions options;
    options.attack = pipeline::StreamingAttack::kSpectralFiltering;
    options.chunk_rows = chunk;
    const double e2e_seconds = bench::TimeMedian(reps, [&] {
      auto source =
          bench::MakeDisguisedSource(mean, covariance, n, gen_seed, &scheme);
      pipeline::NullChunkSink sink;
      auto report = pipeline::StreamingAttackPipeline(options).Run(
          &source, noise, &sink);
      if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
        std::exit(1);
      }
    });
    bench::Record(&results,
                  "generate_mvn_noise/" + std::to_string(n) + "/batch",
                  gen_seconds, records);
    bench::Record(&results, "e2e_mvn_attack/" + std::to_string(n) + "/batch",
                  e2e_seconds, records);

    // Bitwise invariance of the disguised stream across chunk
    // sizes {1, 7, 64, n} x threads {1, 4}, at a reduced record count so
    // the chunk=1 sweep stays cheap.
    const size_t n_check = std::min<size_t>(n, 20000);
    Matrix reference;
    double invariance_diff = 0.0;
    for (size_t sweep_chunk : {size_t{1}, size_t{7}, size_t{64}, n_check}) {
      for (int threads : {1, 4}) {
        ParallelOptions parallel;
        parallel.num_threads = threads;
        auto source = bench::MakeDisguisedSource(
            mean, covariance, n_check, gen_seed, &scheme, parallel);
        Matrix streamed = bench::CollectSource(&source, sweep_chunk, m);
        if (reference.rows() == 0) {
          reference = std::move(streamed);
        } else {
          invariance_diff = std::max(
              invariance_diff, linalg::MaxAbsDifference(reference, streamed));
        }
      }
    }
    if (invariance_diff != 0.0) generation_invariant = false;
    BenchResult invariance;
    invariance.name = "generation_invariance/" + std::to_string(n);
    invariance.elapsed_seconds = 0.0;
    invariance.records_per_second = 0.0;
    invariance.metrics.emplace_back("bitwise_invariant",
                                    invariance_diff == 0.0 ? 1.0 : 0.0);
    invariance.metrics.emplace_back("max_abs_diff", invariance_diff);
    results.push_back(invariance);
    std::printf("%-26s chunk{1,7,64,%zu} x threads{1,4}: %s\n",
                invariance.name.c_str(), n_check,
                invariance_diff == 0.0 ? "bitwise identical" : "DIVERGED");
  }

  for (size_t n : sizes) {
    const int reps = n <= 100000 ? 5 : 1;
    const double records = static_cast<double>(n);

    // §7.1 correlated data + independent Gaussian disguise, materialized
    // once: the SAME bytes drive the in-memory baseline and (through
    // MatrixRecordSource) the streaming pipeline, so the comparison is
    // compute-for-compute.
    data::SyntheticDatasetSpec spec;
    spec.eigenvalues = data::TwoLevelSpectrum(m, m / 8, 8.0, 0.1);
    auto generated = data::GenerateSpectrumDataset(spec, n, &rng);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    const auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
    Matrix disguised = generated.value().dataset.records();
    disguised += scheme.GenerateNoise(n, &rng);
    const perturb::NoiseModel& noise = scheme.noise_model();
    std::printf("-- n=%zu m=%zu chunk=%zu\n", n, m, chunk);

    // ---- Covariance: streaming moments vs in-memory SampleCovariance.
    Matrix cov_inmem, cov_stream;
    const double cov_inmem_seconds = bench::TimeMedian(
        reps, [&] { cov_inmem = stats::SampleCovariance(disguised); });
    const double cov_stream_seconds = bench::TimeMedian(reps, [&] {
      stats::StreamingMoments moments(m);
      pipeline::MatrixRecordSource source(&disguised);
      Matrix buffer(chunk, m);
      for (;;) {
        const size_t rows = source.NextChunk(&buffer).value();
        if (rows == 0) break;
        moments.Accumulate(buffer, rows);
      }
      cov_stream = moments.FinalizeCovariance();
    });
    bench::Record(&results, "covariance/" + std::to_string(n) + "/inmem",
                  cov_inmem_seconds, records);
    bench::Record(&results, "covariance/" + std::to_string(n) + "/stream",
                  cov_stream_seconds, records,
                  {{"max_abs_diff",
                    linalg::MaxAbsDifference(cov_inmem, cov_stream)},
                   {"speedup", cov_inmem_seconds / cov_stream_seconds}});

    // ---- Full attacks: streaming pipeline vs in-memory reconstructors.
    struct AttackCase {
      const char* label;
      pipeline::StreamingAttack kind;
    };
    const AttackCase cases[] = {
        {"attack_pca", pipeline::StreamingAttack::kPcaDr},
        {"attack_sf", pipeline::StreamingAttack::kSpectralFiltering},
    };
    for (const AttackCase& attack_case : cases) {
      Matrix recon_inmem;
      const double inmem_seconds = bench::TimeMedian(reps, [&] {
        Result<Matrix> recon =
            attack_case.kind == pipeline::StreamingAttack::kPcaDr
                ? core::PcaReconstructor().Reconstruct(disguised, noise)
                : core::SpectralFilteringReconstructor().Reconstruct(disguised,
                                                                     noise);
        recon_inmem = std::move(recon).value();
      });

      pipeline::StreamingAttackOptions options;
      options.attack = attack_case.kind;
      options.chunk_rows = chunk;
      double recon_diff = 0.0;
      size_t num_components = 0;
      const double stream_seconds = bench::TimeMedian(reps, [&] {
        pipeline::MatrixRecordSource source(&disguised);
        bench::ComparingSink sink(&recon_inmem);
        auto report = pipeline::StreamingAttackPipeline(options).Run(
            &source, noise, &sink);
        if (!report.ok()) {
          std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
          std::exit(1);
        }
        recon_diff = sink.max_abs_diff();
        num_components = report.value().num_components;
      });
      worst_recon_diff = std::max(worst_recon_diff, recon_diff);

      // Working sets: the pipeline holds 4 chunk buffers (read, centered,
      // scores, reconstructed), the staging block, and O(m²) accumulators;
      // the in-memory attack holds the disguised matrix, its centered
      // copy, and the reconstruction, all n x m.
      const double stream_bytes =
          8.0 * (4.0 * static_cast<double>(chunk) * m +
                 static_cast<double>(linalg::kernels::kGramChunkRows) * m +
                 4.0 * static_cast<double>(m) * m);
      const double inmem_bytes = 8.0 * 3.0 * records * m;
      const std::string stem =
          std::string(attack_case.label) + "/" + std::to_string(n);
      bench::Record(&results, stem + "/inmem", inmem_seconds, records,
                    {{"resident_bytes_inmem", inmem_bytes}});
      bench::Record(&results, stem + "/stream", stream_seconds, records,
                    {{"recon_max_abs_diff", recon_diff},
                     {"num_components", static_cast<double>(num_components)},
                     {"resident_bytes_stream", stream_bytes},
                     {"speedup", inmem_seconds / stream_seconds}});
    }
  }

  if (worst_recon_diff > 1e-10) {
    std::fprintf(stderr,
                 "FAIL: streaming reconstruction diverged from in-memory "
                 "(max_abs_diff %.3g > 1e-10)\n",
                 worst_recon_diff);
    return 1;
  }
  if (!generation_invariant) {
    std::fprintf(stderr,
                 "FAIL: disguised stream not bitwise invariant "
                 "across chunk sizes / thread counts\n");
    return 1;
  }

  const bench::BenchConfig config = {
      {"smoke", smoke.value() ? "true" : "false"},
      {"seed", std::to_string(seed.value())},
      {"m", std::to_string(m)},
      {"sigma", FormatDouble(sigma, 2)},
      {"chunk_rows", std::to_string(chunk)},
      {"threads_env", std::getenv("RANDRECON_THREADS")
                          ? std::getenv("RANDRECON_THREADS")
                          : "auto"},
  };
  const Status json_status =
      bench::WriteBenchJson(json_path, "micro_pipeline", config, results);
  if (!json_status.ok()) {
    std::fprintf(stderr, "%s\n", json_status.ToString().c_str());
    return 1;
  }
  std::printf("bench json written to %s\n", json_path.c_str());
  return 0;
}
