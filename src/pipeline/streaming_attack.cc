#include "pipeline/streaming_attack.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/eigen.h"
#include "linalg/kernels.h"
#include "stats/streaming_moments.h"

namespace randrecon {
namespace pipeline {
namespace {

// Attack-pipeline telemetry (common/metrics.h). Record/chunk counters
// are exact; the per-chunk latency histograms and the stage spans are
// timing-only — nothing below branches on them, so the numeric output
// is bitwise identical with telemetry compiled out.
metrics::Counter m_attack_runs("attack.runs");
metrics::Counter m_records_pass1("attack.records_pass1");
metrics::Counter m_records_pass2("attack.records_pass2");
metrics::Counter m_chunks_pass1("attack.chunks_pass1");
metrics::Counter m_chunks_pass2("attack.chunks_pass2");
metrics::Gauge m_last_rows_per_second("attack.last_rows_per_second");
metrics::Histogram m_pass1_chunk_nanos("attack.pass1_chunk_nanos");
metrics::Histogram m_pass2_chunk_nanos("attack.pass2_chunk_nanos");

/// The eigenbasis and diagnostics pass 2 projects through.
struct AttackBasis {
  linalg::Matrix q_hat;  ///< m x p principal eigenvectors.
  linalg::Vector eigenvalues;
  size_t num_components = 0;
  /// Σ_{k>p} q_kᵀ Cov(Y) q_k over the dropped eigenvectors: the
  /// per-record energy of the residual X̂ − Y = −(Y − µ̂)(I − Q̂Q̂ᵀ).
  double dropped_variance = 0.0;
};

/// Cov(Y)'s variance along columns [p, m) of the full eigenvector matrix
/// — the directions the projection discards. Each term is a quadratic
/// form of a PSD matrix, summed without any cancellation against the
/// kept energy; the clamp only absorbs rounding in a singular Cov(Y).
double DroppedVariance(const linalg::Matrix& cov_y,
                       const linalg::Matrix& eigenvectors, size_t p) {
  const size_t m = cov_y.rows();
  double total = 0.0;
  for (size_t k = p; k < m; ++k) {
    double form = 0.0;
    for (size_t i = 0; i < m; ++i) {
      const double* cov_row = cov_y.row_data(i);
      double row_dot = 0.0;
      for (size_t j = 0; j < m; ++j) row_dot += cov_row[j] * eigenvectors(j, k);
      form += eigenvectors(i, k) * row_dot;
    }
    total += std::max(form, 0.0);
  }
  return total;
}

Result<AttackBasis> SelectBasis(const StreamingAttackOptions& options,
                                const linalg::Matrix& cov_y,
                                const perturb::NoiseModel& noise,
                                size_t num_records) {
  AttackBasis basis;
  switch (options.attack) {
    case StreamingAttack::kSpectralFiltering: {
      // SF separates signal from noise on Cov(Y) directly via the
      // Marchenko–Pastur bound — no noise subtraction.
      RR_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                          linalg::SymmetricEigen(cov_y));
      basis.num_components = core::SelectSfComponents(
          eig.eigenvalues, noise, num_records, options.sf);
      basis.dropped_variance =
          DroppedVariance(cov_y, eig.eigenvectors, basis.num_components);
      basis.eigenvalues = std::move(eig.eigenvalues);
      basis.q_hat = eig.eigenvectors.LeftColumns(basis.num_components);
      return basis;
    }
    case StreamingAttack::kPcaDr: {
      // Theorem 5.1/8.2 estimate (or the §5.3 oracle), then the eigengap
      // rule — the exact code path of core::PcaReconstructor.
      linalg::Matrix cov_x;
      if (options.pca.oracle_covariance.has_value()) {
        if (options.pca.oracle_covariance->rows() != cov_y.rows()) {
          return Status::InvalidArgument(
              "StreamingAttackPipeline: oracle covariance dimension mismatch");
        }
        cov_x = *options.pca.oracle_covariance;
      } else {
        RR_ASSIGN_OR_RETURN(cov_x,
                            core::EstimateOriginalCovariance(
                                cov_y, noise, options.pca.moment_options));
      }
      RR_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                          linalg::SymmetricEigen(cov_x));
      basis.num_components =
          core::SelectNumComponents(eig.eigenvalues, options.pca);
      // The basis comes from Σ̂x, but the residual is measured against
      // the disguised data, so its energy is taken on Cov(Y).
      basis.dropped_variance =
          DroppedVariance(cov_y, eig.eigenvectors, basis.num_components);
      basis.eigenvalues = std::move(eig.eigenvalues);
      basis.q_hat = eig.eigenvectors.LeftColumns(basis.num_components);
      return basis;
    }
  }
  return Status::InvalidArgument("StreamingAttackPipeline: unknown attack");
}

/// Elapsed nanos since `start`, saturating at 0 (a test's FakeClockGuard
/// may move the clock backwards under a running measurement).
uint64_t NanosSince(uint64_t start) {
  const uint64_t now = trace::NowNanos();
  return now >= start ? now - start : 0;
}

/// Publishes the finished run's throughput gauge.
void RecordRunRate(size_t num_records, uint64_t run_start_nanos) {
  const uint64_t run_nanos = NanosSince(run_start_nanos);
  if (run_nanos > 0) {
    m_last_rows_per_second.Set(static_cast<int64_t>(
        static_cast<double>(num_records) * 1e9 /
        static_cast<double>(run_nanos)));
  }
}

}  // namespace

Result<StreamingAttackReport> StreamingAttackPipeline::Run(
    RecordSource* disguised, const perturb::NoiseModel& noise, ChunkSink* sink,
    RecordSource* reference) const {
  RR_CHECK(disguised != nullptr) << "StreamingAttackPipeline: null source";
  RR_CHECK(sink != nullptr) << "StreamingAttackPipeline: null sink";
  // chunk_rows is plain job configuration (possibly external), so a bad
  // value fails the job instead of RR_CHECK-aborting a whole batch.
  if (options_.chunk_rows == 0) {
    return Status::InvalidArgument(
        "StreamingAttackPipeline: chunk_rows must be positive");
  }
  const size_t m = disguised->num_attributes();
  if (m == 0 || m != noise.num_attributes()) {
    return Status::InvalidArgument(
        "StreamingAttackPipeline: noise model has " +
        std::to_string(noise.num_attributes()) + " attributes, stream has " +
        std::to_string(m));
  }
  if (reference != nullptr && reference->num_attributes() != m) {
    return Status::InvalidArgument(
        "StreamingAttackPipeline: reference stream width mismatch");
  }

  linalg::Matrix chunk(options_.chunk_rows, m);

  // ---- Pass 1: moments (one sweep) + one eigendecomposition. ---------
  // Store-backed sources expose zero-copy columnar block slices; the
  // moment sweep then runs straight over the mapping, skipping the
  // columnar→row-major gather entirely. The columnar accumulator is
  // bitwise identical to the row-major one (stats/streaming_moments.h),
  // so which path runs never changes the covariance.
  m_attack_runs.Add(1);
  const uint64_t run_start_nanos = trace::NowNanos();
  stats::StreamingMoments moments(m, options_.parallel);
  linalg::Matrix cov_y;
  {
    // Stage breakdowns (perfbench's stats.pass1_scatter_s) key pass 1
    // on this span name. It closes after FinalizeCovariance, which
    // merges the blocks whose partials are still on the pool.
    trace::TraceSpan scatter_span("attack.pass1_scatter");
    ColumnarBlockStream* columnar = disguised->columnar_blocks();
    std::vector<const double*> block_columns;
    if (columnar != nullptr) {
      RR_RETURN_NOT_OK(columnar->ResetBlocks());
    } else {
      RR_RETURN_NOT_OK(disguised->Reset());
    }
    for (;;) {
      const uint64_t chunk_start = trace::NowNanos();
      size_t rows = 0;
      if (columnar != nullptr) {
        RR_ASSIGN_OR_RETURN(rows, columnar->NextBlockColumns(&block_columns));
        moments.AccumulateColumns(block_columns.data(), rows);
      } else {
        RR_ASSIGN_OR_RETURN(rows, disguised->NextChunk(&chunk));
        moments.Accumulate(chunk, rows);
      }
      if (rows == 0) break;
      m_pass1_chunk_nanos.Record(NanosSince(chunk_start));
      m_chunks_pass1.Add(1);
      m_records_pass1.Add(rows);
    }
    if (moments.num_records() < 2) {
      return Status::InvalidArgument(
          "StreamingAttackPipeline: need at least 2 records, saw " +
          std::to_string(moments.num_records()));
    }
    cov_y = moments.FinalizeCovariance();
  }
  const size_t n = moments.num_records();
  const linalg::Vector mean = moments.means();

  AttackBasis basis;
  {
    trace::TraceSpan eigen_span("attack.eigen");
    RR_ASSIGN_OR_RETURN(basis, SelectBasis(options_, cov_y, noise, n));
  }
  const size_t p = basis.num_components;

  StreamingAttackReport report;
  report.num_records = n;
  report.num_attributes = m;
  report.num_components = p;
  report.eigenvalues = std::move(basis.eigenvalues);
  report.mean = mean;
  // Summed over the records the residual's energy is n·dropped_variance
  // (Cov(Y) is ddof 0), so its RMSE over the n·m entries needs no sweep.
  report.rmse_vs_disguised =
      std::sqrt(basis.dropped_variance / static_cast<double>(m));
  // Only a consuming sink or a reference stream needs the projected
  // records; a metrics-only job is done after one sweep.
  if (reference == nullptr && dynamic_cast<NullChunkSink*>(sink) != nullptr) {
    RecordRunRate(n, run_start_nanos);
    return report;
  }

  // ---- Pass 2: project every chunk through the basis. -----------------
  RR_RETURN_NOT_OK(disguised->Reset());
  if (reference != nullptr) RR_RETURN_NOT_OK(reference->Reset());
  linalg::Matrix reference_chunk(reference != nullptr ? options_.chunk_rows : 0,
                                 reference != nullptr ? m : 0);
  linalg::Matrix centered(options_.chunk_rows, m);
  linalg::Matrix scores(options_.chunk_rows, m);  // p <= m columns used.
  linalg::Matrix reconstructed(options_.chunk_rows, m);
  double squared_vs_reference = 0.0;
  size_t row_offset = 0;
  trace::TraceSpan pass2_span("attack.pass2");
  for (;;) {
    const uint64_t chunk_start = trace::NowNanos();
    RR_ASSIGN_OR_RETURN(const size_t rows, disguised->NextChunk(&chunk));
    if (rows == 0) break;
    // X̂ = Ȳ Q̂ Q̂ᵀ + µ̂, chunk-wise through the pointer kernels (no
    // per-chunk allocation): scores = Ȳ Q̂, then X̂ = scores Q̂ᵀ.
    for (size_t i = 0; i < rows; ++i) {
      const double* in_row = chunk.row_data(i);
      double* out_row = centered.row_data(i);
      for (size_t j = 0; j < m; ++j) out_row[j] = in_row[j] - mean[j];
    }
    linalg::kernels::MatMul(centered.data(), basis.q_hat.data(), scores.data(),
                            rows, m, p, options_.parallel);
    linalg::kernels::MatMulABt(scores.data(), basis.q_hat.data(),
                               reconstructed.data(), rows, p, m,
                               options_.parallel);
    for (size_t i = 0; i < rows; ++i) {
      double* row = reconstructed.row_data(i);
      for (size_t j = 0; j < m; ++j) row[j] += mean[j];
    }
    if (reference != nullptr) {
      // Gather exactly `rows` reference records. A source may legally
      // under-fill its buffer (NextChunk only promises "how many were
      // written"), so drain it until this chunk is covered; only true
      // exhaustion is a misalignment. Asking for the full buffer directly
      // is safe only when the targets coincide — requesting more than
      // `rows` could consume records belonging to the next chunk.
      size_t gathered = 0;
      if (rows == reference_chunk.rows()) {
        RR_ASSIGN_OR_RETURN(gathered, reference->NextChunk(&reference_chunk));
      }
      while (gathered < rows) {  // Under-filled or ragged final chunk.
        linalg::Matrix window(rows - gathered, m);
        RR_ASSIGN_OR_RETURN(const size_t got, reference->NextChunk(&window));
        if (got == 0) {
          return Status::InvalidArgument(
              "StreamingAttackPipeline: reference stream ended at record " +
              std::to_string(row_offset + gathered) + ", input has more");
        }
        std::memcpy(reference_chunk.row_data(gathered), window.data(),
                    got * m * sizeof(double));
        gathered += got;
      }
      // The error folds element-by-element in record order, so it is
      // independent of the chunking too.
      for (size_t i = 0; i < rows; ++i) {
        const double* recon_row = reconstructed.row_data(i);
        const double* reference_row = reference_chunk.row_data(i);
        for (size_t j = 0; j < m; ++j) {
          const double d = recon_row[j] - reference_row[j];
          squared_vs_reference += d * d;
        }
      }
    }
    RR_RETURN_NOT_OK(sink->Consume(row_offset, reconstructed, rows));
    row_offset += rows;
    m_pass2_chunk_nanos.Record(NanosSince(chunk_start));
    m_chunks_pass2.Add(1);
    m_records_pass2.Add(rows);
  }
  pass2_span.Finish();
  if (row_offset != n) {
    return Status::InvalidArgument(
        "StreamingAttackPipeline: source served " + std::to_string(row_offset) +
        " records on the pass-2 sweep but " + std::to_string(n) +
        " on the pass-1 sweep");
  }
  if (reference != nullptr) {
    RR_ASSIGN_OR_RETURN(const size_t extra, reference->NextChunk(&reference_chunk));
    if (extra != 0) {
      return Status::InvalidArgument(
          "StreamingAttackPipeline: reference stream longer than the input");
    }
  }

  report.has_reference = reference != nullptr;
  if (report.has_reference) {
    const double denom = static_cast<double>(n) * static_cast<double>(m);
    report.rmse_vs_reference = std::sqrt(squared_vs_reference / denom);
  }
  RecordRunRate(n, run_start_nanos);
  return report;
}

}  // namespace pipeline
}  // namespace randrecon
