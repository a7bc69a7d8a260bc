// StreamingAttackPipeline: the paper's covariance-driven attacks (SF and
// PCA-DR) run out-of-core over a chunked record stream.
//
// Everything those attacks need from the n x m disguised matrix Y is its
// column means and its m x m sample covariance — one streamed sweep. A
// job that only wants the report (NullChunkSink, no reference stream)
// therefore sweeps the source ONCE; a job whose reconstruction is
// consumed sweeps it a second time to project every record. Peak
// resident data is O((chunk_rows + kGramChunkRows)·m + m²) — the second
// term is the moment accumulator's fixed 4096-row staging block, which
// dominates if chunk_rows is shrunk below it:
//
//   Pass 1 — moments: stream Y ONCE through stats::StreamingMoments
//     (per-block moments merged in record order), eigendecompose ONCE:
//       SF      — eigenvectors of Cov(Y), p from the Marchenko–Pastur
//                 bound (core::SelectSfComponents);
//       PCA-DR  — Theorem 5.1/8.2 estimate Σ̂x = Cov(Y) − Σr
//                 (core::EstimateOriginalCovariance), p from the
//                 eigengap rule (core::SelectNumComponents).
//     rmse_vs_disguised follows in closed form: the residual
//     X̂ − Y = −(Y − µ̂)(I − Q̂Q̂ᵀ) has per-record energy
//     Σ_{k>p} q_kᵀ Cov(Y) q_k over the dropped eigenvectors.
//   Pass 2 — projection, only when a ChunkSink other than NullChunkSink
//     or a reference stream is given: stream Y again, reconstruct each
//     chunk as X̂ = Ȳ Q̂ Q̂ᵀ + µ̂, emit it to the sink, and fold
//     rmse_vs_reference against the aligned ground-truth stream.
//
// Fidelity contract (tested in streaming_attack_test): the streamed
// covariance is BITWISE equal to the in-memory stats::SampleCovariance,
// so the eigenbasis and component count match the in-memory attack
// exactly; the chunked projection agrees with core::PcaReconstructor /
// SpectralFilteringReconstructor to <= 1e-10 per entry.

#ifndef RANDRECON_PIPELINE_STREAMING_ATTACK_H_
#define RANDRECON_PIPELINE_STREAMING_ATTACK_H_

#include "common/parallel.h"
#include "common/result.h"
#include "core/pca_dr.h"
#include "core/spectral_filtering.h"
#include "perturb/noise_model.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/record_source.h"

namespace randrecon {
namespace pipeline {

/// Which covariance attack the pipeline runs.
enum class StreamingAttack {
  kPcaDr,
  kSpectralFiltering,
};

/// Configuration for StreamingAttackPipeline.
struct StreamingAttackOptions {
  StreamingAttack attack = StreamingAttack::kPcaDr;
  /// Records per streamed chunk. The default matches the Gram
  /// accumulation block, but ANY value yields bitwise-identical moments.
  size_t chunk_rows = 4096;
  /// PCA-DR knobs (component selection, PSD clipping, §5.3 oracle mode).
  core::PcaOptions pca;
  /// SF knobs (bound scale, minimum components).
  core::SfOptions sf;
  /// Kernel parallelism; results are bitwise identical for any setting.
  ParallelOptions parallel;
};

/// What the pipeline learned, next to the emitted reconstruction.
struct StreamingAttackReport {
  size_t num_records = 0;
  size_t num_attributes = 0;
  /// Selected component count p.
  size_t num_components = 0;
  /// The spectrum the selection ran on: Cov(Y)'s eigenvalues for SF, the
  /// estimated original eigenvalues for PCA-DR (descending).
  linalg::Vector eigenvalues;
  /// Estimated mean µ̂ (column means of the disguised stream).
  linalg::Vector mean;
  /// RMSE between the reconstruction and the disguised input — how much
  /// the attack moved the data (≈ removed noise energy). Computed from
  /// the pass-1 moments, so exactly 0 when p = m.
  double rmse_vs_disguised = 0.0;
  /// RMSE against the aligned ground-truth stream, when one was given —
  /// the paper's privacy measure.
  double rmse_vs_reference = 0.0;
  bool has_reference = false;
};

/// Runs SF / PCA-DR over unbounded record streams in bounded memory.
class StreamingAttackPipeline {
 public:
  StreamingAttackPipeline() = default;
  explicit StreamingAttackPipeline(StreamingAttackOptions options)
      : options_(std::move(options)) {}

  /// Attacks the `disguised` stream, emitting reconstructed chunks to
  /// `sink`. Pass NullChunkSink to keep metrics only: without a
  /// `reference` the job then reads the source once and never projects.
  /// `reference`, when non-null, must be an aligned stream of the
  /// original records (same n, same order) and feeds rmse_vs_reference.
  /// The report's other fields do not depend on the sink or reference.
  /// Fails with InvalidArgument on shape mismatches or misaligned
  /// streams and propagates source/sink errors.
  Result<StreamingAttackReport> Run(RecordSource* disguised,
                                    const perturb::NoiseModel& noise,
                                    ChunkSink* sink,
                                    RecordSource* reference = nullptr) const;

  const StreamingAttackOptions& options() const { return options_; }

 private:
  StreamingAttackOptions options_;
};

}  // namespace pipeline
}  // namespace randrecon

#endif  // RANDRECON_PIPELINE_STREAMING_ATTACK_H_
