// End-to-end fidelity of the out-of-core pipeline: streaming SF and
// PCA-DR must reproduce the in-memory reconstructors to <= 1e-10 per
// entry (the covariance underneath is bitwise identical; only the
// chunked projection may differ in the last bits).

#include "pipeline/streaming_attack.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/pca_dr.h"
#include "core/spectral_filtering.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "linalg/eigen.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace pipeline {
namespace {

constexpr double kTol = 1e-10;

using linalg::Matrix;

/// A correlated dataset + its disguised version, shared by the tests.
struct Fixture {
  Matrix original;
  Matrix disguised;
  perturb::NoiseModel noise = perturb::NoiseModel::IndependentGaussian(1, 1.0);
};

Fixture MakeFixture(size_t n = 600, size_t m = 12, double sigma = 0.4) {
  stats::Rng rng(29);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(m, 3, 8.0, 0.1);
  auto generated = data::GenerateSpectrumDataset(spec, n, &rng);
  Fixture fixture;
  fixture.original = generated.value().dataset.records();
  const auto scheme =
      perturb::IndependentNoiseScheme::Gaussian(m, sigma);
  fixture.disguised =
      fixture.original + scheme.GenerateNoise(n, &rng);
  fixture.noise = scheme.noise_model();
  return fixture;
}

/// RMSE of Y − X̂ for the rank-p projection X̂ = µ̂ + (Y − µ̂)Q̂Q̂ᵀ the
/// pipeline emitted, without X̂'s own rounding: the kept basis Q̂ is
/// recovered as the top-p eigenvectors of Cov(X̂), and the residual
/// (Y − µ̂)(I − Q̂Q̂ᵀ) is summed in long double from Y and the reported µ̂.
/// An RMSE over the emitted doubles instead inherits half an ulp of
/// rounding per entry, ~6e-11 near 1e6, which moves it by a few 1e-13
/// relative at n·m = 4e4.
double ProjectionResidualRmse(const Matrix& disguised,
                              const linalg::Vector& mean, const Matrix& recon,
                              size_t p) {
  auto eig = linalg::SymmetricEigen(stats::SampleCovariance(recon));
  EXPECT_TRUE(eig.ok()) << eig.status().ToString();
  if (!eig.ok()) return 0.0;
  const Matrix q = eig.value().eigenvectors.LeftColumns(p);
  const size_t n = disguised.rows();
  const size_t m = disguised.cols();
  std::vector<long double> centered(m);
  long double energy = 0.0L;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      centered[j] = static_cast<long double>(disguised(i, j)) - mean[j];
    }
    std::vector<long double> residual = centered;
    for (size_t k = 0; k < p; ++k) {
      long double coefficient = 0.0L;
      for (size_t j = 0; j < m; ++j) coefficient += centered[j] * q(j, k);
      for (size_t j = 0; j < m; ++j) residual[j] -= coefficient * q(j, k);
    }
    for (size_t j = 0; j < m; ++j) energy += residual[j] * residual[j];
  }
  return static_cast<double>(
      std::sqrt(energy / static_cast<long double>(n * m)));
}

Matrix RunStreaming(const Fixture& fixture, StreamingAttack attack,
                    size_t chunk_rows, StreamingAttackReport* report_out,
                    RecordSource* reference = nullptr) {
  StreamingAttackOptions options;
  options.attack = attack;
  options.chunk_rows = chunk_rows;
  MatrixRecordSource source(&fixture.disguised);
  CollectChunkSink sink(fixture.disguised.cols());
  auto report = StreamingAttackPipeline(options).Run(&source, fixture.noise,
                                                     &sink, reference);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report_out != nullptr && report.ok()) {
    *report_out = report.value();
  }
  return sink.ToMatrix();
}

TEST(StreamingAttackTest, PcaDrMatchesInMemoryReconstructor) {
  const Fixture fixture = MakeFixture();
  StreamingAttackReport report;
  const Matrix streamed =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 37, &report);

  core::PcaDiagnostics diagnostics;
  const auto in_memory = core::PcaReconstructor().ReconstructWithDiagnostics(
      fixture.disguised, fixture.noise, &diagnostics);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

  ASSERT_EQ(streamed.rows(), fixture.disguised.rows());
  EXPECT_LE(linalg::MaxAbsDifference(streamed, in_memory.value()), kTol);
  // Identical covariance bits => identical component selection.
  EXPECT_EQ(report.num_components, diagnostics.num_components);
  EXPECT_EQ(report.num_records, fixture.disguised.rows());
}

TEST(StreamingAttackTest, SpectralFilteringMatchesInMemoryReconstructor) {
  const Fixture fixture = MakeFixture();
  StreamingAttackReport report;
  const Matrix streamed =
      RunStreaming(fixture, StreamingAttack::kSpectralFiltering, 64, &report);

  const auto in_memory = core::SpectralFilteringReconstructor().Reconstruct(
      fixture.disguised, fixture.noise);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_LE(linalg::MaxAbsDifference(streamed, in_memory.value()), kTol);
}

TEST(StreamingAttackTest, ReconstructionIsChunkSizeInsensitive) {
  const Fixture fixture = MakeFixture(500, 8);
  const Matrix tiny_chunks =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 7, nullptr);
  const Matrix one_chunk =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 500, nullptr);
  EXPECT_LE(linalg::MaxAbsDifference(tiny_chunks, one_chunk), kTol);
}

TEST(StreamingAttackTest, EstimatedMeanIsBitwiseInMemoryMean) {
  const Fixture fixture = MakeFixture(300, 6);
  StreamingAttackReport report;
  RunStreaming(fixture, StreamingAttack::kPcaDr, 41, &report);
  const linalg::Vector means = stats::ColumnMeans(fixture.disguised);
  ASSERT_EQ(report.mean.size(), means.size());
  for (size_t j = 0; j < means.size(); ++j) {
    EXPECT_EQ(report.mean[j], means[j]) << "mean " << j;
  }
}

TEST(StreamingAttackTest, ReferenceStreamFeedsPrivacyRmse) {
  const Fixture fixture = MakeFixture();
  MatrixRecordSource reference(&fixture.original);
  StreamingAttackReport report;
  const Matrix streamed =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 50, &report, &reference);
  ASSERT_TRUE(report.has_reference);
  const double expected =
      stats::RootMeanSquareError(streamed, fixture.original);
  EXPECT_NEAR(report.rmse_vs_reference, expected, 1e-12);
  // The attack removed noise: closer to the truth than the disguised data.
  EXPECT_LT(report.rmse_vs_reference,
            stats::RootMeanSquareError(fixture.disguised, fixture.original));
  EXPECT_GT(report.rmse_vs_disguised, 0.0);
}

TEST(StreamingAttackTest, CsvStreamEndToEnd) {
  const Fixture fixture = MakeFixture(200, 5);
  const std::string csv = data::ToCsvString(
      data::Dataset(fixture.disguised), /*precision=*/12);
  auto source = CsvRecordSource::FromString(csv);
  ASSERT_TRUE(source.ok());
  CsvRecordSource csv_source = std::move(source).value();

  StreamingAttackOptions options;
  options.chunk_rows = 33;
  CollectChunkSink sink(5);
  const auto report =
      StreamingAttackPipeline(options).Run(&csv_source, fixture.noise, &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Compare against the in-memory attack on the SAME parsed records (CSV
  // round-trip quantizes, so attack the quantized table on both sides).
  const Matrix parsed = data::FromCsvString(csv).value().records();
  const auto in_memory =
      core::PcaReconstructor().Reconstruct(parsed, fixture.noise);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_LE(linalg::MaxAbsDifference(sink.ToMatrix(), in_memory.value()),
            kTol);
}

/// A conforming-but-stingy source: never serves more than `trickle`
/// records per call, regardless of the buffer size offered.
class TrickleSource final : public RecordSource {
 public:
  TrickleSource(const Matrix* records, size_t trickle)
      : records_(records), trickle_(trickle) {}
  size_t num_attributes() const override { return records_->cols(); }
  Status Reset() override {
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(Matrix* buffer) override {
    const size_t rows = std::min(
        {buffer->rows(), trickle_, records_->rows() - next_row_});
    for (size_t i = 0; i < rows; ++i) {
      buffer->SetRow(i, records_->Row(next_row_ + i));
    }
    next_row_ += rows;
    return rows;
  }

 private:
  const Matrix* records_;
  size_t trickle_;
  size_t next_row_ = 0;
};

TEST(StreamingAttackTest, PartialChunkReferenceSourceIsDrained) {
  // A reference source that under-fills its buffer is still aligned —
  // the pipeline must gather records, not compare per-call chunk sizes.
  const Fixture fixture = MakeFixture(300, 6);
  TrickleSource trickle_reference(&fixture.original, 13);
  StreamingAttackReport trickle_report;
  RunStreaming(fixture, StreamingAttack::kPcaDr, 50, &trickle_report,
               &trickle_reference);
  MatrixRecordSource full_reference(&fixture.original);
  StreamingAttackReport full_report;
  RunStreaming(fixture, StreamingAttack::kPcaDr, 50, &full_report,
               &full_reference);
  ASSERT_TRUE(trickle_report.has_reference);
  EXPECT_EQ(trickle_report.rmse_vs_reference, full_report.rmse_vs_reference);
}

TEST(StreamingAttackTest, MisalignedReferenceIsAnError) {
  const Fixture fixture = MakeFixture(100, 4);
  const Matrix short_reference =
      fixture.original.Block(0, 50, 0, fixture.original.cols());
  MatrixRecordSource source(&fixture.disguised);
  MatrixRecordSource reference(&short_reference);
  NullChunkSink sink;
  const auto report = StreamingAttackPipeline().Run(&source, fixture.noise,
                                                    &sink, &reference);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingAttackTest, NoiseWidthMismatchIsAnError) {
  const Fixture fixture = MakeFixture(50, 4);
  MatrixRecordSource source(&fixture.disguised);
  NullChunkSink sink;
  const auto report = StreamingAttackPipeline().Run(
      &source, perturb::NoiseModel::IndependentGaussian(3, 1.0), &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

/// A source whose record count shrinks after the first pass — a live log
/// being truncated between sweeps.
class ShrinkingSource final : public RecordSource {
 public:
  explicit ShrinkingSource(const Matrix* records) : records_(records) {}
  size_t num_attributes() const override { return records_->cols(); }
  Status Reset() override {
    ++passes_;
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(Matrix* buffer) override {
    const size_t limit = passes_ <= 1 ? records_->rows()
                                      : records_->rows() - 10;
    const size_t rows = std::min(buffer->rows(), limit - next_row_);
    for (size_t i = 0; i < rows; ++i) {
      buffer->SetRow(i, records_->Row(next_row_ + i));
    }
    next_row_ += rows;
    return rows;
  }

 private:
  const Matrix* records_;
  size_t passes_ = 0;
  size_t next_row_ = 0;
};

TEST(StreamingAttackTest, DriftingSourceFailsTheJobNotTheProcess) {
  const Fixture fixture = MakeFixture(100, 4);
  ShrinkingSource source(&fixture.disguised);
  // A consuming sink makes the pipeline sweep twice; a metrics-only job
  // reads the source once and has no second sweep to drift across.
  CollectChunkSink sink(4);
  const auto report =
      StreamingAttackPipeline().Run(&source, fixture.noise, &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("sweep"), std::string::npos);
}

TEST(StreamingAttackTest, ClosedFormResidualMatchesTheStreamedResidual) {
  // rmse_vs_disguised comes from the pass-1 moments. Recompute it from
  // the emitted reconstruction for both attacks, p in {1, m-1, m}, data
  // centred at 0 and near 1e6, and chunkings that split the 4096-row
  // moment blocks every way.
  constexpr size_t kRecords = 5000;
  constexpr size_t kAttributes = 8;
  const Fixture base = MakeFixture(kRecords, kAttributes);
  for (const double offset : {0.0, 1e6}) {
    Fixture fixture = base;
    for (size_t i = 0; i < kRecords; ++i) {
      for (size_t j = 0; j < kAttributes; ++j) {
        const double shift = offset * (1.0 + 0.01 * static_cast<double>(j));
        fixture.original(i, j) += shift;
        fixture.disguised(i, j) += shift;
      }
    }
    const double trace_cov_y =
        linalg::Trace(stats::SampleCovariance(fixture.disguised));
    for (const StreamingAttack attack :
         {StreamingAttack::kPcaDr, StreamingAttack::kSpectralFiltering}) {
      for (const size_t p : {size_t{1}, kAttributes - 1, kAttributes}) {
        for (const size_t chunk_rows : {size_t{1}, size_t{7}, size_t{4096}}) {
          SCOPED_TRACE(testing::Message()
                       << "offset=" << offset << " attack="
                       << static_cast<int>(attack) << " p=" << p
                       << " chunk_rows=" << chunk_rows);
          StreamingAttackOptions options;
          options.attack = attack;
          options.chunk_rows = chunk_rows;
          options.pca.selection = core::PcSelection::kFixedCount;
          options.pca.fixed_count = p;
          options.sf.bound_scale = 1e9;  // Rejects all: p = min_components.
          options.sf.min_components = p;
          const StreamingAttackPipeline pipeline(options);

          MatrixRecordSource collect_source(&fixture.disguised);
          CollectChunkSink collect(kAttributes);
          auto collected =
              pipeline.Run(&collect_source, fixture.noise, &collect);
          ASSERT_TRUE(collected.ok()) << collected.status().ToString();
          ASSERT_EQ(collected.value().num_components, p);
          const double closed = collected.value().rmse_vs_disguised;
          const Matrix recon = collect.ToMatrix();
          const double streamed =
              stats::RootMeanSquareError(recon, fixture.disguised);
          if (p < kAttributes) {
            // Recomputed from the emitted projection, but free of X̂'s
            // rounding at ulp(1e6) (see ProjectionResidualRmse).
            const double projected = ProjectionResidualRmse(
                fixture.disguised, collected.value().mean, recon, p);
            EXPECT_LE(std::abs(closed - projected), 1e-12 * projected)
                << "closed " << closed << " projected " << projected
                << " streamed " << streamed;
          } else {
            // Nothing dropped: the closed form is exactly 0, the streamed
            // residual is rounding only.
            EXPECT_EQ(closed, 0.0);
            EXPECT_LE(streamed * streamed, 1e-12 * trace_cov_y);
          }

          // The same bits whether or not pass 2 runs, and for any sink.
          MatrixRecordSource null_source(&fixture.disguised);
          NullChunkSink null_sink;
          auto metrics_only =
              pipeline.Run(&null_source, fixture.noise, &null_sink);
          ASSERT_TRUE(metrics_only.ok());
          MatrixRecordSource referenced_source(&fixture.disguised);
          MatrixRecordSource reference(&fixture.original);
          auto referenced = pipeline.Run(&referenced_source, fixture.noise,
                                         &null_sink, &reference);
          ASSERT_TRUE(referenced.ok());
          const double null_rmse = metrics_only.value().rmse_vs_disguised;
          const double referenced_rmse = referenced.value().rmse_vs_disguised;
          EXPECT_EQ(std::memcmp(&null_rmse, &closed, sizeof(double)), 0);
          EXPECT_EQ(std::memcmp(&referenced_rmse, &closed, sizeof(double)), 0);
          EXPECT_FALSE(metrics_only.value().has_reference);
          EXPECT_TRUE(referenced.value().has_reference);
        }
      }
    }
  }
}

TEST(StreamingAttackTest, TooFewRecordsIsAnError) {
  const Matrix one_record(1, 3, 1.0);
  MatrixRecordSource source(&one_record);
  NullChunkSink sink;
  const auto report = StreamingAttackPipeline().Run(
      &source, perturb::NoiseModel::IndependentGaussian(3, 1.0), &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Telemetry: chunk/record counters are exact, and instrumentation never
// perturbs the numbers (common/metrics.h determinism contract).
// ---------------------------------------------------------------------------

uint64_t AttackCounter(const char* name) {
  for (const metrics::CounterSnapshot& c : metrics::Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

uint64_t AttackHistogramCount(const char* name) {
  for (const metrics::HistogramSnapshot& h : metrics::Snapshot().histograms) {
    if (h.name == name) return h.count;
  }
  ADD_FAILURE() << "no histogram named " << name;
  return 0;
}

TEST(StreamingAttackTest, TelemetryCountersArePinned) {
  metrics::ResetAllMetrics();
  const Fixture fixture = MakeFixture(100, 4);
  StreamingAttackReport report;
  RunStreaming(fixture, StreamingAttack::kPcaDr, 30, &report);
  ASSERT_EQ(report.num_records, 100u);

  // 100 rows in 30-row chunks is 4 chunks per sweep; pass 1 and pass 2
  // each sweep the source once, and each counts exactly n records.
  EXPECT_EQ(AttackCounter("attack.runs"), 1u);
  EXPECT_EQ(AttackCounter("attack.records_pass1"), 100u);
  EXPECT_EQ(AttackCounter("attack.records_pass2"), 100u);
  EXPECT_EQ(AttackCounter("attack.chunks_pass1"), 4u);
  EXPECT_EQ(AttackCounter("attack.chunks_pass2"), 4u);
  EXPECT_EQ(AttackHistogramCount("attack.pass1_chunk_nanos"), 4u);
  EXPECT_EQ(AttackHistogramCount("attack.pass2_chunk_nanos"), 4u);
}

/// Counts rewinds and served records of the wrapped source.
class CountingSource final : public RecordSource {
 public:
  explicit CountingSource(const Matrix* records) : inner_(records) {}
  size_t num_attributes() const override { return inner_.num_attributes(); }
  Status Reset() override {
    ++resets_;
    return inner_.Reset();
  }
  Result<size_t> NextChunk(Matrix* buffer) override {
    RR_ASSIGN_OR_RETURN(const size_t rows, inner_.NextChunk(buffer));
    served_ += rows;
    return rows;
  }
  size_t resets() const { return resets_; }
  size_t served() const { return served_; }

 private:
  MatrixRecordSource inner_;
  size_t resets_ = 0;
  size_t served_ = 0;
};

TEST(StreamingAttackTest, MetricsOnlyJobSweepsTheSourceOnce) {
  const Fixture fixture = MakeFixture(100, 4);
  const size_t n = fixture.disguised.rows();
  for (const StreamingAttack attack :
       {StreamingAttack::kPcaDr, StreamingAttack::kSpectralFiltering}) {
    StreamingAttackOptions options;
    options.attack = attack;
    options.chunk_rows = 30;
    const StreamingAttackPipeline pipeline(options);
    {
      metrics::ResetAllMetrics();
      CountingSource source(&fixture.disguised);
      NullChunkSink sink;
      ASSERT_TRUE(pipeline.Run(&source, fixture.noise, &sink).ok());
      EXPECT_EQ(source.resets(), 1u);
      EXPECT_EQ(source.served(), n);
      EXPECT_EQ(AttackCounter("attack.records_pass1"), n);
      EXPECT_EQ(AttackCounter("attack.records_pass2"), 0u);
    }
    {
      // A reference stream needs the projected records: two sweeps.
      CountingSource source(&fixture.disguised);
      MatrixRecordSource reference(&fixture.original);
      NullChunkSink sink;
      ASSERT_TRUE(pipeline.Run(&source, fixture.noise, &sink, &reference).ok());
      EXPECT_EQ(source.resets(), 2u);
      EXPECT_EQ(source.served(), 2 * n);
    }
    {
      // So does a sink that consumes them.
      CountingSource source(&fixture.disguised);
      CollectChunkSink sink(fixture.disguised.cols());
      ASSERT_TRUE(pipeline.Run(&source, fixture.noise, &sink).ok());
      EXPECT_EQ(source.resets(), 2u);
      EXPECT_EQ(source.served(), 2 * n);
      EXPECT_EQ(sink.num_records(), n);
    }
  }
}

TEST(StreamingAttackTest, TracingDoesNotPerturbTheNumbers) {
  const Fixture fixture = MakeFixture(300, 6);

  StreamingAttackReport plain_report;
  const Matrix plain = RunStreaming(fixture, StreamingAttack::kSpectralFiltering,
                                    44, &plain_report);

  trace::StartTracing();
  StreamingAttackReport traced_report;
  const Matrix traced = RunStreaming(
      fixture, StreamingAttack::kSpectralFiltering, 44, &traced_report);
  const std::vector<trace::Span> spans = trace::StopTracing();

  // The capture saw the pipeline's stage spans...
  auto has_span = [&](const char* name) {
    for (const trace::Span& span : spans) {
      if (span.name == name) return true;
    }
    return false;
  };
  // Pass 1 is one sweep, traced under the scatter span name only.
  EXPECT_FALSE(has_span("attack.pass1_means"));
  EXPECT_TRUE(has_span("attack.pass1_scatter"));
  EXPECT_TRUE(has_span("attack.eigen"));
  EXPECT_TRUE(has_span("attack.pass2"));

  // ...and every number is bitwise identical to the uninstrumented run.
  EXPECT_EQ(linalg::MaxAbsDifference(plain, traced), 0.0);
  EXPECT_EQ(plain_report.num_records, traced_report.num_records);
  EXPECT_EQ(plain_report.num_components, traced_report.num_components);
  EXPECT_EQ(plain_report.rmse_vs_disguised, traced_report.rmse_vs_disguised);
  ASSERT_EQ(plain_report.mean.size(), traced_report.mean.size());
  for (size_t j = 0; j < plain_report.mean.size(); ++j) {
    EXPECT_EQ(plain_report.mean[j], traced_report.mean[j]) << "mean " << j;
  }
  ASSERT_EQ(plain_report.eigenvalues.size(), traced_report.eigenvalues.size());
  for (size_t j = 0; j < plain_report.eigenvalues.size(); ++j) {
    EXPECT_EQ(plain_report.eigenvalues[j], traced_report.eigenvalues[j])
        << "eigenvalue " << j;
  }
}

TEST(StreamingAttackTest, ZeroChunkRowsFailsTheJobNotTheProcess) {
  const Fixture fixture = MakeFixture(50, 4);
  MatrixRecordSource source(&fixture.disguised);
  NullChunkSink sink;
  StreamingAttackOptions options;
  options.chunk_rows = 0;
  const auto report =
      StreamingAttackPipeline(options).Run(&source, fixture.noise, &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
