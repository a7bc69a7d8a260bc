// StreamingMoments: out-of-core mean and sample-covariance accumulation
// over record chunks of ANY size, in ONE sweep and O(kGramChunkRows·m + m²)
// memory.
//
// The covariance-driven attacks (PCA-DR, SF) need exactly two things from
// the n x m record matrix: the column means and the centered scatter
// Σᵢ (xᵢ−µ)(xᵢ−µ)ᵀ. Both are streamable, so the attacker never has to
// hold n x m — the basis of the src/pipeline subsystem.
//
// Algorithm: records are staged row-major into fixed blocks of
// kernels::kGramChunkRows, moved into merge coordinates (below) as they
// are staged. Staging is per column in record order: each raw value is
// added to the column sum, moved to (x − shift) − mean, stored, and the
// moved value added to the block's column sum. The columnar entry point
// (mmap'd store blocks) does this on kVecLen x kVecLen tiles transposed
// in registers (linalg/simd.h) and falls back to the element loop for
// ragged record and column tails; the operations and their order per
// column are the element loop's, so the staged block, the sums and
// everything after are bitwise the row-major form's.
//
// When a block is full (or the stream ends), it
// is centered on its own mean and flushed through kernels::GramAtAChunk
// (up to kernels::kNarrowGramWidth columns a register-tiled kernel that
// adds the block's records in order, the packed GEMM driver beyond);
// its (count, mean, scatter) triple is then merged into the running
// (n_a, µ_a, M_a) with the pairwise update of Chan, Golub & LeVeque
// ("Algorithms for computing the sample variance", 1983):
//
//   δ  = µ_b − µ_a
//   n  = n_a + n_b
//   µ_a ← µ_a + δ·(n_b / n)
//   M_a ← M_a + (M_b + δδᵀ·(n_a·n_b / n))
//
// Large column means cost no precision: µ_a is held as the first block's
// mean (a fixed shift) plus a small running remainder, and every later
// block is moved into those coordinates (xᵢ − shift − remainder) before
// its mean is taken. δ and the block's centered rows are then computed
// at the scale of the data's spread, not of its offset.
//
// Determinism contract (tested in streaming_moments_test):
//   FinalizeCovariance() is BITWISE identical to
//   stats::SampleCovariance(data) for any sequence of chunk sizes, either
//   entry point, and any thread count: block boundaries fall at global
//   record indices that are multiples of kGramChunkRows no matter how the
//   caller chunks its input, blocks merge strictly in record order, and
//   SampleCovariance runs this same accumulator. means() is the
//   record-ordered column sum ÷ n — bitwise stats::ColumnMeans.
//
//   StreamingMoments moments(m);
//   for (chunk : stream) moments.Accumulate(chunk, rows);
//   linalg::Vector mean = moments.means();
//   linalg::Matrix cov = moments.FinalizeCovariance();

#ifndef RANDRECON_STATS_STREAMING_MOMENTS_H_
#define RANDRECON_STATS_STREAMING_MOMENTS_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace stats {

/// Single-sweep streaming estimator of column means and sample
/// covariance. Misuse (width mismatches, finalizing too few records) is a
/// programmer error and aborts via RR_CHECK, mirroring the preconditions
/// of stats::SampleCovariance.
class StreamingMoments {
 public:
  /// `options` parallelizes the per-block Gram kernel; results are
  /// bitwise identical for any setting.
  explicit StreamingMoments(size_t num_attributes,
                            const ParallelOptions& options = {});

  /// Feeds `num_rows` records (row-major, num_attributes wide).
  void Accumulate(const double* rows, size_t num_rows);

  /// Convenience over a chunk buffer's leading rows.
  void Accumulate(const linalg::Matrix& chunk, size_t num_rows);

  /// Columnar form: `columns[j]` points at `num_rows` contiguous values of
  /// attribute j (e.g. a ColumnStoreReader::BlockColumn slice), so mmap'd
  /// stores feed the accumulator without a separate row-major gather.
  /// Stages through register-transposed tiles the same values at the
  /// same offsets, with the same per-column additions, as the row-major
  /// form, so the two forms are bitwise interchangeable mid-stream.
  void AccumulateColumns(const double* const* columns, size_t num_rows);

  /// Column means µ̂ of every record accumulated so far (requires at
  /// least one).
  linalg::Vector means() const;

  /// Flushes the last (ragged) block and returns the m x m sample
  /// covariance (ddof = 0: divide by n; ddof = 1: divide by n−1).
  /// Requires n > ddof. Ends the stream: later records would start a
  /// block off the kGramChunkRows grid.
  linalg::Matrix FinalizeCovariance(int ddof = 0);

  /// Records accumulated so far.
  size_t num_records() const { return num_records_; }

  size_t num_attributes() const { return num_attributes_; }

 private:
  /// The one copy of the staging skeleton (lazy buffer init, span loop,
  /// flush exactly at kGramChunkRows boundaries) that the bitwise
  /// contract depends on. `stage(consumed, span)` stages records
  /// [consumed, consumed + span) of the caller's input after the
  /// staging_rows_ already held — the only part that differs between the
  /// row-major and columnar entry points.
  void AccumulateSpans(size_t num_rows,
                       const std::function<void(size_t, size_t)>& stage);

  /// Centers the staged block on its own mean and merges its scatter
  /// into the running moments (the update above).
  void FlushStagingBlock();

  size_t num_attributes_;
  ParallelOptions options_;
  size_t num_records_ = 0;   ///< Records accumulated, staged ones included.
  size_t merged_rows_ = 0;   ///< n_a: records merged into mean_/scatter_.
  linalg::Vector sums_;      ///< Record-ordered raw column sums.
  linalg::Vector shift_;     ///< The first block's mean (0 before it).
  linalg::Vector mean_;      ///< µ_a − shift_: the running merge mean.
  /// kGramChunkRows x m staged rows, in merge coordinates
  /// (x − shift_ − mean_). Allocated on first use and never zero-filled.
  std::unique_ptr<double[]> staging_;
  size_t staging_rows_ = 0;
  /// Column sums of the staged rows; δ·n_b once the block flushes.
  linalg::Vector delta_;
  std::unique_ptr<double[]> partial_;  ///< m x m per-block Gram partial.
  std::vector<double> scatter_;  ///< m x m upper-triangle accumulation.
};

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_STREAMING_MOMENTS_H_
