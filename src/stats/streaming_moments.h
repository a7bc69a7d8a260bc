// StreamingMoments: out-of-core mean and sample-covariance accumulation
// over record chunks of ANY size, in ONE sweep and bounded memory (below).
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
// Deferred block Grams (the columnar sweep on more than one thread).
// Block k's staged coordinates and δ depend only on the running MEAN µ_a
// before it, never on M_a; only the scatter merge is serial. So a full
// kGramChunkRows block that reaches AccumulateColumns on the block grid,
// after the first block (which sets the shift), is split in three:
//   * fold — the calling thread, in record order: the raw and moved
//     column sums over the caller's columns (the staging loop's additions,
//     per column in record order, without storing the block), giving δ,
//     the merge weight n_a·n_b/n and the µ_a update;
//   * partial — a pool worker (StartParallelFor): restages the block with
//     the running mean the fold saw, centers it on δ and reduces it with
//     GramAtAChunk into the block's own m x m partial M_b;
//   * merge — the calling thread, strictly in block order:
//     M_a += M_b + δδᵀ·weight.
// Folded blocks collect in windows of two blocks per resolved worker (the
// store look-ahead's rule); a full window's partials run on the pool
// while the caller folds the next window, and are merged when that one
// fills. Every other block — the first, ragged spans, the row-major
// form, and every block when the options resolve to one thread or the
// accumulator is built inside a pool task — stages and flushes inline as
// above, after merging whatever is pending, and so does
// FinalizeCovariance(). The fold performs the staging loop's additions
// in the same per-column order and the worker stages with the same code,
// shift and saved mean, so every staged value, δ, weight, partial and
// merge is the inline path's: the bits cannot move.
//
// Memory: O((T + 1)·kGramChunkRows·m + T·m²) for T resolved threads —
// the inline staging block plus one staging block per worker chunk, and
// a partial per slot of the two windows (the one on the pool and the one
// filling). One thread: O(kGramChunkRows·m + m²).
//
// Column-data lifetime: a deferred block keeps the caller's column DATA
// pointers (not the pointer array) until its window is merged, so the
// data passed to AccumulateColumns must stay valid until
// FinalizeCovariance() returns or the accumulator is destroyed (as
// pipeline::ColumnarBlockStream's block pointers do). The destructor and
// moves join the wave in flight first.
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
  /// `options` parallelizes the per-block Gram kernel and the deferred
  /// block partials; results are bitwise identical for any setting.
  explicit StreamingMoments(size_t num_attributes,
                            const ParallelOptions& options = {});
  /// Moves and destruction join the deferred blocks' wave first.
  StreamingMoments(StreamingMoments&& other) noexcept;
  StreamingMoments& operator=(StreamingMoments&& other) noexcept;
  ~StreamingMoments();

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
  /// Whole blocks may be deferred to the pool (see the file comment): the
  /// column DATA must stay valid until FinalizeCovariance() returns or
  /// the accumulator is destroyed; the `columns` array itself need not.
  void AccumulateColumns(const double* const* columns, size_t num_rows);

  /// Column means µ̂ of every record accumulated so far (requires at
  /// least one). Never waits for deferred blocks.
  linalg::Vector means() const;

  /// Merges the deferred blocks, flushes the last (ragged) block and
  /// returns the m x m sample covariance (ddof = 0: divide by n; ddof =
  /// 1: divide by n−1). Requires n > ddof. Ends the stream: later
  /// records would start a block off the kGramChunkRows grid.
  linalg::Matrix FinalizeCovariance(int ddof = 0);

  /// Records accumulated so far.
  size_t num_records() const { return num_records_; }

  size_t num_attributes() const { return num_attributes_; }

 private:
  struct DeferredBlocks;

  /// The one copy of the staging skeleton (lazy buffer init, span loop,
  /// flush exactly at kGramChunkRows boundaries) that the bitwise
  /// contract depends on. `stage(consumed, span)` stages records
  /// [consumed, consumed + span) of the caller's input after the
  /// staging_rows_ already held — the only part that differs between the
  /// row-major and columnar entry points. Non-null `columns` (the
  /// columnar form) lets whole blocks on the grid be deferred instead.
  void AccumulateSpans(size_t num_rows,
                       const std::function<void(size_t, size_t)>& stage,
                       const double* const* columns);

  /// Centers the staged block on its own mean and merges its scatter
  /// into the running moments (the update above), after the deferred
  /// blocks before it.
  void FlushStagingBlock();

  /// Folds the kGramChunkRows records at `columns[j] + first_row` into
  /// the sums and the running mean and queues the block's partial in the
  /// filling window, launching the window when it is full.
  void DeferBlock(const double* const* columns, size_t first_row);

  /// Joins the wave in flight and merges its window.
  void MergeWindowInFlight();

  /// Merges every deferred block: the window in flight, then the filling
  /// one, whose partials run here on the pool with the caller taking part.
  void MergeDeferred();

  size_t num_attributes_;
  ParallelOptions options_;
  size_t num_records_ = 0;   ///< Records accumulated, staged ones included.
  /// n_a: records folded into mean_. Their scatter is in scatter_ or
  /// still in a deferred window.
  size_t merged_rows_ = 0;
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
  /// Blocks per deferral window; 1 = every block inline.
  size_t window_blocks_ = 1;
  /// The deferred partials running on the pool. It reads the caller's
  /// column data and *deferred_ only (heap, never a member's address);
  /// declared before deferred_ so a move-assignment joins it before
  /// replacing the buffers, and joined by the destructor before they die.
  ParallelTask wave_;
  std::unique_ptr<DeferredBlocks> deferred_;  ///< Created at the first.
};

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_STREAMING_MOMENTS_H_
