#include "stats/streaming_moments.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "linalg/kernels.h"
#include "linalg/simd.h"

namespace randrecon {
namespace stats {

using linalg::kernels::kGramChunkRows;

namespace {

using linalg::simd::kVecLen;
using linalg::simd::vreal;

/// Stages records [row_begin, row_end) x columns [col_begin, col_end)
/// into `staged` (row-major, m wide) in merge coordinates,
/// (x − shift) − mean, folding each raw value into `sums` and each moved
/// value into `moved_sums` — per column, in record order. `load(i, j)`
/// reads attribute j of record i from the caller's layout; every entry
/// point stages through this loop or through StageColumnTiles, which
/// performs the same operations, so they stage and fold identical bits.
/// The restrict-qualified pointers let the compiler vectorize across the
/// columns of a record (each column's additions stay in record order).
template <typename Load>
void StageMoved(size_t row_begin, size_t row_end, size_t col_begin,
                size_t col_end, size_t m, const Load& load,
                const double* __restrict shift, const double* __restrict mean,
                double* __restrict sums, double* __restrict moved_sums,
                double* __restrict staged) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* out = staged + i * m;
    for (size_t j = col_begin; j < col_end; ++j) {
      const double x = load(i, j);
      sums[j] += x;
      const double moved = (x - shift[j]) - mean[j];
      out[j] = moved;
      moved_sums[j] += moved;
    }
  }
}

/// StageMoved for the columnar layout over whole kVecLen x kVecLen tiles:
/// records [0, rows) x columns [0, cols), both multiples of kVecLen.
/// Each tile loads kVecLen records of kVecLen columns (one contiguous
/// vector per column), transposes it in registers so each vector holds
/// one record, then does per record exactly what StageMoved does per
/// element — sums += x, moved = (x − shift) − mean, store, moved_sums +=
/// moved — lane by lane in IEEE double. Tiles run in record order, so
/// every column's additions keep StageMoved's order and the staged rows
/// and both sums are bitwise StageMoved's.
void StageColumnTiles(const double* const* columns, size_t first_row,
                      size_t rows, size_t cols, size_t m,
                      const double* shift, const double* mean, double* sums,
                      double* moved_sums, double* staged) {
  using linalg::simd::Load;
  using linalg::simd::Store;
  for (size_t i0 = 0; i0 < rows; i0 += kVecLen) {
    for (size_t j0 = 0; j0 < cols; j0 += kVecLen) {
      vreal tile[kVecLen];
      for (size_t u = 0; u < kVecLen; ++u) {
        tile[u] = Load(columns[j0 + u] + first_row + i0);
      }
      linalg::simd::TransposeTile(tile);
      const vreal shift_v = Load(shift + j0);
      const vreal mean_v = Load(mean + j0);
      vreal sums_v = Load(sums + j0);
      vreal moved_sums_v = Load(moved_sums + j0);
      double* out = staged + i0 * m + j0;
      for (size_t r = 0; r < kVecLen; ++r) {
        sums_v += tile[r];
        const vreal moved = (tile[r] - shift_v) - mean_v;
        Store(out + r * m, moved);
        moved_sums_v += moved;
      }
      Store(sums + j0, sums_v);
      Store(moved_sums + j0, moved_sums_v);
    }
  }
}

/// The fold of a deferred block: StageColumnTiles' sums without the
/// staged block, over records [0, rows) x columns [0, cols), both
/// multiples of kVecLen. Each column still takes its additions in record
/// order (tiles run down the records of one column group), so `sums` and
/// `moved_sums` are bitwise StageColumnTiles'; the accumulators stay in
/// registers for the whole column group.
void FoldColumnTiles(const double* const* columns, size_t rows, size_t cols,
                     const double* shift, const double* mean, double* sums,
                     double* moved_sums) {
  using linalg::simd::Load;
  using linalg::simd::Store;
  for (size_t j0 = 0; j0 < cols; j0 += kVecLen) {
    const vreal shift_v = Load(shift + j0);
    const vreal mean_v = Load(mean + j0);
    vreal sums_v = Load(sums + j0);
    vreal moved_sums_v = Load(moved_sums + j0);
    for (size_t i0 = 0; i0 < rows; i0 += kVecLen) {
      vreal tile[kVecLen];
      for (size_t u = 0; u < kVecLen; ++u) {
        tile[u] = Load(columns[j0 + u] + i0);
      }
      linalg::simd::TransposeTile(tile);
      for (size_t r = 0; r < kVecLen; ++r) {
        sums_v += tile[r];
        moved_sums_v += (tile[r] - shift_v) - mean_v;
      }
    }
    Store(sums + j0, sums_v);
    Store(moved_sums + j0, moved_sums_v);
  }
}

/// The partial's staging of a deferred block: kGramChunkRows records of
/// `columns` into `staged` (row-major, m wide) as ((x − shift) − mean) −
/// delta — the value the inline path stores, (x − shift) − mean, then
/// centers by subtracting δ, in one pass. Whole tiles as in
/// StageColumnTiles, the column tail element by element.
void StageCenteredBlock(const double* const* columns, size_t m,
                        const double* shift, const double* mean,
                        const double* delta, double* staged) {
  using linalg::simd::Load;
  using linalg::simd::Store;
  const size_t tiled_cols = m - m % kVecLen;
  for (size_t i0 = 0; i0 < kGramChunkRows; i0 += kVecLen) {
    for (size_t j0 = 0; j0 < tiled_cols; j0 += kVecLen) {
      vreal tile[kVecLen];
      for (size_t u = 0; u < kVecLen; ++u) {
        tile[u] = Load(columns[j0 + u] + i0);
      }
      linalg::simd::TransposeTile(tile);
      const vreal shift_v = Load(shift + j0);
      const vreal mean_v = Load(mean + j0);
      const vreal delta_v = Load(delta + j0);
      double* out = staged + i0 * m + j0;
      for (size_t r = 0; r < kVecLen; ++r) {
        Store(out + r * m, ((tile[r] - shift_v) - mean_v) - delta_v);
      }
    }
  }
  for (size_t i = 0; i < kGramChunkRows; ++i) {
    double* out = staged + i * m;
    for (size_t j = tiled_cols; j < m; ++j) {
      out[j] = ((columns[j][i] - shift[j]) - mean[j]) - delta[j];
    }
  }
}

/// The Chan–Golub–LeVeque scatter update M_a += M_b + δδᵀ·weight over the
/// upper triangle, for inline and deferred blocks alike.
void MergeScatter(const double* partial, const double* delta, double weight,
                  size_t m, double* scatter) {
  for (size_t p = 0; p < m; ++p) {
    double* scatter_row = scatter + p * m;
    const double* partial_row = partial + p * m;
    for (size_t q = p; q < m; ++q) {
      scatter_row[q] += partial_row[q] + delta[p] * delta[q] * weight;
    }
  }
}

}  // namespace

/// Everything a wave of deferred partials touches besides the caller's
/// column data. Heap-allocated, so its address survives moves of the
/// accumulator.
struct StreamingMoments::DeferredBlocks {
  /// One window of folded blocks, per slot: the caller's column data
  /// pointers, the running mean the fold saw before the block, δ, the
  /// merge weight and the block's m x m partial.
  struct Window {
    size_t count = 0;
    std::vector<const double*> columns;  ///< slots x m
    std::vector<double> means;           ///< slots x m
    std::vector<double> deltas;          ///< slots x m
    std::vector<double> weights;         ///< slots
    std::unique_ptr<double[]> partials;  ///< slots x m x m
  };

  /// `window_blocks` is two blocks per resolved thread, and each thread
  /// runs one chunk of a window.
  DeferredBlocks(size_t m, size_t window_blocks, const linalg::Vector& shift)
      : m(m),
        num_chunks(window_blocks / 2),
        shift(shift),
        staging(new double[num_chunks * kGramChunkRows * m]) {
    for (Window& window : windows) {
      window.columns.resize(window_blocks * m);
      window.means.resize(window_blocks * m);
      window.deltas.resize(window_blocks * m);
      window.weights.resize(window_blocks);
      window.partials.reset(new double[window_blocks * m * m]);
    }
  }

  /// Runs the partials of chunk `chunk` of `window`'s slots (num_chunks
  /// even contiguous runs) through staging buffer `chunk`. Chunks write
  /// disjoint partials and buffers.
  void RunChunk(Window* window, size_t chunk,
                const ParallelOptions& options) const {
    double* staged = staging.get() + chunk * kGramChunkRows * m;
    const size_t slot_end = (chunk + 1) * window->count / num_chunks;
    for (size_t slot = chunk * window->count / num_chunks; slot < slot_end;
         ++slot) {
      StageCenteredBlock(window->columns.data() + slot * m, m, shift.data(),
                         window->means.data() + slot * m,
                         window->deltas.data() + slot * m, staged);
      linalg::kernels::GramAtAChunk(staged, kGramChunkRows, m,
                                    window->partials.get() + slot * m * m,
                                    options);
    }
  }

  /// Merges `window`'s partials into `scatter` in slot (block) order.
  void Merge(Window* window, double* scatter) const {
    for (size_t slot = 0; slot < window->count; ++slot) {
      MergeScatter(window->partials.get() + slot * m * m,
                   window->deltas.data() + slot * m, window->weights[slot], m,
                   scatter);
    }
    window->count = 0;
  }

  const size_t m;
  const size_t num_chunks;  ///< Staging buffers: one per worker chunk.
  const linalg::Vector shift;  ///< The accumulator's fixed shift_.
  std::unique_ptr<double[]> staging;  ///< num_chunks x kGramChunkRows x m
  Window windows[2];
  size_t filling = 0;      ///< windows[filling] takes the next folded block.
  bool in_flight = false;  ///< windows[1 − filling] is on the pool.
};

StreamingMoments::StreamingMoments(size_t num_attributes,
                                   const ParallelOptions& options)
    : num_attributes_(num_attributes),
      options_(options),
      sums_(num_attributes, 0.0),
      shift_(num_attributes, 0.0),
      mean_(num_attributes, 0.0),
      delta_(num_attributes, 0.0) {
  RR_CHECK_GT(num_attributes, 0u) << "StreamingMoments: zero attributes";
  // Deferring costs the fold a second read of every block, which pays
  // only when the partials run beside it; inside a pool task they would
  // run inline.
  const size_t threads =
      EffectiveThreadCount(options_, std::numeric_limits<size_t>::max());
  if (threads > 1 && !InsideParallelTask()) window_blocks_ = 2 * threads;
}

StreamingMoments::StreamingMoments(StreamingMoments&& other) noexcept =
    default;
StreamingMoments& StreamingMoments::operator=(
    StreamingMoments&& other) noexcept = default;

StreamingMoments::~StreamingMoments() { wave_.Wait(); }

void StreamingMoments::AccumulateSpans(
    size_t num_rows, const std::function<void(size_t, size_t)>& stage,
    const double* const* columns) {
  const size_t m = num_attributes_;
  if (staging_ == nullptr && num_rows > 0) {
    // Left uninitialised: staging writes every row before the flush
    // reads it, and GramAtAChunk overwrites the partial.
    staging_.reset(new double[kGramChunkRows * m]);
    partial_.reset(new double[m * m]);
    scatter_.assign(m * m, 0.0);
  }
  size_t consumed = 0;
  while (consumed < num_rows) {
    if (columns != nullptr && window_blocks_ > 1 && merged_rows_ > 0 &&
        staging_rows_ == 0 && num_rows - consumed >= kGramChunkRows) {
      DeferBlock(columns, consumed);
      consumed += kGramChunkRows;
      continue;
    }
    const size_t span = std::min(num_rows - consumed,
                                 kGramChunkRows - staging_rows_);
    stage(consumed, span);
    staging_rows_ += span;
    consumed += span;
    // Flushes happen exactly every kGramChunkRows records, so block
    // boundaries sit at global record indices that are multiples of the
    // constant — invariant to the caller's chunk sizes AND to which
    // entry point (row-major or columnar) staged each span.
    if (staging_rows_ == kGramChunkRows) FlushStagingBlock();
  }
  num_records_ += num_rows;
}

void StreamingMoments::Accumulate(const double* rows, size_t num_rows) {
  const size_t m = num_attributes_;
  AccumulateSpans(num_rows, [&](size_t consumed, size_t span) {
    const double* source = rows + consumed * m;
    StageMoved(
        0, span, 0, m, m,
        [source, m](size_t i, size_t j) { return source[i * m + j]; },
        shift_.data(), mean_.data(), sums_.data(), delta_.data(),
        staging_.get() + staging_rows_ * m);
  }, nullptr);
}

void StreamingMoments::Accumulate(const linalg::Matrix& chunk,
                                  size_t num_rows) {
  RR_CHECK_EQ(chunk.cols(), num_attributes_) << "chunk width mismatch";
  RR_CHECK_LE(num_rows, chunk.rows()) << "more rows than the chunk holds";
  Accumulate(chunk.data(), num_rows);
}

void StreamingMoments::AccumulateColumns(const double* const* columns,
                                         size_t num_rows) {
  // Register-transposed tiles where the span and the width allow, the
  // scalar loop for the ragged rest: the record tail of the tiled
  // columns (after their tiles, so each column stays in record order)
  // and the column tail. Contiguous staging writes either way, and the
  // same values at the same offsets as the row-major form, so the bits
  // match.
  const size_t m = num_attributes_;
  const size_t tiled_cols = m - m % kVecLen;
  AccumulateSpans(num_rows, [&](size_t consumed, size_t span) {
    const size_t tiled_rows = span - span % kVecLen;
    double* staged = staging_.get() + staging_rows_ * m;
    const auto load = [columns, consumed](size_t i, size_t j) {
      return columns[j][consumed + i];
    };
    StageColumnTiles(columns, consumed, tiled_rows, tiled_cols, m,
                     shift_.data(), mean_.data(), sums_.data(), delta_.data(),
                     staged);
    StageMoved(tiled_rows, span, 0, tiled_cols, m, load, shift_.data(),
               mean_.data(), sums_.data(), delta_.data(), staged);
    StageMoved(0, span, tiled_cols, m, m, load, shift_.data(), mean_.data(),
               sums_.data(), delta_.data(), staged);
  }, columns);
}

void StreamingMoments::DeferBlock(const double* const* columns,
                                  size_t first_row) {
  const size_t m = num_attributes_;
  if (deferred_ == nullptr) {
    deferred_ = std::make_unique<DeferredBlocks>(m, window_blocks_, shift_);
  }
  DeferredBlocks::Window& window = deferred_->windows[deferred_->filling];
  const size_t slot = window.count++;
  const double** block_columns = window.columns.data() + slot * m;
  for (size_t j = 0; j < m; ++j) block_columns[j] = columns[j] + first_row;
  double* block_mean = window.means.data() + slot * m;
  std::copy(mean_.begin(), mean_.end(), block_mean);
  // The fold: the staging loop's additions without the staged block.
  double* delta = window.deltas.data() + slot * m;
  std::fill(delta, delta + m, 0.0);
  const size_t tiled_cols = m - m % kVecLen;
  FoldColumnTiles(block_columns, kGramChunkRows, tiled_cols, shift_.data(),
                  block_mean, sums_.data(), delta);
  for (size_t i = 0; i < kGramChunkRows; ++i) {
    for (size_t j = tiled_cols; j < m; ++j) {
      const double x = block_columns[j][i];
      sums_[j] += x;
      delta[j] += (x - shift_[j]) - block_mean[j];
    }
  }
  // FlushStagingBlock's δ, weight and mean update for a later block.
  const double n_a = static_cast<double>(merged_rows_);
  const double n_b = static_cast<double>(kGramChunkRows);
  const double n = n_a + n_b;
  for (size_t j = 0; j < m; ++j) delta[j] /= n_b;
  window.weights[slot] = n_a * n_b / n;
  const double share = n_b / n;
  for (size_t j = 0; j < m; ++j) mean_[j] += delta[j] * share;
  merged_rows_ += kGramChunkRows;
  if (window.count < window_blocks_) return;

  // Window full: merge the previous one, then put this one on the pool
  // while the caller folds the next. The wave captures heap state only.
  MergeWindowInFlight();
  DeferredBlocks* deferred = deferred_.get();
  DeferredBlocks::Window* launched = &window;
  const ParallelOptions options = options_;
  wave_ = StartParallelFor(
      0, deferred->num_chunks,
      [deferred, launched, options](size_t begin, size_t end) {
        for (size_t chunk = begin; chunk < end; ++chunk) {
          deferred->RunChunk(launched, chunk, options);
        }
      },
      options_);
  deferred->in_flight = true;
  deferred->filling = 1 - deferred->filling;
}

void StreamingMoments::MergeWindowInFlight() {
  wave_.Wait();
  if (deferred_ == nullptr || !deferred_->in_flight) return;
  deferred_->Merge(&deferred_->windows[1 - deferred_->filling],
                   scatter_.data());
  deferred_->in_flight = false;
}

void StreamingMoments::MergeDeferred() {
  MergeWindowInFlight();
  if (deferred_ == nullptr) return;
  DeferredBlocks::Window* window = &deferred_->windows[deferred_->filling];
  if (window->count == 0) return;
  ParallelFor(
      0, deferred_->num_chunks,
      [&](size_t begin, size_t end) {
        for (size_t chunk = begin; chunk < end; ++chunk) {
          deferred_->RunChunk(window, chunk, options_);
        }
      },
      options_);
  deferred_->Merge(window, scatter_.data());
}

linalg::Vector StreamingMoments::means() const {
  RR_CHECK_GT(num_records_, 0u) << "StreamingMoments: no records accumulated";
  // The record-ordered column sums ÷ n: stats::ColumnMeans' exact order.
  linalg::Vector means = sums_;
  for (double& value : means) value /= static_cast<double>(num_records_);
  return means;
}

void StreamingMoments::FlushStagingBlock() {
  const size_t m = num_attributes_;
  const size_t rows = staging_rows_;
  double* block = staging_.get();
  // Staging summed the moved values; their mean is δ, this block's mean
  // minus the running one.
  for (double& value : delta_) value /= static_cast<double>(rows);
  // Center on the block's own mean, then take its scatter M_b.
  for (size_t i = 0; i < rows; ++i) {
    double* row = block + i * m;
    for (size_t j = 0; j < m; ++j) row[j] -= delta_[j];
  }
  linalg::kernels::GramAtAChunk(block, rows, m, partial_.get(), options_);

  // The Chan–Golub–LeVeque merge, in block order, so after every
  // deferred block before this one. For the first block n_a = 0, so the
  // weight is 0 and M becomes M_b: a single-block stream is exactly
  // "center on the column means, Gram".
  MergeDeferred();
  const double n_a = static_cast<double>(merged_rows_);
  const double n_b = static_cast<double>(rows);
  const double n = n_a + n_b;
  MergeScatter(partial_.get(), delta_.data(), n_a * n_b / n, m,
               scatter_.data());
  if (merged_rows_ == 0) {
    // The first block's mean becomes the fixed shift; mean_ keeps its
    // rounding residual (the mean of the centered block), so
    // shift_ + mean_ is the block mean to well below one ulp of it.
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

linalg::Matrix StreamingMoments::FinalizeCovariance(int ddof) {
  RR_CHECK(ddof == 0 || ddof == 1) << "ddof must be 0 or 1";
  RR_CHECK_GT(num_records_, static_cast<size_t>(ddof)) << "not enough records";
  if (staging_rows_ > 0) {
    FlushStagingBlock();
  } else {
    MergeDeferred();
  }

  const size_t m = num_attributes_;
  linalg::Matrix covariance(m, m);
  double* c = covariance.data();
  std::copy(scatter_.begin(), scatter_.end(), c);
  // Mirror, then divide — the order kernels::GramMatrix uses.
  for (size_t p = 0; p < m; ++p) {
    for (size_t q = p + 1; q < m; ++q) c[q * m + p] = c[p * m + q];
  }
  const double denom = static_cast<double>(num_records_ - ddof);
  for (size_t i = 0; i < covariance.size(); ++i) c[i] /= denom;
  return covariance;
}

}  // namespace stats
}  // namespace randrecon
