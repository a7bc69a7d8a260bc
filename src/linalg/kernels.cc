#include "linalg/kernels.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"
#include "linalg/simd.h"

namespace randrecon {
namespace linalg {
namespace kernels {
namespace {

// ---------------------------------------------------------------------------
// Micro-kernel configuration.
//
// The inner loop is written with GCC/Clang vector extensions
// (linalg/simd.h) so one source compiles to whatever SIMD the build
// enables. The register tile is kMr rows x (2 vectors) columns; sizes are
// chosen so the accumulator tile plus a couple of working vectors fits
// the architectural register file (32 zmm / 16 ymm / 16 xmm).
// ---------------------------------------------------------------------------
using simd::kVecLen;
using simd::vreal;

#if RR_SIMD_BYTES == 64
constexpr size_t kMr = 6;  // 12 zmm accumulators.
#else
constexpr size_t kMr = 4;  // 8 ymm / xmm accumulators.
#endif

constexpr size_t kNr = 2 * kVecLen;

// Cache blocking: a kKc x kNr B panel slice stays in L1 across the row
// sweep, a kMc x kKc packed A block stays in L2, and a kKc x kNc packed B
// block stays in L2/L3.
constexpr size_t kKc = 256;
constexpr size_t kMc = 96;  // Divisible by every kMr above.
constexpr size_t kNc = 2048;

// Below this many multiply-adds the packed path costs more than it saves
// (measured cutover on AVX-512 is near 110^3); run the plain loops.
constexpr size_t kBlockedFlopCutoff = size_t{1} << 20;
// Engage the thread pool only when there is enough work to amortize it.
constexpr size_t kParallelFlopCutoff = size_t{8} << 20;

// Output rows per pass of the narrow Gram kernel: kGramMr x 2 vector
// accumulators plus the two column vectors and a broadcast fit the
// register file (16 of 32 zmm; 12 of 16 ymm/xmm).
#if RR_SIMD_BYTES == 64
constexpr size_t kGramMr = 8;
#else
constexpr size_t kGramMr = 6;
#endif

/// Packs rows [row0, row0+mc) x depth [k0, k0+kc) of an m x k operand into
/// kMr-row panels: panel p holds rows [p*kMr, (p+1)*kMr), laid out
/// depth-major (out[kk*kMr + r]), zero-padded to a full panel. When
/// `transposed`, the logical operand is aᵀ and element (row, kk) is read
/// from a[kk*lda + row] instead — this is how GramAtA consumes the data
/// matrix without materializing its transpose. The flag is a template
/// parameter so the hot non-transposed copy loop vectorizes cleanly.
template <bool transposed>
void PackA(const double* a, size_t lda, size_t row0, size_t k0, size_t mc,
           size_t kc, double* out) {
  for (size_t p = 0; p < mc; p += kMr) {
    const size_t pr = std::min(kMr, mc - p);
    for (size_t kk = 0; kk < kc; ++kk) {
      for (size_t r = 0; r < pr; ++r) {
        out[kk * kMr + r] = transposed
                                ? a[(k0 + kk) * lda + (row0 + p + r)]
                                : a[(row0 + p + r) * lda + (k0 + kk)];
      }
      for (size_t r = pr; r < kMr; ++r) out[kk * kMr + r] = 0.0;
    }
    out += kKc * kMr;
  }
}

/// Packs depth [k0, k0+kc) x columns [col0, col0+nc) of a k x n operand
/// into kNr-column panels laid out depth-major (out[kk*kNr + u]),
/// zero-padded. When `transposed`, the logical operand is bᵀ with b stored
/// n x k, so element (kk, col) is read from b[col*ldb + kk] — this is how
/// MatMulABt consumes the second factor's rows directly.
template <bool transposed>
void PackB(const double* b, size_t ldb, size_t k0, size_t col0, size_t kc,
           size_t nc, double* out) {
  for (size_t q = 0; q < nc; q += kNr) {
    const size_t qn = std::min(kNr, nc - q);
    for (size_t kk = 0; kk < kc; ++kk) {
      for (size_t u = 0; u < qn; ++u) {
        out[kk * kNr + u] = transposed ? b[(col0 + q + u) * ldb + (k0 + kk)]
                                       : b[(k0 + kk) * ldb + (col0 + q + u)];
      }
      for (size_t u = qn; u < kNr; ++u) out[kk * kNr + u] = 0.0;
    }
    out += kKc * kNr;
  }
}

/// The register-tiled core: accumulates a kMr x kNr tile of C from packed
/// panels, then adds it into C (respecting the pr x qn valid region of
/// edge tiles).
inline void MicroKernel(const double* __restrict ap, const double* __restrict bp,
                        size_t kc, double* __restrict c, size_t ldc, size_t pr,
                        size_t qn) {
  vreal acc[kMr][2];
  for (size_t r = 0; r < kMr; ++r) {
    acc[r][0] = vreal{};
    acc[r][1] = vreal{};
  }
  for (size_t kk = 0; kk < kc; ++kk) {
    vreal b0, b1;
    __builtin_memcpy(&b0, bp + kk * kNr, sizeof(vreal));
    __builtin_memcpy(&b1, bp + kk * kNr + kVecLen, sizeof(vreal));
    for (size_t r = 0; r < kMr; ++r) {
      const double av = ap[kk * kMr + r];
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  if (pr == kMr && qn == kNr) {
    for (size_t r = 0; r < kMr; ++r) {
      for (size_t h = 0; h < 2; ++h) {
        for (size_t u = 0; u < kVecLen; ++u) {
          c[r * ldc + h * kVecLen + u] += acc[r][h][u];
        }
      }
    }
  } else {
    for (size_t r = 0; r < pr; ++r) {
      for (size_t u = 0; u < qn; ++u) {
        c[r * ldc + u] += acc[r][u / kVecLen][u % kVecLen];
      }
    }
  }
}

/// Blocked GEMM driver: C(m x n) = op_a(a) · op_b(b) with C pre-zeroed by
/// the caller. The k0 loop is outermost and sequential, so each C element
/// accumulates its k-blocks in a fixed order; parallelism splits the i0
/// row-blocks, whose C tiles are disjoint — together this makes the
/// result independent of the thread count.
/// With `upper_only`, micro-tiles lying strictly below the diagonal of C
/// are skipped (the caller mirrors them from the upper triangle): a syrk
/// for symmetric outputs at half the flops. The tile set is a pure
/// function of the geometry, so determinism is unaffected.
template <bool a_trans, bool b_trans>
void GemmBlocked(const double* a, size_t lda, const double* b, size_t ldb,
                 double* c, size_t m, size_t k, size_t n,
                 const ParallelOptions& options, bool upper_only = false) {
  // Pack buffers are left uninitialised: PackA/PackB write every entry
  // (zero padding included) that MicroKernel reads for the current kc.
  const size_t nc_max = std::min(kNc, (n + kNr - 1) / kNr * kNr);
  std::unique_ptr<double[]> bpack(new double[nc_max * kKc]);
  const size_t num_iblocks = (m + kMc - 1) / kMc;

  ParallelOptions block_options = options;
  if (m * k * n < kParallelFlopCutoff) block_options.num_threads = 1;

  // One A-pack buffer per task, allocated once for every (k0, j0) block;
  // task t owns the contiguous i-blocks [t·B/T, (t+1)·B/T).
  const size_t num_tasks = EffectiveThreadCount(block_options, num_iblocks);
  const size_t apack_size = (std::min(kMc, m) + kMr - 1) / kMr * kMr * kKc;
  std::unique_ptr<double[]> apacks(new double[num_tasks * apack_size]);

  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    const size_t kc = std::min(kKc, k - k0);
    for (size_t j0 = 0; j0 < n; j0 += kNc) {
      const size_t nc = std::min(kNc, n - j0);
      PackB<b_trans>(b, ldb, k0, j0, kc, nc, bpack.get());
      ParallelFor(
          0, num_tasks,
          [&](size_t task_begin, size_t task_end) {
            for (size_t task = task_begin; task < task_end; ++task) {
              double* apack = apacks.get() + task * apack_size;
              const size_t ib_end = (task + 1) * num_iblocks / num_tasks;
              for (size_t ib = task * num_iblocks / num_tasks; ib < ib_end;
                   ++ib) {
                const size_t i0 = ib * kMc;
                const size_t mc = std::min(kMc, m - i0);
                PackA<a_trans>(a, lda, i0, k0, mc, kc, apack);
                for (size_t p = 0; p < mc; p += kMr) {
                  const size_t pr = std::min(kMr, mc - p);
                  const double* ap = apack + (p / kMr) * kKc * kMr;
                  for (size_t q = 0; q < nc; q += kNr) {
                    const size_t qn = std::min(kNr, nc - q);
                    // Tile columns [j0+q, j0+q+qn) all below row i0+p →
                    // the whole tile is strictly lower-triangle; skip it.
                    if (upper_only && j0 + q + qn <= i0 + p) continue;
                    const double* bp = bpack.get() + (q / kNr) * kKc * kNr;
                    MicroKernel(ap, bp, kc, c + (i0 + p) * n + j0 + q, n, pr,
                                qn);
                  }
                }
              }
            }
          },
          block_options);
    }
  }
}

/// Stores an R x width tile of accumulated Gram entries, tile(r, u), at
/// partial(p0 + r, q0 + u), keeping only the upper triangle (q >= p) so
/// the zeroed strict lower triangle stays zero.
template <size_t R, typename Tile>
void StoreGramTile(const Tile& tile, size_t width, size_t m, size_t p0,
                   size_t q0, double* partial) {
  for (size_t r = 0; r < R; ++r) {
    for (size_t u = 0; u < width; ++u) {
      if (q0 + u >= p0 + r) partial[(p0 + r) * m + q0 + u] = tile(r, u);
    }
  }
}

/// Rows [p0, p0 + R) of the narrow Gram kernel: partial(p, q) for q >= p
/// over all `rows` records of the row-major rows x m chunk `a`. Each pass
/// holds an R x (2 vectors) accumulator tile starting at column q0 = p0
/// and sweeps the records in order, so every element is the same
/// sequential multiply-add chain from +0.0 as the plain column-pair loop.
/// Columns that do not fill two vectors take a one-vector pass, and
/// those that do not fill one vector a scalar pass, in the same order.
template <size_t R>
void NarrowGramRows(const double* a, size_t rows, size_t m, size_t p0,
                    double* partial) {
  size_t q0 = p0;
  for (; q0 + kNr <= m; q0 += kNr) {
    vreal acc[R][2] = {};
    for (size_t i = 0; i < rows; ++i) {
      const double* row = a + i * m;
      vreal b0, b1;
      __builtin_memcpy(&b0, row + q0, sizeof(vreal));
      __builtin_memcpy(&b1, row + q0 + kVecLen, sizeof(vreal));
      for (size_t r = 0; r < R; ++r) {
        const double av = row[p0 + r];
        acc[r][0] += av * b0;
        acc[r][1] += av * b1;
      }
    }
    StoreGramTile<R>(
        [&](size_t r, size_t u) { return acc[r][u / kVecLen][u % kVecLen]; },
        kNr, m, p0, q0, partial);
  }
  if (q0 + kVecLen <= m) {
    vreal acc[R] = {};
    for (size_t i = 0; i < rows; ++i) {
      const double* row = a + i * m;
      vreal b0;
      __builtin_memcpy(&b0, row + q0, sizeof(vreal));
      for (size_t r = 0; r < R; ++r) acc[r] += row[p0 + r] * b0;
    }
    StoreGramTile<R>([&](size_t r, size_t u) { return acc[r][u]; }, kVecLen,
                     m, p0, q0, partial);
    q0 += kVecLen;
  }
  if (q0 < m) {
    const size_t width = m - q0;  // < kVecLen
    double acc[R][kVecLen] = {};
    for (size_t i = 0; i < rows; ++i) {
      const double* row = a + i * m;
      for (size_t r = 0; r < R; ++r) {
        const double av = row[p0 + r];
        for (size_t u = 0; u < width; ++u) acc[r][u] += av * row[q0 + u];
      }
    }
    StoreGramTile<R>([&](size_t r, size_t u) { return acc[r][u]; }, width, m,
                     p0, q0, partial);
  }
}

/// Runs NarrowGramRows<R> for the final `pr` (< kGramMr) output rows
/// starting at p0, picking the tile height at compile time.
template <size_t R>
void NarrowGramLastRows(const double* a, size_t rows, size_t m, size_t p0,
                        size_t pr, double* partial) {
  if constexpr (R > 0) {
    if (pr == R) {
      NarrowGramRows<R>(a, rows, m, p0, partial);
    } else {
      NarrowGramLastRows<R - 1>(a, rows, m, p0, pr, partial);
    }
  }
}

}  // namespace

void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n, const ParallelOptions& options) {
  if (m == 0 || n == 0) return;
  std::memset(c, 0, m * n * sizeof(double));
  if (k == 0) return;
  if (m * k * n < kBlockedFlopCutoff) {
    // The plain i-k-j loop the kernel layer replaced; still the fastest
    // shape for small operands. No zero-skip (the old loop had one): a
    // 0.0 factor must multiply — and so propagate — a NaN/Inf partner,
    // exactly as the blocked path does, so semantics don't flip with
    // operand size.
    for (size_t i = 0; i < m; ++i) {
      const double* a_row = a + i * k;
      double* c_row = c + i * n;
      for (size_t kk = 0; kk < k; ++kk) {
        const double a_ik = a_row[kk];
        const double* b_row = b + kk * n;
        for (size_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
      }
    }
    return;
  }
  GemmBlocked<false, false>(a, k, b, n, c, m, k, n, options);
}

void MatMulABt(const double* a, const double* b, double* c, size_t m, size_t k,
               size_t n, const ParallelOptions& options) {
  if (m == 0 || n == 0) return;
  std::memset(c, 0, m * n * sizeof(double));
  if (k == 0) return;
  if (m * k * n < kBlockedFlopCutoff) {
    // Row-by-row dot products: both operands are walked contiguously.
    for (size_t i = 0; i < m; ++i) {
      const double* a_row = a + i * k;
      double* c_row = c + i * n;
      for (size_t j = 0; j < n; ++j) {
        const double* b_row = b + j * k;
        double sum = 0.0;
        for (size_t kk = 0; kk < k; ++kk) sum += a_row[kk] * b_row[kk];
        c_row[j] = sum;
      }
    }
    return;
  }
  GemmBlocked<false, true>(a, k, b, k, c, m, k, n, options);
}

void GramAtAChunk(const double* a, size_t rows, size_t m, double* partial,
                  const ParallelOptions& options) {
  if (m == 0) return;
  std::memset(partial, 0, m * m * sizeof(double));
  if (rows == 0) return;
  if (m <= kNarrowGramWidth) {
    // Register-tiled row outer products, kGramMr output rows per pass.
    // No zero-skip: a 0.0 factor must still multiply (and so propagate)
    // a NaN/Inf partner.
    size_t p0 = 0;
    for (; p0 + kGramMr <= m; p0 += kGramMr) {
      NarrowGramRows<kGramMr>(a, rows, m, p0, partial);
    }
    NarrowGramLastRows<kGramMr - 1>(a, rows, m, p0, m - p0, partial);
    return;
  }
  // partial = aᵀ · a through the blocked driver, syrk-style: only the
  // upper block-triangle of tiles is computed (the first operand is the
  // chunk read transposed, lda = m; the second is the chunk as-is) at
  // half the flops of a full product. GemmBlocked partitions disjoint
  // output tiles only, so the accumulation order per element does not
  // depend on the thread count.
  GemmBlocked<true, false>(a, m, a, m, partial, m, rows, m, options,
                           /*upper_only=*/true);
}

void GramAtA(const double* a, size_t n, size_t m, double* c,
             const ParallelOptions& options) {
  if (m == 0) return;
  const size_t num_chunks = (n + kGramChunkRows - 1) / kGramChunkRows;
  if (num_chunks <= 1) {
    // One chunk: write the partial straight into c. Bitwise identical to
    // the buffered merge below (and to a streaming accumulator's
    // "partial added into a zeroed scatter"): the accumulators start at
    // +0.0 and never produce -0.0, so 0.0 + x == x for every element.
    GramAtAChunk(a, n, m, c, options);
  } else {
    std::memset(c, 0, m * m * sizeof(double));
    // Record-dimension (k) parallelism: chunk partials are computed wave
    // by wave — across chunks when m fits a single output-row block of
    // the GEMM driver (the tall-skinny case that used to run
    // single-threaded), within each chunk otherwise — and folded into c
    // strictly in chunk order. Each element's floating-point order is
    // therefore a pure function of n alone: bitwise identical for any
    // thread count and for any out-of-core caller flushing
    // kGramChunkRows records at a time.
    const size_t threads = EffectiveThreadCount(options, num_chunks);
    const size_t wave = m > kMc ? 1 : std::min(num_chunks, threads);
    std::vector<double> partials(wave * m * m);
    ParallelOptions chunk_options = options;
    if (wave > 1) chunk_options.num_threads = 1;
    for (size_t wave_begin = 0; wave_begin < num_chunks; wave_begin += wave) {
      const size_t wave_end = std::min(wave_begin + wave, num_chunks);
      ParallelFor(
          wave_begin, wave_end,
          [&](size_t chunk_begin, size_t chunk_end) {
            for (size_t chunk = chunk_begin; chunk < chunk_end; ++chunk) {
              const size_t row0 = chunk * kGramChunkRows;
              const size_t rows = std::min(kGramChunkRows, n - row0);
              GramAtAChunk(a + row0 * m, rows, m,
                           partials.data() + (chunk - wave_begin) * m * m,
                           chunk_options);
            }
          },
          options);
      for (size_t chunk = wave_begin; chunk < wave_end; ++chunk) {
        const double* partial = partials.data() + (chunk - wave_begin) * m * m;
        for (size_t p = 0; p < m; ++p) {
          double* c_row = c + p * m;
          const double* partial_row = partial + p * m;
          for (size_t q = p; q < m; ++q) c_row[q] += partial_row[q];
        }
      }
    }
  }
  for (size_t p = 0; p < m; ++p) {
    for (size_t q = p + 1; q < m; ++q) c[q * m + p] = c[p * m + q];
  }
}

void TransposeInto(const double* in, size_t rows, size_t cols, double* out) {
  constexpr size_t kTile = 32;  // 32x32 doubles = 8 KiB working set.
  if (rows * cols < kTile * kTile) {
    for (size_t i = 0; i < rows; ++i) {
      const double* src = in + i * cols;
      for (size_t j = 0; j < cols; ++j) out[j * rows + i] = src[j];
    }
    return;
  }
  for (size_t i0 = 0; i0 < rows; i0 += kTile) {
    const size_t i1 = std::min(i0 + kTile, rows);
    for (size_t j0 = 0; j0 < cols; j0 += kTile) {
      const size_t j1 = std::min(j0 + kTile, cols);
      for (size_t i = i0; i < i1; ++i) {
        const double* src = in + i * cols;
        for (size_t j = j0; j < j1; ++j) out[j * rows + i] = src[j];
      }
    }
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b, const ParallelOptions& options) {
  RR_CHECK_EQ(a.cols(), b.rows()) << "matmul shape mismatch";
  Matrix out(a.rows(), b.cols());
  MatMul(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(),
         options);
  return out;
}

Matrix MatMulTransposed(const Matrix& a, const Matrix& b,
                        const ParallelOptions& options) {
  RR_CHECK_EQ(a.cols(), b.cols()) << "matmul-ABt shape mismatch";
  Matrix out(a.rows(), b.rows());
  MatMulABt(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows(),
            options);
  return out;
}

Matrix ProjectOntoBasis(const Matrix& x, const Matrix& basis,
                        const ParallelOptions& options) {
  RR_CHECK_EQ(x.cols(), basis.rows()) << "projection shape mismatch";
  const Matrix scores = MatMul(x, basis, options);
  return MatMulTransposed(scores, basis, options);
}

Matrix GramMatrix(const Matrix& centered, double denom,
                  const ParallelOptions& options) {
  RR_CHECK_GT(denom, 0.0);
  Matrix out(centered.cols(), centered.cols());
  GramAtA(centered.data(), centered.rows(), centered.cols(), out.data(),
          options);
  double* c = out.data();
  for (size_t i = 0; i < out.size(); ++i) c[i] /= denom;
  return out;
}

}  // namespace kernels
}  // namespace linalg
}  // namespace randrecon
