// High-performance dense kernels under the Matrix API.
//
// Every attack in the paper funnels into three primitives — dense matrix
// products, sample covariance (a Gram matrix of centered data), and
// symmetric eigendecomposition — so those primitives get a dedicated
// kernel layer: cache-blocked, register-tiled loops over raw row-major
// pointers (no bounds checks inside), parallelized over row ranges via
// common/parallel.h once the operand sizes justify waking the pool.
//
// Layout of the layer:
//   * Pointer kernels (MatMul, MatMulABt, GramAtA, GramAtAChunk,
//     TransposeInto): the actual blocked implementations. Small products
//     fall through to the plain loops the kernels replaced, so tiny
//     matrices never pay packing overhead; narrow Gram chunks (pass 1's
//     4096-record blocks) run their own register-tiled kernel.
//   * Matrix-level wrappers (MatMul, MatMulTransposed, ProjectOntoBasis,
//     GramMatrix): shape-checked conveniences used by Matrix::operator*,
//     stats::SampleCovariance and the reconstruction hot paths.
//
// Determinism: for a fixed build, results are bitwise identical for any
// thread count — work is partitioned by output rows/tiles and every
// output element's floating-point accumulation order is independent of
// the partition.

#ifndef RANDRECON_LINALG_KERNELS_H_
#define RANDRECON_LINALG_KERNELS_H_

#include <cstddef>

#include "common/parallel.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace linalg {
namespace kernels {

/// c(m x n) = a(m x k) · b(k x n). All row-major; c is overwritten.
void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n, const ParallelOptions& options = {});

/// c(m x n) = a(m x k) · b(n x k)ᵀ without materializing the transpose.
/// The projection step X Q̂ Q̂ᵀ of PCA-DR/SF and the Q Λ Qᵀ recomposition
/// are exactly this shape.
void MatMulABt(const double* a, const double* b, double* c, size_t m, size_t k,
               size_t n, const ParallelOptions& options = {});

/// Fixed record-chunk size of GramAtA's accumulation order. Chunk
/// boundaries always fall at record indices that are multiples of this
/// constant. It is also the block size of stats::StreamingMoments, which
/// centers each kGramChunkRows-record block on its own mean and merges
/// the block moments in record order; stats::SampleCovariance runs that
/// same accumulator, so streamed and in-memory covariances agree bitwise.
constexpr size_t kGramChunkRows = 4096;

/// Widest chunk GramAtAChunk reduces with its narrow register-tiled
/// kernel; wider chunks take the packed-GEMM driver. On 4096-record
/// chunks (AVX-512, 2 MiB L2) the narrow kernel is 1.6–9× faster than the
/// packed driver from 8 to 56 columns and on par at 64, where the chunk
/// fills L2 (micro_linalg's gram/4096xM rows time the narrow side).
constexpr size_t kNarrowGramWidth = 64;

/// partial(m x m) = a(rows x m)ᵀ · a(rows x m) for ONE record chunk;
/// `partial` is overwritten. The path depends on the width m alone:
///   * m <= kNarrowGramWidth: a register-tiled kernel accumulates row
///     outer products into the upper triangle. Every element p <= q is
///     Σᵢ a(i,p)·a(i,q) added in record order from +0.0, the same
///     sequential multiply-add chain as the plain column-pair loop, and
///     the strict lower triangle is zero — so the whole partial is
///     bitwise equal to that loop's.
///   * wider: the packed-GEMM driver computes the upper block-triangle of
///     tiles, accumulating the record dimension in fixed 256-record
///     depth blocks. The strict lower triangle holds diagonal-straddling
///     tile spill — read p <= q only, or mirror it yourself.
/// On both paths the accumulation order of every upper-triangle element
/// is a pure function of (rows, m) — independent of the thread count —
/// so merging chunk partials in chunk order is bitwise deterministic.
void GramAtAChunk(const double* a, size_t rows, size_t m, double* partial,
                  const ParallelOptions& options = {});

/// c(m x m) = a(n x m)ᵀ · a(n x m): the Gram matrix of the columns of `a`
/// (syrk-style). The result is exactly symmetric by construction.
/// Internally the record dimension is processed in fixed chunks of
/// kGramChunkRows rows (GramAtAChunk partials folded into c in chunk
/// order), which parallelizes the tall-skinny case (huge n, small m) and
/// pins one accumulation order for in-memory and streaming callers alike.
void GramAtA(const double* a, size_t n, size_t m, double* c,
             const ParallelOptions& options = {});

/// out(cols x rows) = in(rows x cols)ᵀ, cache-blocked.
void TransposeInto(const double* in, size_t rows, size_t cols, double* out);

/// Shape-checked Matrix products routed through the pointer kernels.
Matrix MatMul(const Matrix& a, const Matrix& b,
              const ParallelOptions& options = {});

/// a · bᵀ (a.cols() must equal b.cols()).
Matrix MatMulTransposed(const Matrix& a, const Matrix& b,
                        const ParallelOptions& options = {});

/// x · basis · basisᵀ — the rank-p projection of the rows of `x` onto the
/// column span of `basis` (x: n x m, basis: m x p, result: n x m).
Matrix ProjectOntoBasis(const Matrix& x, const Matrix& basis,
                        const ParallelOptions& options = {});

/// centeredᵀ · centered / denom — the sample covariance of pre-centered
/// data in one blocked pass (denom = n or n-1 depending on ddof).
Matrix GramMatrix(const Matrix& centered, double denom,
                  const ParallelOptions& options = {});

}  // namespace kernels
}  // namespace linalg
}  // namespace randrecon

#endif  // RANDRECON_LINALG_KERNELS_H_
