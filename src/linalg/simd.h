// The SIMD vocabulary shared by the library's hand-vectorized loops: one
// GCC vector-extension type as wide as the build's double vectors, so a
// single source compiles to AVX-512 (8 lanes), AVX/AVX2 (4) and the
// SSE2 baseline (2). The kernel layer's register tiles
// (linalg/kernels.cc) and pass 1's block staging
// (stats/streaming_moments.cc) are written against it. Internal header:
// nothing here is part of the public API.

#ifndef RANDRECON_LINALG_SIMD_H_
#define RANDRECON_LINALG_SIMD_H_

#include <cstddef>
#include <utility>

#if defined(__AVX512F__)
#define RR_SIMD_BYTES 64
#elif defined(__AVX__)
#define RR_SIMD_BYTES 32
#else
#define RR_SIMD_BYTES 16
#endif

namespace randrecon {
namespace linalg {
namespace simd {

typedef double vreal __attribute__((vector_size(RR_SIMD_BYTES)));
constexpr size_t kVecLen = RR_SIMD_BYTES / sizeof(double);

/// Unaligned vector load / store.
inline vreal Load(const double* from) {
  vreal value;
  __builtin_memcpy(&value, from, sizeof(vreal));
  return value;
}

inline void Store(double* to, vreal value) {
  __builtin_memcpy(to, &value, sizeof(vreal));
}

namespace internal {

/// One butterfly of the tile transpose: lanes whose index has bit G set
/// swap between rows x and y (x keeps its G-clear lanes and takes y's,
/// y the reverse), one two-source shuffle per output row.
template <size_t G, size_t... E>
inline void SwapLaneBlocks(vreal* x, vreal* y, std::index_sequence<E...>) {
  const vreal low = __builtin_shufflevector(
      *x, *y, ((E & G) ? kVecLen + E - G : E)...);
  const vreal high =
      __builtin_shufflevector(*x, *y, ((E & G) ? kVecLen + E : E + G)...);
  *x = low;
  *y = high;
}

template <size_t G>
inline void TransposeRound(vreal* rows) {
  for (size_t r = 0; r < kVecLen; ++r) {
    if ((r & G) == 0) {
      SwapLaneBlocks<G>(&rows[r], &rows[r + G],
                        std::make_index_sequence<kVecLen>());
    }
  }
  if constexpr (2 * G < kVecLen) TransposeRound<2 * G>(rows);
}

}  // namespace internal

/// Transposes the kVecLen x kVecLen tile held in `rows` in place:
/// afterwards rows[r][u] holds what rows[u][r] held. log2(kVecLen)
/// rounds of shuffles move values without arithmetic, so every bit is
/// kept.
inline void TransposeTile(vreal* rows) { internal::TransposeRound<1>(rows); }

}  // namespace simd
}  // namespace linalg
}  // namespace randrecon

#endif  // RANDRECON_LINALG_SIMD_H_
