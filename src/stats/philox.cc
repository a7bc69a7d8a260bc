// Philox4x32-10 counter substrate. Three engines produce the SAME bits:
// a portable scalar path, an AVX2+FMA path and an AVX-512 path, selected
// at runtime (__builtin_cpu_supports), so one binary generates one
// stream on every x86-64 machine. The SIMD/scalar bitwise equality rests
// on two rules, enforced throughout this file:
//
//   1. every floating-point operation is correctly rounded and appears
//      in the same order in every engine (mul/add/div/sqrt, plus
//      explicit fused multiply-adds: std::fma scalar, vfmadd vector);
//   2. the build must not re-associate or contract expressions — the
//      CMakeLists compiles this file with -ffp-contract=off.
//
// Canonical word order: blocks are interleaved in groups of 16 so the
// SIMD engines store their lanes directly. Word index w maps to
//   group g = w / 64, slot j = (w % 64) / 16, lane b = (w % 64) % 16,
//   value  = output word j of block 16 g + b.
// The scalar engine walks the same mapping, so the order is part of the
// stream contract, not an engine detail.

#include "stats/philox.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define RANDRECON_PHILOX_X86 1
#endif

namespace randrecon {
namespace stats {
namespace {

// Philox4x32 multipliers and Weyl key increments (Random123).
constexpr uint32_t kMul0 = 0xD2511F53u;
constexpr uint32_t kMul1 = 0xCD9E8D57u;
constexpr uint32_t kWeyl0 = 0x9E3779B9u;
constexpr uint32_t kWeyl1 = 0xBB67AE85u;
constexpr int kRounds = 10;

constexpr uint64_t kLow32 = 0xFFFFFFFFull;

inline uint64_t SplitMix64(uint64_t z) {
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

inline void Round(uint32_t& c0, uint32_t& c1, uint32_t& c2, uint32_t& c3,
                  uint32_t k0, uint32_t k1) {
  const uint64_t p0 = uint64_t{kMul0} * c0;
  const uint64_t p1 = uint64_t{kMul1} * c2;
  const uint32_t n0 = static_cast<uint32_t>(p1 >> 32) ^ c1 ^ k0;
  const uint32_t n2 = static_cast<uint32_t>(p0 >> 32) ^ c3 ^ k1;
  c1 = static_cast<uint32_t>(p1);
  c3 = static_cast<uint32_t>(p0);
  c0 = n0;
  c2 = n2;
}

inline void Block(uint64_t block_index, uint64_t stream, uint64_t seed,
                  uint32_t out[4]) {
  uint32_t c0 = static_cast<uint32_t>(block_index);
  uint32_t c1 = static_cast<uint32_t>(block_index >> 32);
  uint32_t c2 = static_cast<uint32_t>(stream);
  uint32_t c3 = static_cast<uint32_t>(stream >> 32);
  uint32_t k0 = static_cast<uint32_t>(seed);
  uint32_t k1 = static_cast<uint32_t>(seed >> 32);
  Round(c0, c1, c2, c3, k0, k1);
  for (int r = 1; r < kRounds; ++r) {
    Round(c0, c1, c2, c3, k0 + static_cast<uint32_t>(r) * kWeyl0,
          k1 + static_cast<uint32_t>(r) * kWeyl1);
  }
  out[0] = c0;
  out[1] = c1;
  out[2] = c2;
  out[3] = c3;
}

// ---------------------------------------------------------------------------
// Raw engines: fill `group_count` canonical 64-word groups starting at
// group `group_begin` (lane-major layout described in the file header).
// ---------------------------------------------------------------------------

void RawGroupsScalar(uint64_t seed, uint64_t stream, uint64_t group_begin,
                     uint64_t group_count, uint32_t* out) {
  for (uint64_t g = 0; g < group_count; ++g) {
    const uint64_t base = (group_begin + g) * Philox::kBlocksPerGroup;
    uint32_t* o = out + g * Philox::kWordsPerGroup;
    for (size_t b = 0; b < Philox::kBlocksPerGroup; ++b) {
      uint32_t w[4];
      Block(base + b, stream, seed, w);
      o[b] = w[0];
      o[16 + b] = w[1];
      o[32 + b] = w[2];
      o[48 + b] = w[3];
    }
  }
}

// ---------------------------------------------------------------------------
// Box–Muller constants. The polynomials are Taylor series with exact
// double coefficients evaluated in a fixed Horner order; accuracy is
// ~1e-12 absolute against libm, which the tests pin.
// ---------------------------------------------------------------------------

constexpr double kInv32 = 0x1.0p-32;
constexpr double kSqrtTwo = 1.4142135623730951;  // 0x1.6a09e667f3bcdp+0
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kPiOverTwo = 1.5707963267948966;
constexpr double kPiOverFour = kPiOverTwo * 0.5;          // exact scaling
constexpr double kAngleScale = kPiOverTwo * 0x1.0p-30;    // exact scaling
constexpr double kTwo52 = 4503599627370496.0;             // 2^52
constexpr uint64_t kFracMask = 0xFFFFFFFFFFFFFull;
constexpr uint64_t kOneBits = 0x3FF0000000000000ull;
constexpr uint64_t kCvtMagic = 0x4330000000000000ull;     // 2^52 as bits

// atanh series for ln(m), m in [1/sqrt2, sqrt2]: 2s + s(t(L3 + t(...))).
// Truncated after the s^11 term: |s| <= sqrt2-1 / sqrt2+1 ~ 0.1716, so
// the dropped s^13 term is < 2e-11 absolute — well inside the 1e-10
// accuracy contract the tests pin.
constexpr double kL3 = 2.0 / 3.0;
constexpr double kL5 = 2.0 / 5.0;
constexpr double kL7 = 2.0 / 7.0;
constexpr double kL9 = 2.0 / 9.0;
constexpr double kL11 = 2.0 / 11.0;
// sin(a), cos(a) Taylor on |a| <= pi/4; the dropped a^13 sin term is
// < 7e-12, the retained a^12 cos term keeps cos under 1e-10.
constexpr double kS3 = -1.0 / 6.0;
constexpr double kS5 = 1.0 / 120.0;
constexpr double kS7 = -1.0 / 5040.0;
constexpr double kS9 = 1.0 / 362880.0;
constexpr double kS11 = -1.0 / 39916800.0;
constexpr double kC2 = -0.5;
constexpr double kC4 = 1.0 / 24.0;
constexpr double kC6 = -1.0 / 720.0;
constexpr double kC8 = 1.0 / 40320.0;
constexpr double kC10 = -1.0 / 3628800.0;
constexpr double kC12 = 1.0 / 479001600.0;

inline uint64_t BitsOf(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

inline double DoubleOf(uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

/// ln(u) for u in (0, 1]. Decomposes u = 2^e * m with m in
/// [1/sqrt2, sqrt2], then ln m = 2 atanh(s), s = (m-1)/(m+1).
inline double Log01Scalar(double u) {
  const uint64_t bits = BitsOf(u);
  double m = DoubleOf((bits & kFracMask) | kOneBits);
  const int64_t raw_exp = static_cast<int64_t>(bits >> 52) - 1023;
  const bool shift = m > kSqrtTwo;
  m = shift ? m * 0.5 : m;
  const double e = static_cast<double>(raw_exp + (shift ? 1 : 0));
  const double s = (m - 1.0) / (m + 1.0);
  const double t = s * s;
  double p = kL11;
  p = std::fma(p, t, kL9);
  p = std::fma(p, t, kL7);
  p = std::fma(p, t, kL5);
  p = std::fma(p, t, kL3);
  const double lnm = std::fma(s, 2.0, s * (t * p));
  return std::fma(e, kLn2Hi, std::fma(e, kLn2Lo, lnm));
}

/// One Box–Muller pair from raw words: w0 -> radius uniform
/// u1 = (w0 + 1) * 2^-32 in (0, 1]; w1 -> 2 quadrant bits + 30-bit angle
/// fraction, theta = (pi/2)(q + f * 2^-30 - 1/2).
inline void BoxMullerElement(uint32_t w0, uint32_t w1, double* z0,
                             double* z1) {
  const double u1 = std::fma(static_cast<double>(w0), kInv32, kInv32);
  const double lnu = Log01Scalar(u1);
  const double r = std::sqrt(-2.0 * lnu);
  const double f30 = static_cast<double>(w1 & 0x3FFFFFFFu);
  const double a = std::fma(f30, kAngleScale, -kPiOverFour);
  const double t2 = a * a;
  double sp = kS11;
  sp = std::fma(sp, t2, kS9);
  sp = std::fma(sp, t2, kS7);
  sp = std::fma(sp, t2, kS5);
  sp = std::fma(sp, t2, kS3);
  const double sinp = std::fma(a, t2 * sp, a);
  double cp = kC12;
  cp = std::fma(cp, t2, kC10);
  cp = std::fma(cp, t2, kC8);
  cp = std::fma(cp, t2, kC6);
  cp = std::fma(cp, t2, kC4);
  cp = std::fma(cp, t2, kC2);
  const double cosp = std::fma(t2, cp, 1.0);
  const bool odd = (w1 & 0x40000000u) != 0;  // quadrant bit 0
  const bool ge2 = (w1 & 0x80000000u) != 0;  // quadrant bit 1
  double sin_t = odd ? cosp : sinp;
  double cos_t = odd ? sinp : cosp;
  sin_t = ge2 ? -sin_t : sin_t;
  cos_t = (odd != ge2) ? -cos_t : cos_t;
  *z0 = r * cos_t;
  *z1 = r * sin_t;
}

void BoxMullerScalarImpl(const uint32_t* words, double* out, size_t pairs) {
  for (size_t p = 0; p < pairs; ++p) {
    BoxMullerElement(words[2 * p], words[2 * p + 1], out + 2 * p,
                     out + 2 * p + 1);
  }
}

// ---------------------------------------------------------------------------
// AVX2 engines.
// ---------------------------------------------------------------------------
#if defined(RANDRECON_PHILOX_X86)
#pragma GCC push_options
#pragma GCC target("avx2,fma")

__attribute__((target("avx2,fma"))) void RawGroupsAvx2(
    uint64_t seed, uint64_t stream, uint64_t group_begin,
    uint64_t group_count, uint32_t* out) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i c2v = _mm256_set1_epi32(static_cast<int>(stream));
  const __m256i c3v = _mm256_set1_epi32(static_cast<int>(stream >> 32));
  const uint32_t k0s = static_cast<uint32_t>(seed);
  const uint32_t k1s = static_cast<uint32_t>(seed >> 32);
  const __m256i mul0 = _mm256_set1_epi32(static_cast<int>(kMul0));
  const __m256i mul1 = _mm256_set1_epi32(static_cast<int>(kMul1));
  __m256i key0[kRounds], key1[kRounds];
  for (int r = 0; r < kRounds; ++r) {
    key0[r] = _mm256_set1_epi32(
        static_cast<int>(k0s + static_cast<uint32_t>(r) * kWeyl0));
    key1[r] = _mm256_set1_epi32(
        static_cast<int>(k1s + static_cast<uint32_t>(r) * kWeyl1));
  }
  for (uint64_t g = 0; g < group_count; ++g) {
    const uint64_t base = (group_begin + g) * Philox::kBlocksPerGroup;
    uint32_t* o = out + g * Philox::kWordsPerGroup;
    for (int half = 0; half < 2; ++half) {
      // base is a multiple of 16, so the low-32 add never carries.
      __m256i c0 = _mm256_add_epi32(
          _mm256_set1_epi32(static_cast<int>(base + 8 * half)), lane);
      __m256i c1 = _mm256_set1_epi32(static_cast<int>(base >> 32));
      __m256i c2 = c2v, c3 = c3v;
      for (int r = 0; r < kRounds; ++r) {
        const __m256i p0e = _mm256_mul_epu32(c0, mul0);
        const __m256i p0o = _mm256_mul_epu32(_mm256_srli_epi64(c0, 32), mul0);
        const __m256i p1e = _mm256_mul_epu32(c2, mul1);
        const __m256i p1o = _mm256_mul_epu32(_mm256_srli_epi64(c2, 32), mul1);
        const __m256i hi0 = _mm256_blend_epi32(_mm256_srli_epi64(p0e, 32),
                                               p0o, 0xAA);
        const __m256i lo0 = _mm256_blend_epi32(p0e, _mm256_slli_epi64(p0o, 32),
                                               0xAA);
        const __m256i hi1 = _mm256_blend_epi32(_mm256_srli_epi64(p1e, 32),
                                               p1o, 0xAA);
        const __m256i lo1 = _mm256_blend_epi32(p1e, _mm256_slli_epi64(p1o, 32),
                                               0xAA);
        const __m256i n0 =
            _mm256_xor_si256(_mm256_xor_si256(hi1, c1), key0[r]);
        const __m256i n2 =
            _mm256_xor_si256(_mm256_xor_si256(hi0, c3), key1[r]);
        c0 = n0;
        c1 = lo1;
        c2 = n2;
        c3 = lo0;
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 8 * half), c0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 16 + 8 * half), c1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 32 + 8 * half), c2);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 48 + 8 * half), c3);
    }
  }
}

__attribute__((target("avx2,fma"))) void BoxMullerAvx2(const uint32_t* words,
                                                       double* out,
                                                       size_t pairs) {
  const __m256i m32 = _mm256_set1_epi64x(static_cast<long long>(kLow32));
  const __m256i magic =
      _mm256_set1_epi64x(static_cast<long long>(kCvtMagic));
  const __m256d two52 = _mm256_set1_pd(kTwo52);
  size_t p = 0;
  for (; p + 4 <= pairs; p += 4) {
    // 8 words = 4 pairs; 64-bit lane = (w1 << 32) | w0 (little endian).
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(words + 2 * p));
    const __m256i w0 = _mm256_and_si256(v, m32);
    const __m256i w1 = _mm256_srli_epi64(v, 32);
    // Exact uint32 -> double via the 2^52 bias trick.
    const __m256d w0d = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(w0, magic)), two52);
    const __m256d u1 = _mm256_fmadd_pd(w0d, _mm256_set1_pd(kInv32),
                                       _mm256_set1_pd(kInv32));
    // ln(u1)
    const __m256i bits = _mm256_castpd_si256(u1);
    __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits,
                         _mm256_set1_epi64x(static_cast<long long>(kFracMask))),
        _mm256_set1_epi64x(static_cast<long long>(kOneBits))));
    const __m256i be = _mm256_srli_epi64(bits, 52);
    const __m256d shift = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrtTwo),
                                        _CMP_GT_OQ);
    m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), shift);
    const __m256i adj = _mm256_and_si256(_mm256_castpd_si256(shift),
                                         _mm256_set1_epi64x(1));
    // e = (be - 1023 + adj) as double: bias by +2048 and use the 2^52
    // trick (exact, same value as the scalar static_cast).
    const __m256i eoff = _mm256_add_epi64(
        _mm256_add_epi64(be, adj), _mm256_set1_epi64x(1025));
    const __m256d e = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(eoff, magic)),
        _mm256_set1_pd(kTwo52 + 2048.0));
    const __m256d s = _mm256_div_pd(
        _mm256_sub_pd(m, _mm256_set1_pd(1.0)),
        _mm256_add_pd(m, _mm256_set1_pd(1.0)));
    const __m256d t = _mm256_mul_pd(s, s);
    __m256d pl = _mm256_set1_pd(kL11);
    pl = _mm256_fmadd_pd(pl, t, _mm256_set1_pd(kL9));
    pl = _mm256_fmadd_pd(pl, t, _mm256_set1_pd(kL7));
    pl = _mm256_fmadd_pd(pl, t, _mm256_set1_pd(kL5));
    pl = _mm256_fmadd_pd(pl, t, _mm256_set1_pd(kL3));
    const __m256d lnm = _mm256_fmadd_pd(
        s, _mm256_set1_pd(2.0), _mm256_mul_pd(s, _mm256_mul_pd(t, pl)));
    const __m256d lnu = _mm256_fmadd_pd(
        e, _mm256_set1_pd(kLn2Hi),
        _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Lo), lnm));
    const __m256d r =
        _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), lnu));
    // angle
    const __m256i f30i = _mm256_and_si256(w1, _mm256_set1_epi64x(0x3FFFFFFF));
    const __m256d f30 = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(f30i, magic)), two52);
    const __m256d a = _mm256_fmadd_pd(f30, _mm256_set1_pd(kAngleScale),
                                      _mm256_set1_pd(-kPiOverFour));
    const __m256d t2 = _mm256_mul_pd(a, a);
    __m256d sp = _mm256_set1_pd(kS11);
    sp = _mm256_fmadd_pd(sp, t2, _mm256_set1_pd(kS9));
    sp = _mm256_fmadd_pd(sp, t2, _mm256_set1_pd(kS7));
    sp = _mm256_fmadd_pd(sp, t2, _mm256_set1_pd(kS5));
    sp = _mm256_fmadd_pd(sp, t2, _mm256_set1_pd(kS3));
    const __m256d sinp = _mm256_fmadd_pd(a, _mm256_mul_pd(t2, sp), a);
    __m256d cpv = _mm256_set1_pd(kC12);
    cpv = _mm256_fmadd_pd(cpv, t2, _mm256_set1_pd(kC10));
    cpv = _mm256_fmadd_pd(cpv, t2, _mm256_set1_pd(kC8));
    cpv = _mm256_fmadd_pd(cpv, t2, _mm256_set1_pd(kC6));
    cpv = _mm256_fmadd_pd(cpv, t2, _mm256_set1_pd(kC4));
    cpv = _mm256_fmadd_pd(cpv, t2, _mm256_set1_pd(kC2));
    const __m256d cosp = _mm256_fmadd_pd(t2, cpv, _mm256_set1_pd(1.0));
    // quadrant bits 30/31 of w1
    const __m256i b30 = _mm256_set1_epi64x(0x40000000);
    const __m256i b31 = _mm256_set1_epi64x(0x80000000);
    const __m256d odd = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(w1, b30), b30));
    const __m256d ge2 = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(w1, b31), b31));
    __m256d sin_t = _mm256_blendv_pd(sinp, cosp, odd);
    __m256d cos_t = _mm256_blendv_pd(cosp, sinp, odd);
    const __m256d neg = _mm256_set1_pd(-0.0);
    sin_t = _mm256_xor_pd(sin_t, _mm256_and_pd(ge2, neg));
    cos_t = _mm256_xor_pd(cos_t, _mm256_and_pd(_mm256_xor_pd(odd, ge2), neg));
    const __m256d z0 = _mm256_mul_pd(r, cos_t);
    const __m256d z1 = _mm256_mul_pd(r, sin_t);
    const __m256d lo = _mm256_unpacklo_pd(z0, z1);
    const __m256d hi = _mm256_unpackhi_pd(z0, z1);
    _mm256_storeu_pd(out + 2 * p, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 2 * p + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  BoxMullerScalarImpl(words + 2 * p, out + 2 * p, pairs - p);
}

#pragma GCC pop_options

// ---------------------------------------------------------------------------
// AVX-512 engines.
// ---------------------------------------------------------------------------
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")

__attribute__((target("avx512f,avx512dq"))) void RawGroupsAvx512(
    uint64_t seed, uint64_t stream, uint64_t group_begin,
    uint64_t group_count, uint32_t* out) {
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12, 13, 14, 15);
  const __m512i c2v = _mm512_set1_epi32(static_cast<int>(stream));
  const __m512i c3v = _mm512_set1_epi32(static_cast<int>(stream >> 32));
  const uint32_t k0s = static_cast<uint32_t>(seed);
  const uint32_t k1s = static_cast<uint32_t>(seed >> 32);
  const __m512i mul0 = _mm512_set1_epi32(static_cast<int>(kMul0));
  const __m512i mul1 = _mm512_set1_epi32(static_cast<int>(kMul1));
  __m512i key0[kRounds], key1[kRounds];
  for (int r = 0; r < kRounds; ++r) {
    key0[r] = _mm512_set1_epi32(
        static_cast<int>(k0s + static_cast<uint32_t>(r) * kWeyl0));
    key1[r] = _mm512_set1_epi32(
        static_cast<int>(k1s + static_cast<uint32_t>(r) * kWeyl1));
  }
  for (uint64_t g = 0; g < group_count; ++g) {
    const uint64_t base = (group_begin + g) * Philox::kBlocksPerGroup;
    uint32_t* o = out + g * Philox::kWordsPerGroup;
    __m512i c0 = _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(base)),
                                  lane);
    __m512i c1 = _mm512_set1_epi32(static_cast<int>(base >> 32));
    __m512i c2 = c2v, c3 = c3v;
    for (int r = 0; r < kRounds; ++r) {
      const __m512i p0e = _mm512_mul_epu32(c0, mul0);
      const __m512i p0o = _mm512_mul_epu32(_mm512_srli_epi64(c0, 32), mul0);
      const __m512i p1e = _mm512_mul_epu32(c2, mul1);
      const __m512i p1o = _mm512_mul_epu32(_mm512_srli_epi64(c2, 32), mul1);
      const __m512i hi0 = _mm512_mask_blend_epi32(
          0xAAAA, _mm512_srli_epi64(p0e, 32), p0o);
      const __m512i lo0 = _mm512_mask_blend_epi32(
          0xAAAA, p0e, _mm512_slli_epi64(p0o, 32));
      const __m512i hi1 = _mm512_mask_blend_epi32(
          0xAAAA, _mm512_srli_epi64(p1e, 32), p1o);
      const __m512i lo1 = _mm512_mask_blend_epi32(
          0xAAAA, p1e, _mm512_slli_epi64(p1o, 32));
      const __m512i n0 =
          _mm512_xor_si512(_mm512_xor_si512(hi1, c1), key0[r]);
      const __m512i n2 =
          _mm512_xor_si512(_mm512_xor_si512(hi0, c3), key1[r]);
      c0 = n0;
      c1 = lo1;
      c2 = n2;
      c3 = lo0;
    }
    _mm512_storeu_si512(o, c0);
    _mm512_storeu_si512(o + 16, c1);
    _mm512_storeu_si512(o + 32, c2);
    _mm512_storeu_si512(o + 48, c3);
  }
}

__attribute__((target("avx512f,avx512dq"))) void BoxMullerAvx512(
    const uint32_t* words, double* out, size_t pairs) {
  const __m512i m32 = _mm512_set1_epi64(static_cast<long long>(kLow32));
  size_t p = 0;
  for (; p + 8 <= pairs; p += 8) {
    const __m512i v = _mm512_loadu_si512(words + 2 * p);
    const __m512i w0 = _mm512_and_si512(v, m32);
    const __m512i w1 = _mm512_srli_epi64(v, 32);
    const __m512d w0d = _mm512_cvtepu64_pd(w0);  // exact (< 2^32)
    const __m512d u1 = _mm512_fmadd_pd(w0d, _mm512_set1_pd(kInv32),
                                       _mm512_set1_pd(kInv32));
    const __m512i bits = _mm512_castpd_si512(u1);
    __m512d m = _mm512_castsi512_pd(_mm512_or_si512(
        _mm512_and_si512(bits,
                         _mm512_set1_epi64(static_cast<long long>(kFracMask))),
        _mm512_set1_epi64(static_cast<long long>(kOneBits))));
    const __m512i be = _mm512_srli_epi64(bits, 52);
    const __mmask8 shift = _mm512_cmp_pd_mask(m, _mm512_set1_pd(kSqrtTwo),
                                              _CMP_GT_OQ);
    m = _mm512_mask_mul_pd(m, shift, m, _mm512_set1_pd(0.5));
    const __m512i ei = _mm512_mask_add_epi64(be, shift, be,
                                             _mm512_set1_epi64(1));
    const __m512d e = _mm512_cvtepi64_pd(
        _mm512_sub_epi64(ei, _mm512_set1_epi64(1023)));
    const __m512d s = _mm512_div_pd(
        _mm512_sub_pd(m, _mm512_set1_pd(1.0)),
        _mm512_add_pd(m, _mm512_set1_pd(1.0)));
    const __m512d t = _mm512_mul_pd(s, s);
    __m512d pl = _mm512_set1_pd(kL11);
    pl = _mm512_fmadd_pd(pl, t, _mm512_set1_pd(kL9));
    pl = _mm512_fmadd_pd(pl, t, _mm512_set1_pd(kL7));
    pl = _mm512_fmadd_pd(pl, t, _mm512_set1_pd(kL5));
    pl = _mm512_fmadd_pd(pl, t, _mm512_set1_pd(kL3));
    const __m512d lnm = _mm512_fmadd_pd(
        s, _mm512_set1_pd(2.0), _mm512_mul_pd(s, _mm512_mul_pd(t, pl)));
    const __m512d lnu = _mm512_fmadd_pd(
        e, _mm512_set1_pd(kLn2Hi),
        _mm512_fmadd_pd(e, _mm512_set1_pd(kLn2Lo), lnm));
    const __m512d r =
        _mm512_sqrt_pd(_mm512_mul_pd(_mm512_set1_pd(-2.0), lnu));
    const __m512i f30i = _mm512_and_si512(w1, _mm512_set1_epi64(0x3FFFFFFF));
    const __m512d f30 = _mm512_cvtepu64_pd(f30i);
    const __m512d a = _mm512_fmadd_pd(f30, _mm512_set1_pd(kAngleScale),
                                      _mm512_set1_pd(-kPiOverFour));
    const __m512d t2 = _mm512_mul_pd(a, a);
    __m512d sp = _mm512_set1_pd(kS11);
    sp = _mm512_fmadd_pd(sp, t2, _mm512_set1_pd(kS9));
    sp = _mm512_fmadd_pd(sp, t2, _mm512_set1_pd(kS7));
    sp = _mm512_fmadd_pd(sp, t2, _mm512_set1_pd(kS5));
    sp = _mm512_fmadd_pd(sp, t2, _mm512_set1_pd(kS3));
    const __m512d sinp = _mm512_fmadd_pd(a, _mm512_mul_pd(t2, sp), a);
    __m512d cpv = _mm512_set1_pd(kC12);
    cpv = _mm512_fmadd_pd(cpv, t2, _mm512_set1_pd(kC10));
    cpv = _mm512_fmadd_pd(cpv, t2, _mm512_set1_pd(kC8));
    cpv = _mm512_fmadd_pd(cpv, t2, _mm512_set1_pd(kC6));
    cpv = _mm512_fmadd_pd(cpv, t2, _mm512_set1_pd(kC4));
    cpv = _mm512_fmadd_pd(cpv, t2, _mm512_set1_pd(kC2));
    const __m512d cosp = _mm512_fmadd_pd(t2, cpv, _mm512_set1_pd(1.0));
    const __mmask8 odd = _mm512_test_epi64_mask(
        w1, _mm512_set1_epi64(0x40000000));
    const __mmask8 ge2 = _mm512_test_epi64_mask(
        w1, _mm512_set1_epi64(0x80000000));
    const __m512d sin_base = _mm512_mask_blend_pd(odd, sinp, cosp);
    const __m512d cos_base = _mm512_mask_blend_pd(odd, cosp, sinp);
    const __m512i negbits = _mm512_castpd_si512(_mm512_set1_pd(-0.0));
    const __m512d sin_t = _mm512_castsi512_pd(_mm512_mask_xor_epi64(
        _mm512_castpd_si512(sin_base), ge2, _mm512_castpd_si512(sin_base),
        negbits));
    const __mmask8 fc = odd ^ ge2;
    const __m512d cos_t = _mm512_castsi512_pd(_mm512_mask_xor_epi64(
        _mm512_castpd_si512(cos_base), fc, _mm512_castpd_si512(cos_base),
        negbits));
    const __m512d z0 = _mm512_mul_pd(r, cos_t);
    const __m512d z1 = _mm512_mul_pd(r, sin_t);
    const __m512i idxlo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i idxhi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    _mm512_storeu_pd(out + 2 * p, _mm512_permutex2var_pd(z0, idxlo, z1));
    _mm512_storeu_pd(out + 2 * p + 8, _mm512_permutex2var_pd(z0, idxhi, z1));
  }
  BoxMullerScalarImpl(words + 2 * p, out + 2 * p, pairs - p);
}

#pragma GCC pop_options
#endif  // RANDRECON_PHILOX_X86

// ---------------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------------

using RawEngine = void (*)(uint64_t, uint64_t, uint64_t, uint64_t, uint32_t*);
using BmEngine = void (*)(const uint32_t*, double*, size_t);

struct Engines {
  RawEngine raw;
  BmEngine box_muller;
  const char* name;
};

const Engines& ActiveEngines() {
  static const Engines engines = [] {
#if defined(RANDRECON_PHILOX_X86)
    const char* no_simd = std::getenv("RANDRECON_NO_SIMD");
    if (no_simd == nullptr || no_simd[0] == '\0' || no_simd[0] == '0') {
      if (__builtin_cpu_supports("avx512f") &&
          __builtin_cpu_supports("avx512dq")) {
        return Engines{RawGroupsAvx512, BoxMullerAvx512, "avx512"};
      }
      if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        return Engines{RawGroupsAvx2, BoxMullerAvx2, "avx2"};
      }
    }
#endif
    return Engines{RawGroupsScalar, BoxMullerScalarImpl, "scalar"};
  }();
  return engines;
}

/// Fills canonical words [word_begin, word_begin + n) with `engine`,
/// staging the (at most two) partial edge groups.
void FillRawWith(RawEngine engine, uint64_t seed, uint64_t stream,
                 uint64_t word_begin, uint32_t* out, size_t n) {
  uint64_t w = word_begin;
  while (n > 0) {
    const uint64_t group = w / Philox::kWordsPerGroup;
    const size_t offset = static_cast<size_t>(w % Philox::kWordsPerGroup);
    if (offset == 0 && n >= Philox::kWordsPerGroup) {
      const uint64_t full = n / Philox::kWordsPerGroup;
      engine(seed, stream, group, full, out);
      const uint64_t words = full * Philox::kWordsPerGroup;
      w += words;
      out += words;
      n -= static_cast<size_t>(words);
      continue;
    }
    uint32_t stage[Philox::kWordsPerGroup];
    engine(seed, stream, group, 1, stage);
    const size_t take = std::min(n, Philox::kWordsPerGroup - offset);
    std::memcpy(out, stage + offset, take * sizeof(uint32_t));
    w += take;
    out += take;
    n -= take;
  }
}

constexpr size_t kTilePairs = 2048;  // 16KB raw staging per tile

/// Core of the Gaussian slices: pairs [pair_begin, pair_begin + pairs)
/// written interleaved to out.
void GaussianPairs(const Philox& stream, uint64_t pair_begin, double* out,
                   size_t pairs) {
  const Engines& engines = ActiveEngines();
  uint32_t raw[2 * kTilePairs];
  while (pairs > 0) {
    const size_t take = std::min(pairs, kTilePairs);
    FillRawWith(engines.raw, stream.seed(), stream.stream(), 2 * pair_begin,
                raw, 2 * take);
    engines.box_muller(raw, out, take);
    pair_begin += take;
    out += 2 * take;
    pairs -= take;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Philox members.
// ---------------------------------------------------------------------------

Philox Philox::Substream(uint64_t substream_id) const {
  return Philox(seed_,
                SplitMix64(stream_ + 0x9E3779B97F4A7C15ull *
                                         (substream_id + 1)));
}

void Philox::CacheGroup() {
  cached_group_ = pos_ / kWordsPerGroup;
  FillRawWith(ActiveEngines().raw, seed_, stream_,
              cached_group_ * kWordsPerGroup, group_words_, kWordsPerGroup);
}

uint64_t Philox::Next64() {
  const uint64_t lo = Next32();
  const uint64_t hi = Next32();
  return (hi << 32) | lo;
}

double Philox::NextUniform() {
  pos_ = (pos_ + 1) & ~uint64_t{1};  // align to an element boundary
  const uint64_t v = Next64();
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

void Philox::FillUniform(double* out, size_t n) {
  pos_ = (pos_ + 1) & ~uint64_t{1};
  UniformSliceAt(*this, pos_ / 2, out, n);
  pos_ += 2 * n;
}

void Philox::FillUniform(double lo, double hi, double* out, size_t n) {
  pos_ = (pos_ + 1) & ~uint64_t{1};
  UniformSliceAt(*this, lo, hi, pos_ / 2, out, n);
  pos_ += 2 * n;
}

void Philox::FillGaussian(double* out, size_t n) {
  pos_ = (pos_ + 1) & ~uint64_t{1};
  GaussianSliceAt(*this, pos_, out, n);
  pos_ += 2 * ((n + 1) / 2);
}

void Philox::FillGaussian(double mean, double stddev, double* out, size_t n) {
  pos_ = (pos_ + 1) & ~uint64_t{1};
  GaussianSliceAt(*this, mean, stddev, pos_, out, n);
  pos_ += 2 * ((n + 1) / 2);
}

void Philox::FillBernoulli(double p, uint8_t* out, size_t n) {
  BernoulliSliceAt(*this, p, pos_, out, n);
  pos_ += n;
}

double Philox::Gaussian() {
  pos_ = (pos_ + 1) & ~uint64_t{1};  // a pair starts on an even word
  const uint32_t words[2] = {Next32(), Next32()};
  double z[2];
  BoxMullerScalarImpl(words, z, 1);  // bitwise the dispatched engine
  return z[0];
}

double Philox::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Philox::Uniform(double lo, double hi) {
  const double span = hi - lo;
  return lo + NextUniform() * span;
}

int64_t Philox::UniformInt(int64_t lo, int64_t hi) {
  RR_CHECK_LE(lo, hi) << "UniformInt: empty range";
  const uint64_t span =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next64());  // all 2^64 values
  // Accept v >= 2^64 mod span: the accepted count is a multiple of span.
  const uint64_t reject_below = (0 - span) % span;
  uint64_t v = Next64();
  while (v < reject_below) v = Next64();
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + v % span);
}

linalg::Matrix Philox::GaussianMatrix(size_t rows, size_t cols) {
  linalg::Matrix m(rows, cols);
  FillGaussian(m.data(), m.size());
  return m;
}

linalg::Vector Philox::GaussianVector(size_t n, double mean, double stddev) {
  linalg::Vector v(n);
  FillGaussian(mean, stddev, v.data(), n);
  return v;
}

// ---------------------------------------------------------------------------
// Slices.
// ---------------------------------------------------------------------------

void UniformSliceAt(const Philox& stream, uint64_t elem_begin, double* out,
                    size_t n) {
  const Engines& engines = ActiveEngines();
  uint32_t raw[2 * kTilePairs];
  uint64_t e = elem_begin;
  while (n > 0) {
    const size_t take = std::min(n, kTilePairs);
    FillRawWith(engines.raw, stream.seed(), stream.stream(), 2 * e, raw,
                2 * take);
    for (size_t i = 0; i < take; ++i) {
      uint64_t v;
      std::memcpy(&v, raw + 2 * i, sizeof(v));
      out[i] = static_cast<double>(v >> 11) * 0x1.0p-53;
    }
    e += take;
    out += take;
    n -= take;
  }
}

void UniformSliceAt(const Philox& stream, double lo, double hi,
                    uint64_t elem_begin, double* out, size_t n) {
  UniformSliceAt(stream, elem_begin, out, n);
  const double span = hi - lo;
  for (size_t i = 0; i < n; ++i) out[i] = lo + out[i] * span;
}

void GaussianSliceAt(const Philox& stream, uint64_t elem_begin, double* out,
                     size_t n) {
  if (n == 0) return;
  size_t i = 0;
  if (elem_begin & 1) {  // leading half pair: keep only the sine element
    uint32_t w[2];
    double z[2];
    FillRawWith(ActiveEngines().raw, stream.seed(), stream.stream(),
                elem_begin - 1, w, 2);
    ActiveEngines().box_muller(w, z, 1);
    out[0] = z[1];
    ++i;
  }
  const size_t full_pairs = (n - i) / 2;
  if (full_pairs > 0) {
    GaussianPairs(stream, (elem_begin + i) / 2, out + i, full_pairs);
    i += 2 * full_pairs;
  }
  if (i < n) {  // trailing half pair: keep only the cosine element
    uint32_t w[2];
    double z[2];
    FillRawWith(ActiveEngines().raw, stream.seed(), stream.stream(),
                elem_begin + i, w, 2);
    ActiveEngines().box_muller(w, z, 1);
    out[i] = z[0];
  }
}

void GaussianSliceAt(const Philox& stream, double mean, double stddev,
                     uint64_t elem_begin, double* out, size_t n) {
  GaussianSliceAt(stream, elem_begin, out, n);
  for (size_t i = 0; i < n; ++i) out[i] = mean + stddev * out[i];
}

void BernoulliSliceAt(const Philox& stream, double p, uint64_t elem_begin,
                      uint8_t* out, size_t n) {
  const Engines& engines = ActiveEngines();
  uint32_t raw[2 * kTilePairs];
  while (n > 0) {
    const size_t take = std::min(n, 2 * kTilePairs);
    FillRawWith(engines.raw, stream.seed(), stream.stream(), elem_begin, raw,
                take);
    for (size_t i = 0; i < take; ++i) {
      out[i] = static_cast<double>(raw[i]) * kInv32 < p ? 1 : 0;
    }
    elem_begin += take;
    out += take;
    n -= take;
  }
}

double Log01(double x) {
  RR_CHECK(x > 0.0 && x <= 1.0) << "Log01: argument outside (0, 1]";
  return Log01Scalar(x);
}

// ---------------------------------------------------------------------------
// Test hooks.
// ---------------------------------------------------------------------------
namespace philox_internal {

void ReferenceBlock(uint64_t block_index, uint64_t stream, uint64_t seed,
                    uint32_t out[4]) {
  Block(block_index, stream, seed, out);
}

void FillRawScalar(uint64_t seed, uint64_t stream, uint64_t word_begin,
                   uint32_t* out, size_t n) {
  FillRawWith(RawGroupsScalar, seed, stream, word_begin, out, n);
}

void FillRawDispatched(uint64_t seed, uint64_t stream, uint64_t word_begin,
                       uint32_t* out, size_t n) {
  FillRawWith(ActiveEngines().raw, seed, stream, word_begin, out, n);
}

void BoxMullerScalar(const uint32_t* words, double* out, size_t pairs) {
  BoxMullerScalarImpl(words, out, pairs);
}

void BoxMullerDispatched(const uint32_t* words, double* out, size_t pairs) {
  ActiveEngines().box_muller(words, out, pairs);
}

const char* ActiveEngine() { return ActiveEngines().name; }

}  // namespace philox_internal

}  // namespace stats
}  // namespace randrecon
