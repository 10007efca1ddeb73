// AVX-512 bitset kernels: fused AND + native 64-bit lane popcount
// (VPOPCNTDQ), 8 words per vector with a two-vector unroll. This TU is
// compiled with -mavx512f -mavx512vpopcntdq (see src/CMakeLists.txt);
// the dispatcher only selects it after the avx512f + avx512vpopcntdq
// CPUID probe, so the binary stays runnable on baseline x86-64 and on
// AVX2-only parts.
#include "index/kernels/kernels_internal.h"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

namespace fairtopk::kernels::internal {
namespace {

/// Sum of the eight 64-bit lanes of `v`. Spelled out instead of
/// _mm512_reduce_add_epi64: GCC 12 expands that (and the unmasked
/// _mm512_extracti64x4_epi64) with an uninitialized pass-through
/// operand, which -Wall reports; the masked extract names its operand.
inline uint64_t SumLanes(__m512i v) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i half =
      _mm256_add_epi64(_mm512_mask_extracti64x4_epi64(zero, 0xFF, v, 1),
                       _mm512_mask_extracti64x4_epi64(zero, 0xFF, v, 0));
  const __m128i quarter = _mm_add_epi64(_mm256_extracti128_si256(half, 1),
                                        _mm256_castsi256_si128(half));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(quarter)) +
         static_cast<uint64_t>(_mm_extract_epi64(quarter, 1));
}

/// One pass over words [begin, end): w = a[i] (& b[i] when kAnd),
/// popcounts summed.
template <bool kAnd>
inline size_t Sweep(const uint64_t* a, const uint64_t* b, size_t begin,
                    size_t end) {
  size_t i = begin;
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  for (; i + 16 <= end; i += 16) {
    __m512i v0 = _mm512_loadu_si512(a + i);
    __m512i v1 = _mm512_loadu_si512(a + i + 8);
    if constexpr (kAnd) {
      v0 = _mm512_and_si512(v0, _mm512_loadu_si512(b + i));
      v1 = _mm512_and_si512(v1, _mm512_loadu_si512(b + i + 8));
    }
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(v0));
    acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(v1));
  }
  for (; i + 8 <= end; i += 8) {
    __m512i v = _mm512_loadu_si512(a + i);
    if constexpr (kAnd) v = _mm512_and_si512(v, _mm512_loadu_si512(b + i));
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(v));
  }
  size_t sum = static_cast<size_t>(SumLanes(_mm512_add_epi64(acc0, acc1)));
  for (; i < end; ++i) {
    uint64_t w = a[i];
    if constexpr (kAnd) w &= b[i];
    sum += PopCount64(w);
  }
  return sum;
}

/// Shared one-pass counts shape (see kernels.h for the prefix
/// convention).
template <bool kAnd>
inline void CountsImpl(const uint64_t* a, const uint64_t* b, size_t n,
                       size_t k_full, uint64_t k_mask, size_t* total,
                       size_t* prefix) {
  const size_t pref = Sweep<kAnd>(a, b, 0, k_full);
  size_t extra = 0;
  if (k_mask != 0) {
    uint64_t w = a[k_full];
    if constexpr (kAnd) w &= b[k_full];
    extra = PopCount64(w & k_mask);
  }
  const size_t rest = Sweep<kAnd>(a, b, k_full, n);
  *total = pref + rest;
  *prefix = pref + extra;
}

void Avx512Counts(const uint64_t* a, size_t n, size_t k_full, uint64_t k_mask,
                  size_t* total, size_t* prefix) {
  CountsImpl<false>(a, nullptr, n, k_full, k_mask, total, prefix);
}

void Avx512AndCounts(const uint64_t* a, const uint64_t* b, size_t n,
                     size_t k_full, uint64_t k_mask, size_t* total,
                     size_t* prefix) {
  CountsImpl<true>(a, b, n, k_full, k_mask, total, prefix);
}

void Avx512AssignAnd(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                     size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(
        dst + i, _mm512_and_si512(_mm512_loadu_si512(a + i),
                                  _mm512_loadu_si512(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void Avx512AndWith(uint64_t* a, const uint64_t* b, size_t n) {
  Avx512AssignAnd(a, a, b, n);
}

constexpr KernelOps kAvx512Ops = {
    "avx512", Avx512Counts, Avx512AndCounts, Avx512AssignAnd, Avx512AndWith,
};

}  // namespace

const KernelOps* Avx512KernelsOrNull() { return &kAvx512Ops; }

}  // namespace fairtopk::kernels::internal

#else  // !(__AVX512F__ && __AVX512VPOPCNTDQ__)

namespace fairtopk::kernels::internal {
const KernelOps* Avx512KernelsOrNull() { return nullptr; }
}  // namespace fairtopk::kernels::internal

#endif
