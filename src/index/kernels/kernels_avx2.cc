// AVX2 bitset kernels: fused AND + vpshufb nibble-LUT popcount (Mula's
// method — per-byte counts via two PSHUFB table lookups, horizontally
// folded into 64-bit lanes by VPSADBW). This TU is compiled with
// -mavx2 (see src/CMakeLists.txt); the dispatcher only selects it
// after __builtin_cpu_supports("avx2"), so the rest of the binary
// stays runnable on baseline x86-64.
#include "index/kernels/kernels_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace fairtopk::kernels::internal {
namespace {

inline __m256i PopCount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline uint64_t HorizontalSum(__m256i acc) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

/// One pass over words [begin, end): w = a[i] (& b[i] when kAnd),
/// popcounts summed. Two independent accumulators hide the shuffle
/// latency on the 8-word fast path.
template <bool kAnd>
inline size_t Sweep(const uint64_t* a, const uint64_t* b, size_t begin,
                    size_t end) {
  size_t i = begin;
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  for (; i + 8 <= end; i += 8) {
    __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4));
    if constexpr (kAnd) {
      v0 = _mm256_and_si256(
          v0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
      v1 = _mm256_and_si256(
          v1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 4)));
    }
    acc0 = _mm256_add_epi64(acc0, PopCount256(v0));
    acc1 = _mm256_add_epi64(acc1, PopCount256(v1));
  }
  for (; i + 4 <= end; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    if constexpr (kAnd) {
      v = _mm256_and_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    }
    acc0 = _mm256_add_epi64(acc0, PopCount256(v));
  }
  size_t sum = HorizontalSum(_mm256_add_epi64(acc0, acc1));
  for (; i < end; ++i) {
    uint64_t w = a[i];
    if constexpr (kAnd) w &= b[i];
    sum += PopCount64(w);
  }
  return sum;
}

/// Shared one-pass counts shape (see kernels.h for the prefix
/// convention): sweep [0, k_full) once for the prefix sum, the masked
/// partial word, then sweep [k_full, n) for the rest.
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

void Avx2Counts(const uint64_t* a, size_t n, size_t k_full, uint64_t k_mask,
                size_t* total, size_t* prefix) {
  CountsImpl<false>(a, nullptr, n, k_full, k_mask, total, prefix);
}

void Avx2AndCounts(const uint64_t* a, const uint64_t* b, size_t n,
                   size_t k_full, uint64_t k_mask, size_t* total,
                   size_t* prefix) {
  CountsImpl<true>(a, b, n, k_full, k_mask, total, prefix);
}

void Avx2AssignAnd(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                   size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void Avx2AndWith(uint64_t* a, const uint64_t* b, size_t n) {
  Avx2AssignAnd(a, a, b, n);
}

constexpr KernelOps kAvx2Ops = {
    "avx2", Avx2Counts, Avx2AndCounts, Avx2AssignAnd, Avx2AndWith,
};

}  // namespace

const KernelOps* Avx2KernelsOrNull() { return &kAvx2Ops; }

}  // namespace fairtopk::kernels::internal

#else  // !defined(__AVX2__)

namespace fairtopk::kernels::internal {
const KernelOps* Avx2KernelsOrNull() { return nullptr; }
}  // namespace fairtopk::kernels::internal

#endif
