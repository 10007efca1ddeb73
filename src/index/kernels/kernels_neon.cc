// NEON bitset kernels for AArch64: fused AND + per-byte CNT popcount,
// folded per vector with the ADDLV horizontal sum. NEON is baseline on
// AArch64, so this TU needs no extra target flags and the variant is
// always runtime-available there.
#include "index/kernels/kernels_internal.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace fairtopk::kernels::internal {
namespace {

/// One pass over words [begin, end): w = a[i] (& b[i] when kAnd),
/// popcounts summed.
template <bool kAnd>
inline size_t Sweep(const uint64_t* a, const uint64_t* b, size_t begin,
                    size_t end) {
  size_t i = begin;
  size_t sum = 0;
  for (; i + 2 <= end; i += 2) {
    uint64x2_t v = vld1q_u64(a + i);
    if constexpr (kAnd) v = vandq_u64(v, vld1q_u64(b + i));
    sum += vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(v)));
  }
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

void NeonCounts(const uint64_t* a, size_t n, size_t k_full, uint64_t k_mask,
                size_t* total, size_t* prefix) {
  CountsImpl<false>(a, nullptr, n, k_full, k_mask, total, prefix);
}

void NeonAndCounts(const uint64_t* a, const uint64_t* b, size_t n,
                   size_t k_full, uint64_t k_mask, size_t* total,
                   size_t* prefix) {
  CountsImpl<true>(a, b, n, k_full, k_mask, total, prefix);
}

void NeonAssignAnd(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                   size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void NeonAndWith(uint64_t* a, const uint64_t* b, size_t n) {
  NeonAssignAnd(a, a, b, n);
}

constexpr KernelOps kNeonOps = {
    "neon", NeonCounts, NeonAndCounts, NeonAssignAnd, NeonAndWith,
};

}  // namespace

const KernelOps* NeonKernelsOrNull() { return &kNeonOps; }

}  // namespace fairtopk::kernels::internal

#else  // !defined(__aarch64__)

namespace fairtopk::kernels::internal {
const KernelOps* NeonKernelsOrNull() { return nullptr; }
}  // namespace fairtopk::kernels::internal

#endif
