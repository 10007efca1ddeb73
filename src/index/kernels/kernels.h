// Runtime-dispatched word-loop kernels for the bitset primitives.
//
// Every detection search bottoms out in a handful of fused AND+popcount
// passes over 64-bit word arrays (see index/bitset.h and
// index/pattern_cursor.h). This module provides those passes as a
// function-pointer table with one implementation per instruction-set
// tier — a portable scalar reference, AVX2 (vpshufb nibble-LUT
// popcount), AVX-512 (VPOPCNTDQ), and NEON (vcnt) — selected once at
// startup:
//
//   1. `FAIRTOPK_KERNEL=scalar|avx2|avx512|neon` forces a variant (for
//      testing and benchmarking). An unavailable forced variant is
//      reported on stderr and the automatic choice applies.
//   2. Otherwise the best variant the CPU supports wins, probed via
//      CPUID/feature detection at first use: avx512 > avx2 > neon >
//      scalar.
//
// The SIMD translation units are compiled with per-file `-mavx2` /
// `-mavx512*` flags (see src/CMakeLists.txt) while the rest of the
// build keeps the default target baseline, so the shipped binary runs
// on any x86-64 and only ever executes a vector kernel the running CPU
// advertised.
//
// Prefix convention: every counting kernel reports two popcounts in a
// single pass — `total` over all `n` words, and `prefix` over the
// first `k_full` full words plus (word[k_full] & k_mask) when k_mask
// != 0 (the partial prefix word). Contract: k_full <= n, and k_mask !=
// 0 implies k_full < n. SplitPrefix() derives (k_full, k_mask) from a
// bit count k.
#ifndef FAIRTOPK_INDEX_KERNELS_KERNELS_H_
#define FAIRTOPK_INDEX_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace fairtopk::kernels {

/// One instruction-set tier of the bitset word-loop primitives. All
/// pointers are non-null; `dst` may alias `a` or `b`.
struct KernelOps {
  const char* name;

  /// total = popcount(a[0..n)); prefix = popcount over the prefix
  /// described by (k_full, k_mask).
  void (*counts)(const uint64_t* a, size_t n, size_t k_full, uint64_t k_mask,
                 size_t* total, size_t* prefix);

  /// Same two counts over the fused intersection a[i] & b[i] — the
  /// per-node primitive of the search engine's cursor. Nothing is
  /// materialized.
  void (*and_counts)(const uint64_t* a, const uint64_t* b, size_t n,
                     size_t k_full, uint64_t k_mask, size_t* total,
                     size_t* prefix);

  /// dst[i] = a[i] & b[i] for i in [0, n).
  void (*assign_and)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                     size_t n);

  /// a[i] &= b[i] for i in [0, n).
  void (*and_with)(uint64_t* a, const uint64_t* b, size_t n);
};

/// The table every Bitset/PatternCursor primitive dispatches through.
/// Selected on first use (env override, then CPU probing); stable
/// afterwards unless SetActiveKernel intervenes.
const KernelOps& Active();

/// Name of the active variant: "scalar", "avx2", "avx512", or "neon".
/// Surfaced by the JSONL `stats` op so a deployment can check what a
/// server selected.
const char* ActiveName();

/// Names of every variant the running process can execute (compiled in
/// AND supported by this CPU), best-first; always ends with "scalar".
std::vector<const char*> AvailableKernels();

/// Forces `name` as the active table. Returns false (and changes
/// nothing) when the variant is not available at runtime. Not
/// thread-safe against concurrent kernel use — intended for tests and
/// benchmarks, before threads are launched.
bool SetActiveKernel(std::string_view name);

/// Re-runs the startup selection (FAIRTOPK_KERNEL override, then CPU
/// probing) — undoes SetActiveKernel.
void ResetKernelSelection();

/// Splits a prefix length in BITS into the (k_full, k_mask) pair the
/// kernels consume.
inline void SplitPrefix(size_t k, size_t* k_full, uint64_t* k_mask) {
  *k_full = k / 64;
  const size_t rem = k % 64;
  *k_mask = rem == 0 ? 0 : ((uint64_t{1} << rem) - 1);
}

/// RAII kernel override for tests/benchmarks: forces `name` while in
/// scope, restores the previous variant on destruction. `ok()` is
/// false when the variant was unavailable (the active table is then
/// unchanged).
class ScopedKernel {
 public:
  explicit ScopedKernel(std::string_view name)
      : previous_(ActiveName()), ok_(SetActiveKernel(name)) {}
  ~ScopedKernel() { SetActiveKernel(previous_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

  bool ok() const { return ok_; }

 private:
  const char* previous_;
  bool ok_;
};

}  // namespace fairtopk::kernels

#endif  // FAIRTOPK_INDEX_KERNELS_KERNELS_H_
