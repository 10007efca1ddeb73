// Kernel dispatch: CPU feature probing, the FAIRTOPK_KERNEL override,
// and the portable scalar reference kernels.
#include "index/kernels/kernels.h"

#include <cstdio>
#include <cstdlib>

#include "index/kernels/kernels_internal.h"

namespace fairtopk::kernels {
namespace {

using internal::PopCount64;

// ---------------------------------------------------------------------------
// Scalar reference kernels. Word-at-a-time; the differential kernel
// test asserts every SIMD variant is bit-identical to these.

void ScalarCounts(const uint64_t* a, size_t n, size_t k_full, uint64_t k_mask,
                  size_t* total, size_t* prefix) {
  size_t pref = 0;
  for (size_t i = 0; i < k_full; ++i) pref += PopCount64(a[i]);
  size_t extra = 0;
  if (k_mask != 0) extra = PopCount64(a[k_full] & k_mask);
  size_t rest = 0;
  for (size_t i = k_full; i < n; ++i) rest += PopCount64(a[i]);
  *total = pref + rest;
  *prefix = pref + extra;
}

void ScalarAndCounts(const uint64_t* a, const uint64_t* b, size_t n,
                     size_t k_full, uint64_t k_mask, size_t* total,
                     size_t* prefix) {
  size_t pref = 0;
  for (size_t i = 0; i < k_full; ++i) pref += PopCount64(a[i] & b[i]);
  size_t extra = 0;
  if (k_mask != 0) extra = PopCount64(a[k_full] & b[k_full] & k_mask);
  size_t rest = 0;
  for (size_t i = k_full; i < n; ++i) rest += PopCount64(a[i] & b[i]);
  *total = pref + rest;
  *prefix = pref + extra;
}

void ScalarAssignAnd(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                     size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
}

void ScalarAndWith(uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] &= b[i];
}

constexpr KernelOps kScalarOps = {
    "scalar", ScalarCounts, ScalarAndCounts, ScalarAssignAnd, ScalarAndWith,
};

// ---------------------------------------------------------------------------
// Selection. A variant is runtime-available when its TU was built with
// the ISA (accessor non-null) AND the CPU advertises the features —
// per-TU target flags mean the rest of the binary stays runnable on
// the baseline even when a vector TU is present.

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool CpuHasAvx512Popcnt() {
#if defined(__x86_64__) || defined(__i386__)
  // VPOPCNTDQ is the whole point of the 512-bit variant; F covers the
  // load/and/add/reduce scaffolding.
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
  return false;
#endif
}

const KernelOps* VariantOrNull(std::string_view name) {
  if (name == "scalar") return &kScalarOps;
  if (name == "avx2") {
    return CpuHasAvx2() ? internal::Avx2KernelsOrNull() : nullptr;
  }
  if (name == "avx512") {
    return CpuHasAvx512Popcnt() ? internal::Avx512KernelsOrNull() : nullptr;
  }
  if (name == "neon") return internal::NeonKernelsOrNull();
  return nullptr;
}

constexpr const char* kPreferenceOrder[] = {"avx512", "avx2", "neon",
                                            "scalar"};

const KernelOps* AutoSelect() {
  for (const char* name : kPreferenceOrder) {
    if (const KernelOps* ops = VariantOrNull(name)) return ops;
  }
  return &kScalarOps;
}

const KernelOps* SelectFromEnv() {
  const char* env = std::getenv("FAIRTOPK_KERNEL");
  if (env != nullptr && *env != '\0') {
    if (const KernelOps* ops = VariantOrNull(env)) return ops;
    const KernelOps* fallback = AutoSelect();
    std::fprintf(stderr,
                 "fairtopk: FAIRTOPK_KERNEL=%s is not available on this "
                 "build/CPU; using '%s'\n",
                 env, fallback->name);
    return fallback;
  }
  return AutoSelect();
}

// Magic-static so the first concurrent use performs the one selection
// safely; later SetActiveKernel swaps are documented as test-only.
const KernelOps*& ActiveSlot() {
  static const KernelOps* active = SelectFromEnv();
  return active;
}

}  // namespace

namespace internal {
const KernelOps& ScalarKernels() { return kScalarOps; }
}  // namespace internal

const KernelOps& Active() { return *ActiveSlot(); }

const char* ActiveName() { return ActiveSlot()->name; }

std::vector<const char*> AvailableKernels() {
  std::vector<const char*> names;
  for (const char* name : kPreferenceOrder) {
    if (VariantOrNull(name) != nullptr) names.push_back(name);
  }
  return names;
}

bool SetActiveKernel(std::string_view name) {
  const KernelOps* ops = VariantOrNull(name);
  if (ops == nullptr) return false;
  ActiveSlot() = ops;
  return true;
}

void ResetKernelSelection() { ActiveSlot() = SelectFromEnv(); }

}  // namespace fairtopk::kernels
