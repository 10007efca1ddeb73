// Differential tests for the runtime-dispatched bitset kernels: every
// kernel variant available on this build/CPU must be bit-identical to
// the scalar reference for every primitive, across sizes that straddle
// word (64-bit) and vector (256/512-bit) boundaries and prefix lengths
// that land on, before, and after those boundaries. Plus
// Resize-shrink-then-grow high-bit hygiene under each kernel, and the
// dispatch surface itself.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/bitset.h"
#include "index/kernels/kernels.h"

namespace fairtopk {
namespace {

// Sizes crossing word and vector boundaries (the AVX-512 sweep works
// in 512-bit = 8-word = 512-bit chunks with a 16-word unrolled fast
// path, so 1025/4113 exercise both unroll tails).
const size_t kSizes[] = {0, 1, 63, 64, 65, 255, 256, 257, 1000, 1025, 4113};

std::vector<size_t> PrefixLengths(size_t n) {
  std::vector<size_t> ks;
  for (size_t k : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   n / 2, n}) {
    if (k <= n && (ks.empty() || ks.back() != k)) ks.push_back(k);
  }
  return ks;
}

Bitset RandomBitset(size_t n, double density, Rng& rng) {
  Bitset bits(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) bits.Set(i);
  }
  return bits;
}

// Every counting/materializing primitive of one (a, b, k) triple,
// gathered so the per-kernel runs can be compared field by field.
struct PrimitiveResults {
  size_t count;
  size_t count_prefix;
  size_t counts_total, counts_prefix;
  size_t and_count;
  size_t and_count_prefix;
  size_t and_counts_total, and_counts_prefix;
  std::vector<uint64_t> assign_and_words;
  std::vector<uint64_t> and_with_words;

  bool operator==(const PrimitiveResults&) const = default;
};

PrimitiveResults RunPrimitives(const Bitset& a, const Bitset& b, size_t k) {
  PrimitiveResults r;
  r.count = a.Count();
  r.count_prefix = a.CountPrefix(k);
  a.Counts(k, &r.counts_total, &r.counts_prefix);
  r.and_count = a.AndCount(b);
  r.and_count_prefix = a.AndCountPrefix(b, k);
  a.AndCounts(b, k, &r.and_counts_total, &r.and_counts_prefix);
  Bitset assigned;
  assigned.AssignAnd(a, b);
  r.assign_and_words = assigned.words();
  Bitset in_place;
  in_place.CopyFrom(a);
  in_place.AndWith(b);
  r.and_with_words = in_place.words();
  return r;
}

TEST(BitsetKernelTest, ScalarIsAlwaysAvailableAndPreferenceOrdered) {
  const std::vector<const char*> available = kernels::AvailableKernels();
  ASSERT_FALSE(available.empty());
  EXPECT_STREQ(available.back(), "scalar");
}

TEST(BitsetKernelTest, SetActiveKernelRejectsUnknownVariants) {
  const std::string before = kernels::ActiveName();
  EXPECT_FALSE(kernels::SetActiveKernel("definitely-not-a-kernel"));
  EXPECT_EQ(before, kernels::ActiveName());
  kernels::ScopedKernel bogus("definitely-not-a-kernel");
  EXPECT_FALSE(bogus.ok());
  EXPECT_EQ(before, kernels::ActiveName());
}

TEST(BitsetKernelTest, ScopedKernelRestoresPreviousVariant) {
  const std::string before = kernels::ActiveName();
  {
    kernels::ScopedKernel scalar("scalar");
    ASSERT_TRUE(scalar.ok());
    EXPECT_STREQ(kernels::ActiveName(), "scalar");
  }
  EXPECT_EQ(before, kernels::ActiveName());
}

TEST(BitsetKernelTest, EveryAvailableKernelMatchesScalarReference) {
  Rng rng(20260808);
  for (size_t n : kSizes) {
    for (double density : {0.02, 0.5, 0.98}) {
      const Bitset a = RandomBitset(n, density, rng);
      const Bitset b = RandomBitset(n, 1.0 - density, rng);
      for (size_t k : PrefixLengths(n)) {
        PrimitiveResults reference;
        {
          kernels::ScopedKernel scalar("scalar");
          ASSERT_TRUE(scalar.ok());
          reference = RunPrimitives(a, b, k);
        }
        for (const char* name : kernels::AvailableKernels()) {
          kernels::ScopedKernel forced(name);
          ASSERT_TRUE(forced.ok()) << name;
          const PrimitiveResults got = RunPrimitives(a, b, k);
          EXPECT_EQ(got, reference)
              << "kernel=" << name << " n=" << n << " k=" << k
              << " density=" << density;
        }
      }
    }
  }
}

// All-ones inputs stress the per-byte accumulators of the vpshufb/vcnt
// variants (maximum partial sums) at the vector-boundary sizes.
TEST(BitsetKernelTest, AllOnesCountsMatchUnderEveryKernel) {
  for (size_t n : kSizes) {
    Bitset ones(n);
    for (size_t i = 0; i < n; ++i) ones.Set(i);
    for (const char* name : kernels::AvailableKernels()) {
      kernels::ScopedKernel forced(name);
      ASSERT_TRUE(forced.ok()) << name;
      EXPECT_EQ(ones.Count(), n) << "kernel=" << name << " n=" << n;
      for (size_t k : PrefixLengths(n)) {
        EXPECT_EQ(ones.CountPrefix(k), k) << "kernel=" << name << " n=" << n;
        EXPECT_EQ(ones.AndCountPrefix(ones, k), k)
            << "kernel=" << name << " n=" << n;
      }
    }
  }
}

// Raw prefix-split edges: every (k_full, k_mask) combination a bit
// count can produce, checked at the word granularity the kernels
// actually see, against the scalar table.
TEST(BitsetKernelTest, RawKernelPrefixSplitEdges) {
  Rng rng(4242);
  const size_t n = 19;  // crosses the 16-word AVX-512 unroll boundary
  std::vector<uint64_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextUint64();
    b[i] = i % 3 == 0 ? ~uint64_t{0} : rng.NextUint64();
  }
  for (const char* name : kernels::AvailableKernels()) {
    kernels::ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok()) << name;
    const kernels::KernelOps& ops = kernels::Active();
    for (size_t k = 0; k <= n * 64; k += 13) {
      size_t k_full = 0;
      uint64_t k_mask = 0;
      kernels::SplitPrefix(k, &k_full, &k_mask);
      size_t total = 0, prefix = 0;
      ops.and_counts(a.data(), b.data(), n, k_full, k_mask, &total, &prefix);
      // Scalar oracle, recomputed bit by bit.
      size_t want_total = 0, want_prefix = 0;
      for (size_t bit = 0; bit < n * 64; ++bit) {
        const bool set = ((a[bit / 64] & b[bit / 64]) >> (bit % 64)) & 1;
        want_total += set;
        if (bit < k) want_prefix += set;
      }
      EXPECT_EQ(total, want_total) << "kernel=" << name << " k=" << k;
      EXPECT_EQ(prefix, want_prefix) << "kernel=" << name << " k=" << k;
    }
  }
}

// Resize hygiene property: shrink discards bits for good; growing back
// must re-zero them, and every counting primitive must agree with a
// mirrored std::vector<bool> afterwards — under each kernel.
TEST(BitsetKernelTest, ResizeShrinkThenGrowHighBitHygiene) {
  for (const char* name : kernels::AvailableKernels()) {
    kernels::ScopedKernel forced(name);
    ASSERT_TRUE(forced.ok()) << name;
    Rng rng(7 + std::string(name).size());
    for (int trial = 0; trial < 10; ++trial) {
      const size_t n = 65 + rng.UniformUint64(1000);
      Bitset bits(n);
      std::vector<bool> mirror(n, false);
      for (size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.7)) {
          bits.Set(i);
          mirror[i] = true;
        }
      }
      const size_t shrink = 1 + rng.UniformUint64(n - 1);
      const size_t grow = n + rng.UniformUint64(300);
      bits.Resize(shrink);
      mirror.resize(shrink);
      bits.Resize(grow);
      mirror.resize(grow, false);

      size_t want = 0;
      for (bool v : mirror) want += v;
      EXPECT_EQ(bits.Count(), want) << "kernel=" << name;
      // The discarded tail must read (and AND) as zero.
      for (size_t i = shrink; i < grow; ++i) {
        ASSERT_FALSE(bits.Test(i)) << "kernel=" << name << " i=" << i;
      }
      Bitset ones(grow);
      for (size_t i = 0; i < grow; ++i) ones.Set(i);
      EXPECT_EQ(bits.AndCount(ones), want) << "kernel=" << name;
      size_t total = 0, prefix = 0;
      bits.AndCounts(ones, shrink, &total, &prefix);
      EXPECT_EQ(total, want) << "kernel=" << name;
      EXPECT_EQ(prefix, want) << "kernel=" << name;
    }
  }
}

}  // namespace
}  // namespace fairtopk
