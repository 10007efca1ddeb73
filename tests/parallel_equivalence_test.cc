// Property suite for the engine's shard-and-merge determinism rule:
// running any detection algorithm with num_threads > 1 must produce
// results bit-identical to the sequential run — same sorted patterns at
// every k — on randomized synthetic instances. Work counters, the size
// memo's full-width counts included, are also thread-count invariant
// (per-branch work is a pure function of the index and the branch's
// share of the run's size memo; per-worker stats merge on join).
#include <optional>

#include <gtest/gtest.h>

#include "detect/global_bounds.h"
#include "detect/itertd.h"
#include "detect/prop_bounds.h"
#include "detect/upper_bounds.h"
#include "detect/variants.h"
#include "test_util.h"

namespace fairtopk {
namespace {

struct ParallelCase {
  uint64_t seed;
  size_t rows;
  size_t attrs;
  std::vector<int> domains;
  int k_min;
  int k_max;
  int tau;
};

std::vector<ParallelCase> Cases() {
  return {
      {21, 80, 3, {2, 3}, 4, 40, 5},
      {22, 150, 4, {3, 2}, 10, 75, 10},
      {23, 200, 5, {2, 2, 3}, 8, 100, 12},
      {24, 120, 4, {4}, 6, 60, 8},
      {25, 250, 6, {2}, 15, 125, 14},
  };
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<ParallelCase> {
 protected:
  void SetUp() override {
    const ParallelCase& c = GetParam();
    Table table = testing::RandomTable(c.rows, c.attrs, c.domains, c.seed);
    auto input = DetectionInput::PrepareWithRanking(
        table, testing::RandomRanking(c.rows, c.seed));
    ASSERT_TRUE(input.ok());
    input_.emplace(std::move(input).value());
  }

  DetectionConfig ConfigWithThreads(int threads) const {
    const ParallelCase& c = GetParam();
    DetectionConfig config{c.k_min, c.k_max, c.tau};
    config.num_threads = threads;
    return config;
  }

  /// Asserts `run(config)` yields identical per-k results and work
  /// counters for 1, 2, and 4 threads.
  template <typename RunFn>
  void ExpectThreadInvariant(const RunFn& run) {
    auto sequential = run(ConfigWithThreads(1));
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    for (int threads : {2, 4}) {
      auto parallel = run(ConfigWithThreads(threads));
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      for (int k = GetParam().k_min; k <= GetParam().k_max; ++k) {
        ASSERT_EQ(parallel->AtK(k), sequential->AtK(k))
            << "seed=" << GetParam().seed << " threads=" << threads
            << " k=" << k;
      }
      EXPECT_EQ(parallel->stats().nodes_visited,
                sequential->stats().nodes_visited)
          << "threads=" << threads;
      EXPECT_EQ(parallel->stats().cursor_reuse_hits,
                sequential->stats().cursor_reuse_hits)
          << "threads=" << threads;
      // The size memo is split by root branch, so each shard counts
      // exactly the sizes the sequential run counts in that branch.
      EXPECT_EQ(parallel->stats().sizes_counted,
                sequential->stats().sizes_counted)
          << "threads=" << threads;
    }
  }

  std::optional<DetectionInput> input_;
};

TEST_P(ParallelEquivalenceTest, GlobalIterTD) {
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(0.3 * GetParam().k_min + 2.0);
  ExpectThreadInvariant([&](const DetectionConfig& config) {
    return DetectGlobalIterTD(*input_, bounds, config);
  });
}

TEST_P(ParallelEquivalenceTest, PropIterTD) {
  PropBoundSpec bounds;
  bounds.alpha = 0.85;
  ExpectThreadInvariant([&](const DetectionConfig& config) {
    return DetectPropIterTD(*input_, bounds, config);
  });
}

TEST_P(ParallelEquivalenceTest, GlobalBounds) {
  const ParallelCase& c = GetParam();
  const int mid = (c.k_min + c.k_max) / 2;
  GlobalBoundSpec bounds;
  auto steps = StepFunction::FromSteps({{c.k_min, 0.2 * c.k_min + 1.0},
                                        {mid, 0.2 * mid + 2.0}});
  ASSERT_TRUE(steps.ok());
  bounds.lower = *steps;
  ExpectThreadInvariant([&](const DetectionConfig& config) {
    return DetectGlobalBounds(*input_, bounds, config);
  });
}

TEST_P(ParallelEquivalenceTest, PropBounds) {
  PropBoundSpec bounds;
  bounds.alpha = 0.8;
  ExpectThreadInvariant([&](const DetectionConfig& config) {
    return DetectPropBounds(*input_, bounds, config);
  });
}

TEST_P(ParallelEquivalenceTest, GlobalUpperBounds) {
  GlobalBoundSpec bounds;
  bounds.upper = StepFunction::Constant(0.5 * GetParam().k_min + 1.0);
  ExpectThreadInvariant([&](const DetectionConfig& config) {
    return DetectGlobalUpperBounds(*input_, bounds, config);
  });
}

TEST_P(ParallelEquivalenceTest, GlobalVariantBelowMostSpecific) {
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(0.3 * GetParam().k_min + 2.0);
  ExpectThreadInvariant([&](const DetectionConfig& config) {
    return DetectGlobalVariant(*input_, bounds, config,
                               ViolationSide::kBelowLower,
                               ReportingSemantics::kMostSpecific);
  });
}

TEST_P(ParallelEquivalenceTest, PropVariantAboveMostGeneral) {
  PropBoundSpec bounds;
  bounds.alpha = 0.5;
  bounds.beta = 1.4;
  ExpectThreadInvariant([&](const DetectionConfig& config) {
    return DetectPropVariant(*input_, bounds, config,
                             ViolationSide::kAboveUpper,
                             ReportingSemantics::kMostGeneral);
  });
}

INSTANTIATE_TEST_SUITE_P(RandomizedDatasets, ParallelEquivalenceTest,
                         ::testing::ValuesIn(Cases()));

// num_threads = 0 resolves to the hardware concurrency and must agree
// with the sequential run too.
TEST(ParallelEquivalenceAutoTest, AutoThreadsMatchesSequential) {
  Table table = testing::RandomTable(100, 4, {2, 3}, 77);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(100, 77));
  ASSERT_TRUE(input.ok());
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(4.0);
  DetectionConfig sequential{5, 50, 8};
  DetectionConfig automatic{5, 50, 8};
  automatic.num_threads = 0;
  auto a = DetectGlobalIterTD(*input, bounds, sequential);
  auto b = DetectGlobalIterTD(*input, bounds, automatic);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int k = 5; k <= 50; ++k) {
    ASSERT_EQ(a->AtK(k), b->AtK(k)) << "k=" << k;
  }
}

// Negative thread counts are rejected up front.
TEST(ParallelEquivalenceAutoTest, NegativeThreadsRejected) {
  Table table = testing::RandomTable(50, 3, {2}, 5);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(50, 5));
  ASSERT_TRUE(input.ok());
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(2.0);
  DetectionConfig config{5, 20, 4};
  config.num_threads = -2;
  auto result = DetectGlobalIterTD(*input, bounds, config);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace fairtopk
