// PROPBOUNDS (Algorithm 3) behavior tests, including the Example 4.9
// incremental transition from k=4 to k=5.
#include "detect/prop_bounds.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "datagen/running_example.h"
#include "detect/itertd.h"
#include "test_util.h"

namespace fairtopk {
namespace {

using testing::PatternOf;

DetectionInput RunningInput() {
  Result<Table> table = RunningExampleTable();
  EXPECT_TRUE(table.ok());
  auto ranker = RunningExampleRanker();
  Result<DetectionInput> input = DetectionInput::Prepare(*table, *ranker);
  EXPECT_TRUE(input.ok());
  return std::move(input).value();
}

// Example 4.9: tau_s=5, k in [4,5], alpha=0.9.
TEST(PropBoundsTest, Example49Transition) {
  DetectionInput input = RunningInput();
  PropBoundSpec bounds;
  bounds.alpha = 0.9;
  DetectionConfig config;
  config.k_min = 4;
  config.k_max = 5;
  config.size_threshold = 5;

  auto result = DetectPropBounds(input, bounds, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // k=4: exactly {School=GP}, {Address=U}, {Failures=1}.
  std::vector<Pattern> expected4 = {
      PatternOf(4, {{1, 1}}), PatternOf(4, {{2, 1}}), PatternOf(4, {{3, 1}})};
  std::sort(expected4.begin(), expected4.end());
  EXPECT_EQ(result->AtK(4), expected4);

  // k=5: {Address=U} and {Failures=1} remain (the bound rose with k)
  // and {Gender=F} joins via its k-tilde = 5; {School=GP} is untouched
  // by tuple 14 and stays biased.
  std::vector<Pattern> expected5 = {
      PatternOf(4, {{0, 0}}), PatternOf(4, {{1, 1}}), PatternOf(4, {{2, 1}}),
      PatternOf(4, {{3, 1}})};
  std::sort(expected5.begin(), expected5.end());
  EXPECT_EQ(result->AtK(5), expected5);
}

TEST(PropBoundsTest, MatchesBaselineOnRunningExample) {
  DetectionInput input = RunningInput();
  PropBoundSpec bounds;
  bounds.alpha = 0.9;
  DetectionConfig config;
  config.k_min = 3;
  config.k_max = 12;
  config.size_threshold = 4;
  auto optimized = DetectPropBounds(input, bounds, config);
  auto baseline = DetectPropIterTD(input, bounds, config);
  ASSERT_TRUE(optimized.ok());
  ASSERT_TRUE(baseline.ok());
  for (int k = config.k_min; k <= config.k_max; ++k) {
    EXPECT_EQ(optimized->AtK(k), baseline->AtK(k)) << "k=" << k;
  }
}

TEST(PropBoundsTest, RejectsNonPositiveAlpha) {
  DetectionInput input = RunningInput();
  PropBoundSpec bounds;
  bounds.alpha = 0.0;
  DetectionConfig config;
  config.k_min = 4;
  config.k_max = 5;
  config.size_threshold = 4;
  EXPECT_EQ(DetectPropBounds(input, bounds, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PropBoundsTest, ValidatesKRange) {
  DetectionInput input = RunningInput();
  PropBoundSpec bounds;
  DetectionConfig config;
  config.k_min = 0;
  config.k_max = 5;
  EXPECT_FALSE(DetectPropBounds(input, bounds, config).ok());
}

TEST(PropBoundsTest, ReportedPatternsSatisfyDefinition) {
  DetectionInput input = RunningInput();
  PropBoundSpec bounds;
  bounds.alpha = 0.9;
  DetectionConfig config;
  config.k_min = 4;
  config.k_max = 10;
  config.size_threshold = 4;
  const double n = 16.0;
  auto result = DetectPropBounds(input, bounds, config);
  ASSERT_TRUE(result.ok());
  for (int k = config.k_min; k <= config.k_max; ++k) {
    for (const Pattern& p : result->AtK(k)) {
      const size_t size_d = input.index().PatternCount(p);
      const size_t top_k =
          input.index().TopKCount(p, static_cast<size_t>(k));
      EXPECT_GE(size_d, 4u);
      EXPECT_LT(static_cast<double>(top_k),
                0.9 * static_cast<double>(size_d) * k / n);
    }
  }
}

TEST(PropBoundsTest, VisitsFewerNodesThanBaselineOnLargerData) {
  Table table = testing::RandomTable(400, 5, {2, 3}, 123);
  auto ranking = testing::RandomRanking(400, 123);
  auto input = DetectionInput::PrepareWithRanking(table, ranking);
  ASSERT_TRUE(input.ok());
  PropBoundSpec bounds;
  bounds.alpha = 0.8;
  DetectionConfig config;
  config.k_min = 20;
  config.k_max = 150;
  config.size_threshold = 12;
  auto optimized = DetectPropBounds(*input, bounds, config);
  auto baseline = DetectPropIterTD(*input, bounds, config);
  ASSERT_TRUE(optimized.ok());
  ASSERT_TRUE(baseline.ok());
  for (int k = config.k_min; k <= config.k_max; ++k) {
    ASSERT_EQ(optimized->AtK(k), baseline->AtK(k)) << "k=" << k;
  }
  EXPECT_LT(optimized->stats().nodes_visited,
            baseline->stats().nodes_visited);
}

// A tiny alpha puts every unbiased group's k-tilde estimate beyond
// INT_MAX. PropBounds must still return (the suite runs under a ctest
// TIMEOUT) and agree with the baseline.
TEST(PropBoundsTest, TinyAlphaTerminatesAndMatchesBaseline) {
  Table table = testing::RandomTable(400, 5, {2, 3}, 77);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(400, 77));
  ASSERT_TRUE(input.ok());
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 40;
  config.size_threshold = 8;
  for (double alpha : {1e-12, 1e-300}) {
    PropBoundSpec bounds;
    bounds.alpha = alpha;
    auto optimized = DetectPropBounds(*input, bounds, config);
    auto baseline = DetectPropIterTD(*input, bounds, config);
    ASSERT_TRUE(optimized.ok());
    ASSERT_TRUE(baseline.ok());
    for (int k = config.k_min; k <= config.k_max; ++k) {
      EXPECT_EQ(optimized->AtK(k), baseline->AtK(k))
          << "alpha=" << alpha << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace fairtopk
