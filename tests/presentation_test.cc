#include "detect/presentation.h"

#include <gtest/gtest.h>

#include "datagen/running_example.h"
#include "detect/itertd.h"
#include "test_util.h"

namespace fairtopk {
namespace {

using testing::PatternOf;

struct Fixture {
  DetectionInput input;
  DetectionResult result;
};

Fixture MakeFixture() {
  Result<Table> table = RunningExampleTable();
  EXPECT_TRUE(table.ok());
  auto ranker = RunningExampleRanker();
  Result<DetectionInput> input = DetectionInput::Prepare(*table, *ranker);
  EXPECT_TRUE(input.ok());
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(2.0);
  DetectionConfig config;
  config.k_min = 4;
  config.k_max = 5;
  config.size_threshold = 4;
  auto result = DetectGlobalIterTD(*input, bounds, config);
  EXPECT_TRUE(result.ok());
  return Fixture{std::move(input).value(), std::move(result).value()};
}

TEST(AnnotateGlobalTest, FillsCountsAndBias) {
  Fixture f = MakeFixture();
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(2.0);
  auto groups = AnnotateGlobal(f.result, bounds, 4, GroupOrder::kBySizeDesc);
  ASSERT_FALSE(groups.empty());
  for (const auto& g : groups) {
    EXPECT_EQ(g.size_in_d, f.input.index().PatternCount(g.pattern));
    EXPECT_EQ(g.size_in_topk, f.input.index().TopKCount(g.pattern, 4));
    EXPECT_DOUBLE_EQ(g.required, 2.0);
    EXPECT_GT(g.bias(), 0.0);
  }
  // Sorted by size descending.
  for (size_t i = 1; i < groups.size(); ++i) {
    EXPECT_GE(groups[i - 1].size_in_d, groups[i].size_in_d);
  }
}

TEST(AnnotateGlobalTest, BiasOrderSortsByViolationMagnitude) {
  Fixture f = MakeFixture();
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(2.0);
  auto groups = AnnotateGlobal(f.result, bounds, 4, GroupOrder::kByBiasDesc);
  for (size_t i = 1; i < groups.size(); ++i) {
    EXPECT_GE(groups[i - 1].bias(), groups[i].bias());
  }
}

TEST(AnnotatePropTest, RequiredIsPerPattern) {
  Result<Table> table = RunningExampleTable();
  auto ranker = RunningExampleRanker();
  auto input = DetectionInput::Prepare(*table, *ranker);
  ASSERT_TRUE(input.ok());
  PropBoundSpec bounds;
  bounds.alpha = 0.9;
  DetectionConfig config;
  config.k_min = 4;
  config.k_max = 4;
  config.size_threshold = 5;
  auto result = DetectPropIterTD(*input, bounds, config);
  ASSERT_TRUE(result.ok());
  auto groups = AnnotateProp(*result, bounds, 4, GroupOrder::kByBiasDesc);
  ASSERT_FALSE(groups.empty());
  for (const auto& g : groups) {
    EXPECT_DOUBLE_EQ(
        g.required,
        0.9 * static_cast<double>(g.size_in_d) * 4.0 / 16.0);
  }
}

TEST(RenderReportTest, MentionsEveryGroup) {
  Fixture f = MakeFixture();
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(2.0);
  auto groups = AnnotateGlobal(f.result, bounds, 4, GroupOrder::kBySizeDesc);
  std::string report = RenderReport(groups, f.input.space(), 4);
  EXPECT_NE(report.find("top-4"), std::string::npos);
  for (const auto& g : groups) {
    EXPECT_NE(report.find(g.pattern.ToString(f.input.space())),
              std::string::npos);
  }
}

}  // namespace
}  // namespace fairtopk
