// End-to-end pipeline tests over the paper-shaped synthetic datasets:
// rank -> detect (both measures, optimized algorithms) -> explain ->
// compare with the divergence baseline.
#include <gtest/gtest.h>

#include "datagen/compas_like.h"
#include "datagen/german_like.h"
#include "datagen/student_like.h"
#include "detect/global_bounds.h"
#include "detect/itertd.h"
#include "detect/presentation.h"
#include "detect/prop_bounds.h"
#include "divergence/divexplorer.h"
#include "explain/group_explainer.h"

namespace fairtopk {
namespace {

TEST(IntegrationTest, StudentPipelineDetectsAndExplains) {
  auto table = StudentLikeTable();
  ASSERT_TRUE(table.ok());
  auto ranker = StudentRanker();
  // Restrict to the first 8 pattern attributes to keep the suite fast.
  std::vector<std::string> all_attrs = StudentPatternAttributes();
  std::vector<std::string> attrs(all_attrs.begin(), all_attrs.begin() + 8);
  auto input = DetectionInput::Prepare(*table, *ranker, attrs);
  ASSERT_TRUE(input.ok());

  GlobalBoundSpec bounds = GlobalBoundSpec::PaperDefault(49);
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  config.size_threshold = 50;
  auto detected = DetectGlobalBounds(*input, bounds, config);
  ASSERT_TRUE(detected.ok());

  // Sanity against the baseline on the real-shaped data.
  auto baseline = DetectGlobalIterTD(*input, bounds, config);
  ASSERT_TRUE(baseline.ok());
  for (int k = config.k_min; k <= config.k_max; ++k) {
    ASSERT_EQ(detected->AtK(k), baseline->AtK(k)) << "k=" << k;
  }

  // Something should be detected at the largest k (the synthetic bias
  // puts low-Medu students far from the top).
  ASSERT_FALSE(detected->AtK(49).empty());

  // Explanation pipeline: the ranking driver is the final grade.
  auto ranking = ranker->Rank(*table);
  ASSERT_TRUE(ranking.ok());
  auto explainer =
      GroupExplainer::Create(*table, *ranking, ExplainerOptions{});
  ASSERT_TRUE(explainer.ok());
  auto explanation =
      explainer->Explain(detected->AtK(49).front(), input->space(), 49);
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation->effects.front().attribute, "G3");
  EXPECT_FALSE(explanation->top_attribute_distribution.bins.empty());
}

TEST(IntegrationTest, GermanProportionalPipeline) {
  auto table = GermanLikeTable();
  ASSERT_TRUE(table.ok());
  auto ranker = GermanRanker();
  std::vector<std::string> all_attrs = GermanPatternAttributes();
  std::vector<std::string> attrs(all_attrs.begin(), all_attrs.begin() + 8);
  auto input = DetectionInput::Prepare(*table, *ranker, attrs);
  ASSERT_TRUE(input.ok());

  PropBoundSpec bounds;
  bounds.alpha = 0.8;
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  config.size_threshold = 50;
  auto optimized = DetectPropBounds(*input, bounds, config);
  auto baseline = DetectPropIterTD(*input, bounds, config);
  ASSERT_TRUE(optimized.ok());
  ASSERT_TRUE(baseline.ok());
  size_t total = 0;
  for (int k = config.k_min; k <= config.k_max; ++k) {
    ASSERT_EQ(optimized->AtK(k), baseline->AtK(k)) << "k=" << k;
    total += optimized->AtK(k).size();
  }
  EXPECT_GT(total, 0u);

  // Presentation: annotate the last k by bias.
  auto groups =
      AnnotateProp(*optimized, bounds, 49, GroupOrder::kByBiasDesc);
  std::string report = RenderReport(groups, input->space(), 49);
  EXPECT_FALSE(report.empty());
}

TEST(IntegrationTest, CompasGlobalDetectsGroups) {
  auto table = CompasLikeTable();
  ASSERT_TRUE(table.ok());
  auto ranker = CompasRanker();
  std::vector<std::string> all_attrs = CompasPatternAttributes();
  std::vector<std::string> attrs(all_attrs.begin(), all_attrs.begin() + 6);
  auto input = DetectionInput::Prepare(*table, *ranker, attrs);
  ASSERT_TRUE(input.ok());
  GlobalBoundSpec bounds = GlobalBoundSpec::PaperDefault(49);
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  config.size_threshold = 50;
  auto result = DetectGlobalBounds(*input, bounds, config);
  ASSERT_TRUE(result.ok());
  // Reported groups obey the problem definition.
  for (int k : {10, 30, 49}) {
    for (const Pattern& p : result->AtK(k)) {
      EXPECT_GE(input->index().PatternCount(p), 50u);
      EXPECT_LT(static_cast<double>(
                    input->index().TopKCount(p, static_cast<size_t>(k))),
                bounds.lower.At(k));
    }
  }
}

// Section VI-D-style comparison: our most-general results are a subset
// of the divergence method's output (which reports all frequent
// subgroups), and the divergence list is strictly larger.
TEST(IntegrationTest, DivergenceComparisonCaseStudy) {
  auto table = StudentLikeTable();
  ASSERT_TRUE(table.ok());
  auto ranker = StudentRanker();
  std::vector<std::string> attrs = {"school", "sex", "age_cat", "address"};
  auto input = DetectionInput::Prepare(*table, *ranker, attrs);
  ASSERT_TRUE(input.ok());

  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(10.0);
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 10;
  config.size_threshold = 50;
  auto ours = DetectGlobalIterTD(*input, bounds, config);
  ASSERT_TRUE(ours.ok());

  DivExplorerOptions div_options;
  div_options.min_support = 50.0 / 395.0;
  div_options.k = 10;
  auto divergent = FindDivergentGroups(input->index(), div_options);
  ASSERT_TRUE(divergent.ok());

  // The divergence method reports every frequent subgroup, so its
  // output contains all of ours and more.
  EXPECT_GT(divergent->size(), ours->AtK(10).size());
  for (const Pattern& p : ours->AtK(10)) {
    EXPECT_GT(DivergenceRankOf(*divergent, p), 0u)
        << p.ToString(input->space());
  }
}

}  // namespace
}  // namespace fairtopk
