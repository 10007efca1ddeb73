#include "variants.h"

#include <gtest/gtest.h>

#include "datagen/running_example.h"
#include "detect/itertd.h"
#include "detect/upper_bounds.h"
#include "test_util.h"

namespace fairtopk {
namespace {

DetectionInput RunningInput() {
  Result<Table> table = RunningExampleTable();
  EXPECT_TRUE(table.ok());
  auto ranker = RunningExampleRanker();
  auto input = DetectionInput::Prepare(*table, *ranker);
  EXPECT_TRUE(input.ok());
  return std::move(input).value();
}

TEST(VariantsTest, LowerMostGeneralMatchesIterTD) {
  DetectionInput input = RunningInput();
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(2.0);
  DetectionConfig config{4, 8, 4};
  auto variant =
      DetectGlobalVariant(input, bounds, config, ViolationSide::kBelowLower,
                          ReportingSemantics::kMostGeneral);
  auto reference = DetectGlobalIterTD(input, bounds, config);
  ASSERT_TRUE(variant.ok());
  ASSERT_TRUE(reference.ok());
  for (int k = 4; k <= 8; ++k) {
    EXPECT_EQ(variant->AtK(k), reference->AtK(k)) << "k=" << k;
  }
}

TEST(VariantsTest, UpperMostSpecificMatchesUpperBoundsDetector) {
  DetectionInput input = RunningInput();
  GlobalBoundSpec bounds;
  bounds.upper = StepFunction::Constant(3.0);
  DetectionConfig config{5, 8, 4};
  auto variant =
      DetectGlobalVariant(input, bounds, config, ViolationSide::kAboveUpper,
                          ReportingSemantics::kMostSpecific);
  auto reference = DetectGlobalUpperBounds(input, bounds, config);
  ASSERT_TRUE(variant.ok());
  ASSERT_TRUE(reference.ok());
  for (int k = 5; k <= 8; ++k) {
    EXPECT_EQ(variant->AtK(k), reference->AtK(k)) << "k=" << k;
  }
}

TEST(VariantsTest, LowerMostSpecificReportsDeepestSubstantialViolators) {
  DetectionInput input = RunningInput();
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(2.0);
  DetectionConfig config{4, 4, 4};
  auto variant =
      DetectGlobalVariant(input, bounds, config, ViolationSide::kBelowLower,
                          ReportingSemantics::kMostSpecific);
  ASSERT_TRUE(variant.ok());
  const auto& at4 = variant->AtK(4);
  ASSERT_FALSE(at4.empty());
  for (const Pattern& p : at4) {
    // Each reported pattern is a substantial violator...
    EXPECT_GE(input.index().PatternCount(p), 4u);
    EXPECT_LT(input.index().TopKCount(p, 4), 2u);
    // ...with no reported proper descendant.
    for (const Pattern& q : at4) {
      EXPECT_FALSE(p.IsProperAncestorOf(q));
    }
    // And every substantial extension is NOT a violator... extensions
    // of a lower-bound violator are always violators, so they must be
    // below the size threshold.
    for (size_t a = 0; a < p.num_attributes(); ++a) {
      if (p.IsSpecified(a)) continue;
      for (int16_t v = 0; v < input.space().domain_size(a); ++v) {
        EXPECT_LT(input.index().PatternCount(p.With(a, v)), 4u)
            << p.ToString(input.space()) << " + attr " << a;
      }
    }
  }
}

TEST(VariantsTest, UpperMostGeneralIsSinglePredicateUnderGlobalBounds) {
  DetectionInput input = RunningInput();
  GlobalBoundSpec bounds;
  bounds.upper = StepFunction::Constant(3.0);
  DetectionConfig config{5, 5, 4};
  auto variant =
      DetectGlobalVariant(input, bounds, config, ViolationSide::kAboveUpper,
                          ReportingSemantics::kMostGeneral);
  ASSERT_TRUE(variant.ok());
  // Counts are monotone: any violator's ancestor also violates, so the
  // most general violators assign exactly one attribute.
  ASSERT_FALSE(variant->AtK(5).empty());
  for (const Pattern& p : variant->AtK(5)) {
    EXPECT_EQ(p.NumSpecified(), 1u);
    EXPECT_GT(input.index().TopKCount(p, 5), 3u);
  }
}

TEST(VariantsTest, PropVariantsRespectDefinitions) {
  DetectionInput input = RunningInput();
  PropBoundSpec bounds;
  bounds.alpha = 0.9;
  bounds.beta = 1.2;
  DetectionConfig config{5, 5, 4};
  const double n = 16.0;

  auto lower =
      DetectPropVariant(input, bounds, config, ViolationSide::kBelowLower,
                        ReportingSemantics::kMostGeneral);
  auto reference = DetectPropIterTD(input, bounds, config);
  ASSERT_TRUE(lower.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(lower->AtK(5), reference->AtK(5));

  auto upper =
      DetectPropVariant(input, bounds, config, ViolationSide::kAboveUpper,
                        ReportingSemantics::kMostSpecific);
  ASSERT_TRUE(upper.ok());
  for (const Pattern& p : upper->AtK(5)) {
    const double size_d =
        static_cast<double>(input.index().PatternCount(p));
    EXPECT_GT(static_cast<double>(input.index().TopKCount(p, 5)),
              1.2 * size_d * 5.0 / n);
  }
}

TEST(VariantsTest, ValidatesBounds) {
  DetectionInput input = RunningInput();
  PropBoundSpec bad;
  bad.alpha = 0.0;
  DetectionConfig config{5, 5, 4};
  EXPECT_FALSE(DetectPropVariant(input, bad, config,
                                 ViolationSide::kBelowLower,
                                 ReportingSemantics::kMostGeneral)
                   .ok());
  bad.alpha = 0.8;
  bad.beta = 0.5;
  EXPECT_FALSE(DetectPropVariant(input, bad, config,
                                 ViolationSide::kAboveUpper,
                                 ReportingSemantics::kMostSpecific)
                   .ok());
}

}  // namespace
}  // namespace fairtopk
