// Randomized cross-module properties tying the library together:
// detection <-> verification consistency, variant semantics vs the
// exhaustive oracle, repair feasibility, and CSV persistence of
// detection inputs.
#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "detect/itertd.h"
#include "variants.h"
#include "detect/verify.h"
#include "mitigate/rerank.h"
#include "relation/csv.h"
#include "test_util.h"

namespace fairtopk {
namespace {

class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

// A pattern is reported at k iff it is biased (verification flags it)
// and no proper ancestor with adequate size is biased.
TEST_P(PipelinePropertyTest, DetectionAgreesWithVerification) {
  const uint64_t seed = GetParam();
  Table table = testing::RandomTable(120, 4, {2, 3}, seed);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(120, seed));
  ASSERT_TRUE(input.ok());
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(5.0);
  DetectionConfig config{12, 12, 10};
  auto detected = DetectGlobalIterTD(*input, bounds, config);
  ASSERT_TRUE(detected.ok());

  for (const Pattern& p : detected->AtK(12)) {
    auto report = VerifyGlobalFairness(*input, p, bounds, config);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->fair()) << p.ToString(input->space());
    ASSERT_EQ(report->violations.size(), 1u);
    EXPECT_TRUE(report->violations[0].below_lower);
  }
  // And conversely: every single-predicate biased substantial pattern
  // is either reported or... single-predicate patterns have no proper
  // non-empty ancestor, so they must all be reported.
  for (size_t a = 0; a < input->space().num_attributes(); ++a) {
    for (int16_t v = 0; v < input->space().domain_size(a); ++v) {
      Pattern p = testing::PatternOf(4, {{a, v}});
      if (input->index().PatternCount(p) < 10) continue;
      auto report = VerifyGlobalFairness(*input, p, bounds, config);
      ASSERT_TRUE(report.ok());
      const bool reported =
          std::find(detected->AtK(12).begin(), detected->AtK(12).end(),
                    p) != detected->AtK(12).end();
      EXPECT_EQ(!report->fair(), reported) << p.ToString(input->space());
    }
  }
}

// Variant semantics against the exhaustive oracle on random data.
TEST_P(PipelinePropertyTest, VariantsMatchOracles) {
  const uint64_t seed = GetParam();
  Table table = testing::RandomTable(100, 3, {3, 2}, seed * 5);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(100, seed * 5));
  ASSERT_TRUE(input.ok());
  const int k = 20;
  const int tau = 8;
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(6.0);
  bounds.upper = StepFunction::Constant(7.0);
  DetectionConfig config{k, k, tau};

  // Collect all substantial violators for both sides.
  std::vector<Pattern> below;
  std::vector<Pattern> above;
  for (const Pattern& p : testing::AllPatterns(input->space())) {
    if (input->index().PatternCount(p) < static_cast<size_t>(tau)) continue;
    const double count = static_cast<double>(
        input->index().TopKCount(p, static_cast<size_t>(k)));
    if (count < 6.0) below.push_back(p);
    if (count > 7.0) above.push_back(p);
  }
  auto most_general = [](const std::vector<Pattern>& all) {
    std::vector<Pattern> out;
    for (const Pattern& p : all) {
      bool has = false;
      for (const Pattern& q : all) {
        if (q.IsProperAncestorOf(p)) has = true;
      }
      if (!has) out.push_back(p);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto most_specific = [](const std::vector<Pattern>& all) {
    std::vector<Pattern> out;
    for (const Pattern& p : all) {
      bool has = false;
      for (const Pattern& q : all) {
        if (p.IsProperAncestorOf(q)) has = true;
      }
      if (!has) out.push_back(p);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  struct Case {
    ViolationSide side;
    ReportingSemantics semantics;
    std::vector<Pattern> expected;
  };
  const Case cases[] = {
      {ViolationSide::kBelowLower, ReportingSemantics::kMostGeneral,
       most_general(below)},
      {ViolationSide::kBelowLower, ReportingSemantics::kMostSpecific,
       most_specific(below)},
      {ViolationSide::kAboveUpper, ReportingSemantics::kMostGeneral,
       most_general(above)},
      {ViolationSide::kAboveUpper, ReportingSemantics::kMostSpecific,
       most_specific(above)},
  };
  for (const Case& c : cases) {
    auto result =
        DetectGlobalVariant(*input, bounds, config, c.side, c.semantics);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->AtK(k), c.expected);
  }
}

// Repair on random data: when the greedy sweep reports feasible, every
// constraint verifies on the repaired ranking.
TEST_P(PipelinePropertyTest, RepairFeasibilityImpliesVerification) {
  const uint64_t seed = GetParam();
  Table table = testing::RandomTable(90, 3, {2, 3}, seed * 11);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(90, seed * 11));
  ASSERT_TRUE(input.ok());
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(4.0);
  DetectionConfig config{10, 25, 8};
  auto detected = DetectGlobalIterTD(*input, bounds, config);
  ASSERT_TRUE(detected.ok());
  auto constraints = ConstraintsFromDetection(*detected, bounds);
  if (constraints.empty()) GTEST_SKIP() << "nothing detected";

  auto repair = RepairRanking(*input, constraints, config);
  ASSERT_TRUE(repair.ok());
  ASSERT_TRUE(ValidateRanking(repair->ranking, 90).ok());
  if (!repair->feasible) {
    // Overlapping floors may be unsatisfiable; the outcome must list
    // offenders.
    EXPECT_FALSE(repair->unsatisfied.empty());
    return;
  }
  auto repaired =
      DetectionInput::PrepareWithRanking(table, repair->ranking);
  ASSERT_TRUE(repaired.ok());
  for (const auto& c : constraints) {
    auto report = VerifyGlobalFairness(*repaired, c.group, bounds, config);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->fair()) << c.group.ToString(input->space());
  }
}

// Detection survives a CSV round trip: persist the random table, read
// it back, re-rank with the same permutation, and get identical
// reports.
TEST_P(PipelinePropertyTest, DetectionSurvivesCsvRoundTrip) {
  const uint64_t seed = GetParam();
  Table table = testing::RandomTable(80, 4, {3}, seed * 17);
  auto ranking = testing::RandomRanking(80, seed * 17);

  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(table, out).ok());
  std::istringstream in(out.str());
  CsvOptions options;
  // Labels are numeric-looking strings; force them categorical.
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    options.force_categorical.push_back(table.schema().attribute(a).name);
  }
  auto reread = ReadCsv(in, options);
  ASSERT_TRUE(reread.ok());

  auto input1 = DetectionInput::PrepareWithRanking(table, ranking);
  auto input2 = DetectionInput::PrepareWithRanking(*reread, ranking);
  ASSERT_TRUE(input1.ok());
  ASSERT_TRUE(input2.ok());
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(4.0);
  DetectionConfig config{8, 30, 6};
  auto r1 = DetectGlobalIterTD(*input1, bounds, config);
  auto r2 = DetectGlobalIterTD(*input2, bounds, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (int k = 8; k <= 30; ++k) {
    // Domains may be permuted by first-appearance order, so compare
    // counts and rendered sets.
    ASSERT_EQ(r1->AtK(k).size(), r2->AtK(k).size()) << "k=" << k;
    std::vector<std::string> s1;
    std::vector<std::string> s2;
    for (const Pattern& p : r1->AtK(k)) {
      s1.push_back(p.ToString(input1->space()));
    }
    for (const Pattern& p : r2->AtK(k)) {
      s2.push_back(p.ToString(input2->space()));
    }
    std::sort(s1.begin(), s1.end());
    std::sort(s2.begin(), s2.end());
    ASSERT_EQ(s1, s2) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace fairtopk
