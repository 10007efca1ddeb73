// Property suite for the incremental detectors' event-driven reconcile
// (detect/engine/incremental_state.h): on hundreds of random inputs —
// domains, row counts, rankings, k ranges and size thresholds — every
// k of GLOBALBOUNDS and PROPBOUNDS must equal ITERTD's. PROPBOUNDS runs
// at alphas from tiny (every k-tilde lies beyond k_max) to above 1 (a
// satisfying tuple can make a group biased); GLOBALBOUNDS runs on
// non-decreasing staircases whose steps fall inside the k range, so
// its restarts and its flat stretches both carry state.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "detect/global_bounds.h"
#include "detect/itertd.h"
#include "detect/prop_bounds.h"
#include "test_util.h"

namespace fairtopk {
namespace {

constexpr int kCases = 300;

/// One random input: a table over 2-6 attributes of 2-5 values, its
/// ranking (a shuffle, or rows grouped by one attribute's value, which
/// drives that attribute's groups in and out of bias), and a config.
struct RandomCase {
  DetectionInput input;
  DetectionConfig config;
  std::string label;
};

RandomCase MakeCase(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const size_t rows = static_cast<size_t>(rng.UniformInt(30, 400));
  const size_t attrs = static_cast<size_t>(rng.UniformInt(2, 6));
  std::vector<int> domains;
  for (size_t a = 0; a < attrs; ++a) {
    domains.push_back(static_cast<int>(rng.UniformInt(2, 5)));
  }
  Table table = testing::RandomTable(rows, attrs, domains, seed);
  std::vector<uint32_t> ranking = testing::RandomRanking(rows, seed);
  if (rng.Bernoulli(0.3)) {
    const size_t attr = static_cast<size_t>(rng.UniformUint64(attrs));
    std::stable_sort(ranking.begin(), ranking.end(),
                     [&](uint32_t a, uint32_t b) {
                       return table.CodeAt(a, attr) < table.CodeAt(b, attr);
                     });
  }
  Result<DetectionInput> input =
      DetectionInput::PrepareWithRanking(table, ranking);
  EXPECT_TRUE(input.ok());
  DetectionConfig config;
  config.k_min = static_cast<int>(
      rng.UniformInt(1, static_cast<int64_t>(rows / 3)));
  config.k_max = static_cast<int>(rng.UniformInt(
      config.k_min,
      std::min<int64_t>(static_cast<int64_t>(rows), config.k_min + 150)));
  config.size_threshold = static_cast<int>(
      rng.UniformInt(1, static_cast<int64_t>(rows / 6) + 1));
  const std::string label =
      "seed=" + std::to_string(seed) + " rows=" + std::to_string(rows) +
      " attrs=" + std::to_string(attrs) + " k=[" +
      std::to_string(config.k_min) + "," + std::to_string(config.k_max) +
      "] tau=" + std::to_string(config.size_threshold);
  return {std::move(input).value(), config, label};
}

void ExpectSamePerK(const DetectionResult& optimized,
                    const DetectionResult& baseline,
                    const std::string& label) {
  for (int k = baseline.k_min(); k <= baseline.k_max(); ++k) {
    ASSERT_EQ(optimized.AtK(k), baseline.AtK(k)) << label << " k=" << k;
  }
}

TEST(IncrementalPropertyTest, PropBoundsMatchesIterTDAtEveryK) {
  const double alphas[] = {1e-9, 0.05, 0.5, 0.8, 0.95, 1.0, 1.3, 2.5};
  uint64_t skipped = 0;
  for (int c = 0; c < kCases; ++c) {
    RandomCase rc = MakeCase(static_cast<uint64_t>(c) + 1);
    PropBoundSpec bounds;
    bounds.alpha = alphas[static_cast<size_t>(c) % std::size(alphas)];
    const std::string label =
        rc.label + " alpha=" + std::to_string(bounds.alpha);
    auto optimized = DetectPropBounds(rc.input, bounds, rc.config);
    auto baseline = DetectPropIterTD(rc.input, bounds, rc.config);
    ASSERT_TRUE(optimized.ok()) << label;
    ASSERT_TRUE(baseline.ok()) << label;
    ExpectSamePerK(*optimized, *baseline, label);
    skipped += optimized->stats().reexaminations_skipped;
  }
  // The cases leave groups in the deferred set that later ks skip.
  EXPECT_GT(skipped, 0u);
}

TEST(IncrementalPropertyTest, GlobalBoundsMatchesIterTDAtEveryK) {
  uint64_t skipped = 0;
  for (int c = 0; c < kCases; ++c) {
    RandomCase rc = MakeCase(static_cast<uint64_t>(c) + 1001);
    Rng rng(static_cast<uint64_t>(c) + 77);
    // A non-decreasing staircase: a first level below k_min, then up to
    // three steps at random ks inside the range.
    std::vector<std::pair<int, double>> steps = {
        {0, rng.UniformDouble() * 0.4 * rc.config.k_min}};
    const int extra = static_cast<int>(rng.UniformInt(0, 3));
    for (int s = 0; s < extra; ++s) {
      const int start = static_cast<int>(
          rng.UniformInt(rc.config.k_min, rc.config.k_max));
      if (start <= steps.back().first) continue;
      steps.emplace_back(start,
                         steps.back().second + rng.UniformDouble() * 4.0);
    }
    auto lower = StepFunction::FromSteps(steps);
    ASSERT_TRUE(lower.ok());
    GlobalBoundSpec bounds;
    bounds.lower = *lower;
    auto optimized = DetectGlobalBounds(rc.input, bounds, rc.config);
    auto baseline = DetectGlobalIterTD(rc.input, bounds, rc.config);
    ASSERT_TRUE(optimized.ok()) << rc.label;
    ASSERT_TRUE(baseline.ok()) << rc.label;
    ExpectSamePerK(*optimized, *baseline, rc.label);
    skipped += optimized->stats().reexaminations_skipped;
  }
  EXPECT_GT(skipped, 0u);
}

// The baselines re-search every k and never skip anything.
TEST(IncrementalPropertyTest, IterTDSkipsNothing) {
  RandomCase rc = MakeCase(5);
  PropBoundSpec prop;
  prop.alpha = 0.8;
  auto result = DetectPropIterTD(rc.input, prop, rc.config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats().reexaminations_skipped, 0u);
}

}  // namespace
}  // namespace fairtopk
