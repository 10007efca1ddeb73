// Tests Algorithm 1 (single-k top-down search, engine::MostGeneralBelow)
// against the worked examples of the paper and against the brute-force
// oracle, plus the input's size memo every search shares.
#include <algorithm>

#include <gtest/gtest.h>

#include "datagen/running_example.h"
#include "detect/detection_result.h"
#include "detect/engine/incremental_state.h"
#include "detect/engine/search_driver.h"
#include "detect/itertd.h"
#include "test_util.h"

namespace fairtopk {
namespace {

using testing::PatternOf;

/// Res and DRes of one Algorithm 1 search.
struct SearchOutcome {
  MostGeneralResultSet result;
  std::vector<Pattern> deferred;
};

/// Algorithm 1 at a single `k`, on a fresh size memo: Res from
/// engine::MostGeneralBelow, and DRes, which only the incremental
/// algorithms keep, from the same search run through their state
/// (engine/incremental_state.h), whose Res must agree.
template <typename BoundFn>
SearchOutcome TopDownSearch(const BitmapIndex& index, int size_threshold,
                            int k, const BoundFn& bound,
                            DetectionStats* stats) {
  using engine::IncrementalState;
  engine::SizeMemo sizes(index.space());
  SearchOutcome outcome;
  outcome.result = engine::MostGeneralBelow(
      index, {size_threshold, static_cast<size_t>(k)}, sizes, bound, stats);
  DetectionStats state_stats;
  IncrementalState state(index, sizes, size_threshold, k, &state_stats);
  state.BeginStep(k);
  auto visitor = [&](IncrementalState::Id id, const Pattern& p,
                     size_t size_d, size_t top_k, bool) {
    if (static_cast<double>(top_k) < bound(size_d)) {
      state.Report(id, p);
      return IncrementalState::Descend::kNone;
    }
    return IncrementalState::Descend::kAll;
  };
  state.FullSearch(IncrementalState::Descend::kAll, visitor);
  EXPECT_EQ(state.Snapshot(), outcome.result.Sorted());
  outcome.deferred = state.DeferredPatterns();
  return outcome;
}

// Pattern-space attribute order of the running example:
// 0=Gender{F,M} 1=School{MS,GP} 2=Address{R,U} 3=Failures{0,1,2}.
DetectionInput RunningInput() {
  Result<Table> table = RunningExampleTable();
  EXPECT_TRUE(table.ok());
  auto ranker = RunningExampleRanker();
  Result<DetectionInput> input = DetectionInput::Prepare(*table, *ranker);
  EXPECT_TRUE(input.ok());
  return std::move(input).value();
}

bool ContainsPattern(const std::vector<Pattern>& patterns, const Pattern& p) {
  return std::find(patterns.begin(), patterns.end(), p) != patterns.end();
}

// Example 2.3 / Figure 1 sanity: s_D({School=GP}) = 8 and
// s_R5({School=GP}) = 1.
TEST(TopDownFixtureTest, Example23Counts) {
  DetectionInput input = RunningInput();
  Pattern gp = PatternOf(4, {{1, 1}});
  EXPECT_EQ(input.index().PatternCount(gp), 8u);
  EXPECT_EQ(input.index().TopKCount(gp, 5), 1u);
}

// Example 4.6, k = 4 state: with tau_s = 4 and L = 2, Res[4] contains
// {Address=U} and {Failures=1}; the listed patterns are deferred
// because an ancestor is already reported.
TEST(TopDownSearchTest, Example46InitialSearch) {
  DetectionInput input = RunningInput();
  DetectionStats stats;
  SearchOutcome outcome = TopDownSearch(
      input.index(), /*size_threshold=*/4, /*k=*/4,
      [](size_t) { return 2.0; }, &stats);

  EXPECT_TRUE(outcome.result.Contains(PatternOf(4, {{2, 1}})));  // Address=U
  EXPECT_TRUE(outcome.result.Contains(PatternOf(4, {{3, 1}})));  // Failures=1
  EXPECT_TRUE(outcome.result.Contains(PatternOf(4, {{1, 1}})));  // School=GP

  // DRes members named in Example 4.6.
  EXPECT_TRUE(ContainsPattern(outcome.deferred,
                              PatternOf(4, {{0, 0}, {2, 1}})));  // F, U
  EXPECT_TRUE(ContainsPattern(outcome.deferred,
                              PatternOf(4, {{0, 1}, {2, 1}})));  // M, U
  EXPECT_TRUE(ContainsPattern(outcome.deferred,
                              PatternOf(4, {{0, 0}, {3, 1}})));  // F, fail=1
  EXPECT_TRUE(ContainsPattern(outcome.deferred,
                              PatternOf(4, {{2, 0}, {3, 1}})));  // R, fail=1
  EXPECT_GT(stats.nodes_visited, 0u);
}

// Example 4.9, k = 4 proportional state: with tau_s = 5 and alpha = 0.9
// the result is exactly { {School=GP}, {Address=U}, {Failures=1} }.
TEST(TopDownSearchTest, Example49InitialSearchProp) {
  DetectionInput input = RunningInput();
  const double alpha = 0.9;
  const double n = 16.0;
  const int k = 4;
  SearchOutcome outcome = TopDownSearch(
      input.index(), /*size_threshold=*/5, k,
      [&](size_t size_d) {
        return alpha * static_cast<double>(size_d) * k / n;
      },
      nullptr);
  std::vector<Pattern> expected = {
      PatternOf(4, {{1, 1}}),  // School=GP
      PatternOf(4, {{2, 1}}),  // Address=U
      PatternOf(4, {{3, 1}}),  // Failures=1
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(outcome.result.Sorted(), expected);
}

TEST(TopDownSearchTest, MatchesBruteForceOnRandomData) {
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    Table table = testing::RandomTable(80, 4, {2, 3}, seed);
    auto ranking = testing::RandomRanking(80, seed);
    auto input = DetectionInput::PrepareWithRanking(table, ranking);
    ASSERT_TRUE(input.ok());
    for (int k : {5, 17, 40}) {
      for (int tau : {5, 15}) {
        const double lower = 0.3 * k;
        auto bound = [lower](size_t) { return lower; };
        SearchOutcome outcome =
            TopDownSearch(input->index(), tau, k, bound, nullptr);
        auto oracle = testing::BruteForceMostGeneralBiased(input->index(),
                                                           tau, k, bound);
        EXPECT_EQ(outcome.result.Sorted(), oracle)
            << "seed=" << seed << " k=" << k << " tau=" << tau;
      }
    }
  }
}

TEST(TopDownSearchTest, ResultAndDeferredAreDisjointAndCoverBiased) {
  DetectionInput input = RunningInput();
  SearchOutcome outcome = TopDownSearch(
      input.index(), 4, 4, [](size_t) { return 2.0; }, nullptr);
  for (const Pattern& d : outcome.deferred) {
    EXPECT_FALSE(outcome.result.Contains(d));
    EXPECT_TRUE(outcome.result.HasProperAncestorOf(d));
    // Deferred patterns are genuinely biased.
    EXPECT_LT(input.index().TopKCount(d, 4), 2u);
    EXPECT_GE(input.index().PatternCount(d), 4u);
  }
}

TEST(TopDownSearchTest, HighThresholdPrunesEverything) {
  DetectionInput input = RunningInput();
  SearchOutcome outcome = TopDownSearch(
      input.index(), /*size_threshold=*/17, 4, [](size_t) { return 2.0; },
      nullptr);
  EXPECT_TRUE(outcome.result.empty());
  EXPECT_TRUE(outcome.deferred.empty());
}

TEST(TopDownSearchTest, ZeroBoundReportsNothing) {
  DetectionInput input = RunningInput();
  SearchOutcome outcome = TopDownSearch(
      input.index(), 4, 4, [](size_t) { return 0.0; }, nullptr);
  // Counts are never strictly below zero.
  EXPECT_TRUE(outcome.result.empty());
}

// The memo answers s_D for any pattern, in any lookup order, and
// counts each pattern once.
TEST(SizeMemoTest, SizeOfMatchesPatternCountAndCountsOnce) {
  Table table = testing::RandomTable(90, 4, {2, 3}, 41);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(90, 41));
  ASSERT_TRUE(input.ok());
  std::vector<Pattern> patterns = testing::AllPatterns(input->space());
  // Deepest first: every lookup below creates the nodes on its path
  // before their own sizes are known.
  std::reverse(patterns.begin(), patterns.end());
  engine::SizeMemo sizes(input->space());
  DetectionStats stats;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Pattern& p : patterns) {
      EXPECT_EQ(sizes.SizeOf(p, input->index(), &stats),
                input->index().PatternCount(p))
          << p.ToString(input->space());
    }
    EXPECT_EQ(stats.sizes_counted, patterns.size()) << "pass " << pass;
  }
}

// Sizes belong to the input, not the run: with a lower bound of 0
// nothing is biased, so every k walks the same tree. The first run
// counts each size once; a second run on the same input counts none,
// and a copy of the input starts with an empty memo and counts again.
TEST(SizeMemoTest, SizesAreCountedOncePerInput) {
  Table table = testing::RandomTable(200, 4, {2, 3}, 5);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(200, 5));
  ASSERT_TRUE(input.ok());
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(0.0);
  auto one = DetectGlobalIterTD(*input, bounds, DetectionConfig{20, 20, 5});
  auto ten = DetectGlobalIterTD(*input, bounds, DetectionConfig{20, 29, 5});
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(ten.ok());
  // A single search evaluates each node once, so counts each size.
  EXPECT_GT(one->stats().nodes_visited, 0u);
  EXPECT_EQ(one->stats().sizes_counted, one->stats().nodes_visited);
  EXPECT_EQ(ten->stats().nodes_visited, 10 * one->stats().nodes_visited);
  EXPECT_EQ(ten->stats().sizes_counted, 0u);

  const DetectionInput copy = *input;
  auto again = DetectGlobalIterTD(copy, bounds, DetectionConfig{20, 29, 5});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats().nodes_visited, ten->stats().nodes_visited);
  EXPECT_EQ(again->stats().sizes_counted, one->stats().sizes_counted);
}

// A memo over budget stores what fits and counts the rest on every
// evaluation: sizes stay exact, and each unstored miss is tallied.
TEST(SizeMemoTest, OverBudgetSizesStayExactAndMissesAreCounted) {
  Table table = testing::RandomTable(90, 4, {2, 3}, 43);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(90, 43));
  ASSERT_TRUE(input.ok());
  const BitmapIndex& index = input->index();
  // The root and its 10 children fit; few of their blocks do.
  engine::SizeMemo small(input->space(), /*node_budget=*/16);
  engine::SizeMemo full(input->space());
  const auto bound = [](size_t) { return 6.0; };
  const engine::SearchParams params{4, 30};

  const uint64_t before = engine::SizeMemo::UnstoredMisses();
  DetectionStats small_stats;
  DetectionStats full_stats;
  MostGeneralResultSet a =
      engine::MostGeneralBelow(index, params, small, bound, &small_stats);
  MostGeneralResultSet b =
      engine::MostGeneralBelow(index, params, full, bound, &full_stats);
  EXPECT_EQ(a.Sorted(), b.Sorted());
  EXPECT_EQ(small_stats.nodes_visited, full_stats.nodes_visited);
  EXPECT_EQ(small_stats.sizes_counted, full_stats.sizes_counted);
  EXPECT_LE(small.nodes(), 16u);
  EXPECT_GT(engine::SizeMemo::UnstoredMisses(), before);

  // Searched again, the memos differ only in what they kept: every
  // miss of the small one is an unstored node, the full one has none.
  const uint64_t middle = engine::SizeMemo::UnstoredMisses();
  DetectionStats small_again;
  DetectionStats full_again;
  a = engine::MostGeneralBelow(index, params, small, bound, &small_again);
  engine::MostGeneralBelow(index, params, full, bound, &full_again);
  EXPECT_EQ(a.Sorted(), b.Sorted());
  EXPECT_GT(small_again.sizes_counted, 0u);
  EXPECT_EQ(engine::SizeMemo::UnstoredMisses() - middle,
            small_again.sizes_counted);
  EXPECT_EQ(full_again.sizes_counted, 0u);

  for (const Pattern& p : testing::AllPatterns(input->space())) {
    EXPECT_EQ(small.SizeOf(p, index, nullptr), index.PatternCount(p))
        << p.ToString(input->space());
  }
}

}  // namespace
}  // namespace fairtopk
