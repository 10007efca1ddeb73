#include "pattern/result_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace fairtopk {
namespace {

using testing::PatternOf;

TEST(MostGeneralResultSetTest, InsertsUnrelatedPatterns) {
  MostGeneralResultSet res;
  EXPECT_TRUE(res.Update(PatternOf(3, {{0, 0}})).inserted);
  EXPECT_TRUE(res.Update(PatternOf(3, {{1, 1}})).inserted);
  EXPECT_EQ(res.size(), 2u);
}

TEST(MostGeneralResultSetTest, RejectsDescendantOfMember) {
  MostGeneralResultSet res;
  ASSERT_TRUE(res.Update(PatternOf(3, {{0, 0}})).inserted);
  auto outcome = res.Update(PatternOf(3, {{0, 0}, {2, 1}}));
  EXPECT_FALSE(outcome.inserted);
  EXPECT_TRUE(outcome.evicted.empty());
  EXPECT_EQ(res.size(), 1u);
}

TEST(MostGeneralResultSetTest, RejectsDuplicate) {
  MostGeneralResultSet res;
  ASSERT_TRUE(res.Update(PatternOf(3, {{0, 0}})).inserted);
  EXPECT_FALSE(res.Update(PatternOf(3, {{0, 0}})).inserted);
  EXPECT_EQ(res.size(), 1u);
}

TEST(MostGeneralResultSetTest, EvictsDescendantsOnGeneralInsert) {
  MostGeneralResultSet res;
  ASSERT_TRUE(res.Update(PatternOf(3, {{0, 0}, {1, 1}})).inserted);
  ASSERT_TRUE(res.Update(PatternOf(3, {{0, 0}, {2, 0}})).inserted);
  ASSERT_TRUE(res.Update(PatternOf(3, {{1, 0}})).inserted);
  auto outcome = res.Update(PatternOf(3, {{0, 0}}));
  EXPECT_TRUE(outcome.inserted);
  EXPECT_EQ(outcome.evicted.size(), 2u);
  EXPECT_EQ(res.size(), 2u);
  EXPECT_TRUE(res.Contains(PatternOf(3, {{0, 0}})));
  EXPECT_TRUE(res.Contains(PatternOf(3, {{1, 0}})));
}

TEST(MostGeneralResultSetTest, HasProperAncestorOf) {
  MostGeneralResultSet res;
  ASSERT_TRUE(res.Update(PatternOf(3, {{0, 0}})).inserted);
  EXPECT_TRUE(res.HasProperAncestorOf(PatternOf(3, {{0, 0}, {1, 1}})));
  EXPECT_FALSE(res.HasProperAncestorOf(PatternOf(3, {{0, 0}})));
  EXPECT_FALSE(res.HasProperAncestorOf(PatternOf(3, {{0, 1}, {1, 1}})));
}

TEST(MostGeneralResultSetTest, RemoveAndContains) {
  MostGeneralResultSet res;
  Pattern p = PatternOf(3, {{2, 1}});
  ASSERT_TRUE(res.Update(p).inserted);
  EXPECT_TRUE(res.Contains(p));
  EXPECT_TRUE(res.Remove(p));
  EXPECT_FALSE(res.Contains(p));
  EXPECT_FALSE(res.Remove(p));
}

TEST(MostGeneralResultSetTest, SortedIsDeterministic) {
  MostGeneralResultSet res;
  res.Update(PatternOf(2, {{1, 1}}));
  res.Update(PatternOf(2, {{0, 0}}));
  auto sorted = res.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_TRUE(sorted[0] < sorted[1]);
}

TEST(MostSpecificResultSetTest, KeepsOnlyMostSpecific) {
  MostSpecificResultSet res;
  ASSERT_TRUE(res.Update(PatternOf(3, {{0, 0}})).inserted);
  // More specific pattern evicts its ancestor.
  auto outcome = res.Update(PatternOf(3, {{0, 0}, {1, 1}}));
  EXPECT_TRUE(outcome.inserted);
  EXPECT_EQ(outcome.evicted.size(), 1u);
  EXPECT_EQ(res.size(), 1u);
  // Ancestor of a member is rejected.
  EXPECT_FALSE(res.Update(PatternOf(3, {{1, 1}})).inserted);
}

TEST(MostSpecificResultSetTest, HasProperDescendantOf) {
  MostSpecificResultSet res;
  ASSERT_TRUE(res.Update(PatternOf(3, {{0, 0}, {1, 1}})).inserted);
  EXPECT_TRUE(res.HasProperDescendantOf(PatternOf(3, {{0, 0}})));
  EXPECT_FALSE(res.HasProperDescendantOf(PatternOf(3, {{2, 0}})));
}

TEST(MostSpecificResultSetTest, UnrelatedPatternsCoexist) {
  MostSpecificResultSet res;
  ASSERT_TRUE(res.Update(PatternOf(3, {{0, 0}})).inserted);
  ASSERT_TRUE(res.Update(PatternOf(3, {{0, 1}})).inserted);
  ASSERT_TRUE(res.Update(PatternOf(3, {{1, 0}})).inserted);
  EXPECT_EQ(res.size(), 3u);
}

TEST(PredicateSignatureTest, NestedPatternsHaveNestedSignatures) {
  EXPECT_EQ(PredicateSignature(Pattern::Empty(5)), 0u);
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    Pattern p = Pattern::Empty(12);
    for (size_t a = 0; a < 12; ++a) {
      if (rng.Bernoulli(0.4)) {
        p.SetValue(a, static_cast<int16_t>(rng.UniformUint64(10)));
      }
    }
    Pattern q = p;  // an ancestor of p (or p itself)
    for (size_t a = 0; a < 12; ++a) {
      if (rng.Bernoulli(0.5)) q.SetValue(a, Pattern::kUnspecified);
    }
    ASSERT_TRUE(q.Subsumes(p));
    EXPECT_EQ(PredicateSignature(q) & ~PredicateSignature(p), 0u);
  }
}

// Two distinct predicates of a 12 x 10 space that share a signature bit
// (120 predicates over 64 bits: one must exist).
bool FindCollidingPredicates(std::pair<size_t, int16_t>& a,
                             std::pair<size_t, int16_t>& b) {
  for (size_t i = 0; i < 12; ++i) {
    for (int16_t v = 0; v < 10; ++v) {
      for (size_t j = i + 1; j < 12; ++j) {
        for (int16_t w = 0; w < 10; ++w) {
          if (PredicateSignature(PatternOf(12, {{i, v}})) ==
              PredicateSignature(PatternOf(12, {{j, w}}))) {
            a = {i, v};
            b = {j, w};
            return true;
          }
        }
      }
    }
  }
  return false;
}

TEST(ResultSetSignatureTest, CollidingPredicatesNeverConfuseMembers) {
  std::pair<size_t, int16_t> a_pred, b_pred;
  ASSERT_TRUE(FindCollidingPredicates(a_pred, b_pred));
  const Pattern a = PatternOf(12, {a_pred});
  const Pattern b = PatternOf(12, {b_pred});
  ASSERT_EQ(PredicateSignature(a), PredicateSignature(b));
  // b plus a predicate on a third attribute: its signature contains
  // a's, yet a does not subsume it.
  size_t third = 0;
  while (third == a_pred.first || third == b_pred.first) ++third;
  const Pattern b_child = b.With(third, 3);
  ASSERT_FALSE(a.Subsumes(b_child));

  MostGeneralResultSet general;
  ASSERT_TRUE(general.Update(a).inserted);
  EXPECT_FALSE(general.Contains(b));
  EXPECT_FALSE(general.Remove(b));
  EXPECT_FALSE(general.HasProperAncestorOf(b_child));
  const UpdateOutcome child = general.Update(b_child);
  EXPECT_TRUE(child.inserted);
  EXPECT_TRUE(child.evicted.empty());
  const UpdateOutcome same_sig = general.Update(b);
  EXPECT_TRUE(same_sig.inserted);
  EXPECT_FALSE(same_sig.duplicate);
  ASSERT_EQ(same_sig.evicted.size(), 1u);
  EXPECT_EQ(same_sig.evicted[0], b_child);
  EXPECT_TRUE(general.Remove(a));
  EXPECT_TRUE(general.Contains(b));
  EXPECT_FALSE(general.Contains(a));

  MostSpecificResultSet specific;
  ASSERT_TRUE(specific.Update(b_child).inserted);
  EXPECT_FALSE(specific.HasProperDescendantOf(a));
  EXPECT_TRUE(specific.HasProperDescendantOf(b));
  const UpdateOutcome ancestor = specific.Update(a);
  EXPECT_TRUE(ancestor.inserted);
  EXPECT_TRUE(ancestor.evicted.empty());
  EXPECT_FALSE(specific.Update(b).inserted);
  EXPECT_TRUE(specific.Contains(a));
  EXPECT_FALSE(specific.Contains(b));
}

// Property suites for both sets. Insertion orders are random; pattern
// pools mix fresh patterns with ancestors, descendants and copies of
// earlier entries, so subsumption is common. The wide space's 120
// predicates cannot fit 64 signature bits, so unrelated patterns with
// equal or nested signatures occur. After every Update the outcome,
// the members and every query match brute force over everything
// inserted so far.

struct Space {
  size_t attributes;
  int16_t values;
};
constexpr Space kNarrow{4, 2};
constexpr Space kWide{12, 10};

Pattern RandomPattern(Rng& rng, Space space) {
  Pattern p = Pattern::Empty(space.attributes);
  const size_t predicates = 1 + rng.UniformUint64(4);
  for (size_t n = 0; n < predicates; ++n) {
    p.SetValue(rng.UniformUint64(space.attributes),
               static_cast<int16_t>(rng.UniformUint64(
                   static_cast<uint64_t>(space.values))));
  }
  return p;
}

std::vector<Pattern> RelatedPool(Rng& rng, Space space, size_t n) {
  std::vector<Pattern> pool;
  while (pool.size() < n) {
    Pattern p = RandomPattern(rng, space);
    if (!pool.empty() && rng.Bernoulli(0.75)) {
      p = pool[rng.UniformUint64(pool.size())];
      const size_t a = rng.UniformUint64(space.attributes);
      const double move = rng.UniformDouble();
      if (move < 0.4) {
        p.SetValue(a, Pattern::kUnspecified);  // an ancestor (or a copy)
      } else if (move < 0.9) {
        // A descendant, or a sibling when `a` was already assigned.
        p.SetValue(a, static_cast<int16_t>(rng.UniformUint64(
                          static_cast<uint64_t>(space.values))));
      }
      if (p.IsEmpty()) continue;
    }
    pool.push_back(p);
  }
  rng.Shuffle(pool);
  return pool;
}

/// The distinct members of `inserted` that no other one covers: the
/// most general (`general`) or the most specific, sorted.
std::vector<Pattern> Extremes(const std::vector<Pattern>& inserted,
                              bool general) {
  std::vector<Pattern> out;
  for (const Pattern& p : inserted) {
    bool covered = false;
    for (const Pattern& q : inserted) {
      covered |= general ? q.IsProperAncestorOf(p) : p.IsProperAncestorOf(q);
    }
    if (!covered) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool HasProperRelative(const MostGeneralResultSet& set, const Pattern& p) {
  return set.HasProperAncestorOf(p);
}
bool HasProperRelative(const MostSpecificResultSet& set, const Pattern& p) {
  return set.HasProperDescendantOf(p);
}

template <typename SetT>
void ExpectMatchesBruteForce(const SetT& set,
                             const std::vector<Pattern>& expected,
                             const std::vector<Pattern>& probes, bool general) {
  ASSERT_EQ(set.Sorted(), expected);
  for (const Pattern& x : probes) {
    bool relative = false;
    for (const Pattern& e : expected) {
      relative |= general ? e.IsProperAncestorOf(x) : x.IsProperAncestorOf(e);
    }
    EXPECT_EQ(HasProperRelative(set, x), relative);
    EXPECT_EQ(set.Contains(x),
              std::binary_search(expected.begin(), expected.end(), x));
  }
}

template <typename SetT>
void CheckRandomInsertionOrders(Space space, uint64_t seed) {
  constexpr bool general = std::is_same_v<SetT, MostGeneralResultSet>;
  Rng rng(seed);
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE(trial);
    const std::vector<Pattern> pool = RelatedPool(rng, space, 40);
    std::vector<Pattern> probes = pool;
    for (int i = 0; i < 8; ++i) probes.push_back(RandomPattern(rng, space));

    SetT set;
    std::vector<Pattern> inserted;
    std::vector<Pattern> before;
    for (const Pattern& p : pool) {
      const UpdateOutcome outcome = set.Update(p);
      inserted.push_back(p);
      const std::vector<Pattern> after = Extremes(inserted, general);

      const bool was_member =
          std::binary_search(before.begin(), before.end(), p);
      EXPECT_EQ(outcome.duplicate, was_member);
      EXPECT_EQ(outcome.inserted,
                !was_member &&
                    std::binary_search(after.begin(), after.end(), p));
      std::vector<Pattern> gone;
      std::set_difference(before.begin(), before.end(), after.begin(),
                          after.end(), std::back_inserter(gone));
      std::vector<Pattern> evicted = outcome.evicted;
      std::sort(evicted.begin(), evicted.end());
      EXPECT_EQ(evicted, gone);

      ExpectMatchesBruteForce(set, after, probes, general);
      if constexpr (general) {
        // Remove a random member from a copy; the rest must still
        // answer every query, and re-inserting the member restores it.
        if (!after.empty()) {
          MostGeneralResultSet copy = set;
          const Pattern victim = after[rng.UniformUint64(after.size())];
          EXPECT_TRUE(copy.Remove(victim));
          EXPECT_FALSE(copy.Remove(victim));
          std::vector<Pattern> rest;
          std::remove_copy(after.begin(), after.end(),
                           std::back_inserter(rest), victim);
          ExpectMatchesBruteForce(copy, rest, probes, general);
          const UpdateOutcome again = copy.Update(victim);
          EXPECT_TRUE(again.inserted);
          EXPECT_TRUE(again.evicted.empty());
          ExpectMatchesBruteForce(copy, after, probes, general);
        }
        for (const Pattern& x : probes) {
          if (!std::binary_search(after.begin(), after.end(), x)) {
            MostGeneralResultSet copy = set;
            EXPECT_FALSE(copy.Remove(x));
            EXPECT_EQ(copy.Sorted(), after);
            break;
          }
        }
      }
      before = after;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MostGeneralResultSetTest, MatchesBruteForceNarrowSpace) {
  CheckRandomInsertionOrders<MostGeneralResultSet>(kNarrow, 4242);
}

TEST(MostGeneralResultSetTest, MatchesBruteForceWideSpace) {
  CheckRandomInsertionOrders<MostGeneralResultSet>(kWide, 4243);
}

TEST(MostSpecificResultSetTest, MatchesBruteForceNarrowSpace) {
  CheckRandomInsertionOrders<MostSpecificResultSet>(kNarrow, 4244);
}

TEST(MostSpecificResultSetTest, MatchesBruteForceWideSpace) {
  CheckRandomInsertionOrders<MostSpecificResultSet>(kWide, 4245);
}

}  // namespace
}  // namespace fairtopk
