// Unit tests for PatternCursor: child counts through the parent's frame
// must equal the from-scratch BitmapIndex counts at every depth, for
// top-k prefixes on both sides of a word boundary, across push/pop
// cycles and re-seeding — including frames whose words past the prefix
// are not filled yet.
#include "index/pattern_cursor.h"

#include <gtest/gtest.h>

#include "detect/detection_result.h"
#include "test_util.h"

namespace fairtopk {
namespace {

// 150 rows = 3 words, so k = 65 leaves a full word past the prefix.
constexpr size_t kRows = 150;

DetectionInput RandomInput(uint64_t seed) {
  Table table = testing::RandomTable(kRows, 4, {2, 3, 4}, seed);
  auto input = DetectionInput::PrepareWithRanking(
      table, testing::RandomRanking(kRows, seed));
  EXPECT_TRUE(input.ok());
  return std::move(input).value();
}

// Prefix lengths on both sides of a word boundary, plus all rows.
const size_t kPrefixes[] = {1, 64, 65, kRows};

/// Checks every child of `path` (the cursor's pattern) through both
/// counting calls against the index. ChildTopK runs first, so it reads
/// frames that may hold only their prefix words.
void ExpectChildrenMatchIndex(PatternCursor& cursor, const BitmapIndex& index,
                              const Pattern& path, size_t k) {
  const PatternSpace& space = index.space();
  for (size_t j = 0; j < space.num_attributes(); ++j) {
    if (path.IsSpecified(j)) continue;
    for (int16_t v = 0; v < space.domain_size(j); ++v) {
      const Pattern child = path.With(j, v);
      EXPECT_EQ(cursor.ChildTopK(j, v), index.TopKCount(child, k))
          << child.ToString(space) << " k=" << k;
      size_t size_d = 0;
      size_t top_k = 0;
      cursor.ChildCounts(j, v, &size_d, &top_k);
      EXPECT_EQ(size_d, index.PatternCount(child))
          << child.ToString(space) << " k=" << k;
      EXPECT_EQ(top_k, index.TopKCount(child, k))
          << child.ToString(space) << " k=" << k;
    }
  }
}

TEST(PatternCursorTest, RootChildCountsMatchIndex) {
  DetectionInput input = RandomInput(3);
  const Pattern empty = Pattern::Empty(input.space().num_attributes());
  for (size_t k : kPrefixes) {
    PatternCursor cursor(input.index(), k);
    ExpectChildrenMatchIndex(cursor, input.index(), empty, k);
  }
}

TEST(PatternCursorTest, DeepChildCountsMatchIndexAcrossPushPop) {
  DetectionInput input = RandomInput(7);
  const BitmapIndex& index = input.index();
  const size_t attrs = input.space().num_attributes();
  const std::vector<std::pair<size_t, int16_t>> steps = {
      {0, 1}, {1, 2}, {2, 0}};
  for (size_t k : kPrefixes) {
    PatternCursor cursor(index, k);
    // Walk a fixed path, checking every child at every depth.
    Pattern path = Pattern::Empty(attrs);
    for (const auto& [attr, value] : steps) {
      ExpectChildrenMatchIndex(cursor, index, path, k);
      cursor.Push(attr, value);
      path = path.With(attr, value);
    }
    ExpectChildrenMatchIndex(cursor, index, path, k);

    // Pop back up and re-verify below depth 1.
    cursor.Pop();
    cursor.Pop();
    ASSERT_EQ(cursor.depth(), 1u);
    ExpectChildrenMatchIndex(cursor, index,
                             testing::PatternOf(attrs, {{0, 1}}), k);
  }
}

// A resumed search seeds the cursor below an interior node: the seeded
// frames hold only their prefix words until a size is counted.
TEST(PatternCursorTest, SeedFromCountsThroughPartlyFilledFrames) {
  DetectionInput input = RandomInput(11);
  const BitmapIndex& index = input.index();
  const size_t attrs = input.space().num_attributes();
  const Pattern from = testing::PatternOf(attrs, {{1, 0}, {3, 1}});
  for (size_t k : kPrefixes) {
    PatternCursor cursor(index, k);
    cursor.SeedFrom(from);
    ASSERT_EQ(cursor.depth(), 2u);
    ExpectChildrenMatchIndex(cursor, index, from, k);

    // One level deeper: the pushed frame is prefix-only again, below
    // frames that ChildCounts has filled.
    cursor.Push(2, 1);
    const Pattern child = from.With(2, 1);
    for (int16_t v = 0; v < input.space().domain_size(0); ++v) {
      EXPECT_EQ(cursor.ChildTopK(0, v), index.TopKCount(child.With(0, v), k));
    }
    ExpectChildrenMatchIndex(cursor, index, child, k);

    // Re-seeding resets the stack (the arena is reused).
    cursor.SeedFrom(Pattern::Empty(attrs));
    EXPECT_EQ(cursor.depth(), 0u);
  }
}

// Pop forgets which frames were filled: after counting a size below
// one parent, popping, and pushing a different parent at the same
// depth, a size count must fill the new parent's words, not reuse the
// old ones.
TEST(PatternCursorTest, FillsTheCurrentFramesAfterPop) {
  DetectionInput input = RandomInput(17);
  const BitmapIndex& index = input.index();
  const size_t attrs = input.space().num_attributes();
  const size_t k = 65;
  PatternCursor cursor(index, k);
  size_t size_d = 0;
  size_t top_k = 0;

  cursor.Push(0, 1);
  cursor.Push(1, 2);
  cursor.ChildCounts(2, 0, &size_d, &top_k);  // fills both frames
  cursor.Pop();
  cursor.Pop();
  cursor.Push(0, 0);
  cursor.Push(1, 0);
  cursor.ChildCounts(3, 1, &size_d, &top_k);
  const Pattern refreshed = testing::PatternOf(attrs, {{0, 0}, {1, 0}, {3, 1}});
  EXPECT_EQ(size_d, index.PatternCount(refreshed));
  EXPECT_EQ(top_k, index.TopKCount(refreshed, k));

  // Same depth, sibling parent, after its frame was filled.
  cursor.Pop();
  cursor.Push(1, 1);
  cursor.ChildCounts(2, 1, &size_d, &top_k);
  const Pattern sibling = testing::PatternOf(attrs, {{0, 0}, {1, 1}, {2, 1}});
  EXPECT_EQ(size_d, index.PatternCount(sibling));
  EXPECT_EQ(top_k, index.TopKCount(sibling, k));
}

}  // namespace
}  // namespace fairtopk
