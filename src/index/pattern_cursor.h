// PatternCursor: the incremental-counting companion of BitmapIndex for
// set-enumeration-tree traversals. A DFS over the search tree extends
// the current pattern by one predicate at a time; the cursor keeps the
// current pattern's row set as a stack of frames, so counting a child
// costs one AND against a single (attribute, value) bitset instead of
// re-intersecting all |p| predicate bitsets from scratch (as
// BitmapIndex::PatternCount/TopKCount must for an arbitrary pattern).
//
// Two-part frames: s_Rk(p) reads only the first ceil(k/64) words of a
// row set, and each pattern's size s_D(p) is counted once per input
// (the input's engine/size_memo.h answers the repeats, across runs).
// So Push ANDs only the prefix words of the new frame, ChildTopK reads
// only prefix words, and the remaining words of the stack's frames are
// filled only when a child's size has to be counted (ChildCounts) — on
// a warm input, never.
//
// Stack invariant: after Push(a1,v1)..Push(ad,vd), frame i-1 holds the
// intersection of the first i pushed predicate bitsets over its prefix
// words, and over every word for the frames below the filled mark.
// Frame 0 is the first predicate's bitset itself and is never copied.
//
// Storage: frames 1.. live in ONE contiguous arena (every frame of a
// traversal shares the index's width, so the stack is a single buffer
// with stride indexing, sized to the deepest possible pattern). The
// traversal itself allocates nothing.
#ifndef FAIRTOPK_INDEX_PATTERN_CURSOR_H_
#define FAIRTOPK_INDEX_PATTERN_CURSOR_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "index/bitmap_index.h"
#include "index/kernels/kernels.h"
#include "pattern/pattern.h"

namespace fairtopk {

/// Mutable per-traversal state; one cursor per worker thread. The
/// referenced BitmapIndex must outlive the cursor and is only read.
class PatternCursor {
 public:
  /// A cursor counting top-k prefixes of length `k` (k <= num_rows()).
  PatternCursor(const BitmapIndex& index, size_t k);

  /// Number of predicates currently pushed (0 = empty pattern).
  size_t depth() const { return depth_; }

  /// Back to the empty pattern; the arena is kept.
  void Reset() {
    depth_ = 0;
    filled_ = 0;
  }

  /// s_Rk of (current pattern ∪ {attr = value}): ANDs the top frame's
  /// prefix words with the value bitset's, nothing more.
  size_t ChildTopK(size_t attr, int16_t value) const {
    const uint64_t* bits = index_->ValueBitset(attr, value).words().data();
    size_t total = 0;
    size_t prefix = 0;
    if (depth_ == 0) {
      kernels::Active().counts(bits, prefix_words_, k_full_, k_mask_, &total,
                               &prefix);
    } else {
      kernels::Active().and_counts(Frame(depth_ - 1), bits, prefix_words_,
                                   k_full_, k_mask_, &total, &prefix);
    }
    return prefix;
  }

  /// s_D and s_Rk of (current pattern ∪ {attr = value}) in one
  /// full-width pass. First fills the words that the frames on the
  /// stack still lack.
  void ChildCounts(size_t attr, int16_t value, size_t* size_d,
                   size_t* top_k) {
    const uint64_t* bits = index_->ValueBitset(attr, value).words().data();
    if (depth_ == 0) {
      kernels::Active().counts(bits, words_, k_full_, k_mask_, size_d, top_k);
      return;
    }
    FillFrames();
    kernels::Active().and_counts(Frame(depth_ - 1), bits, words_, k_full_,
                                 k_mask_, size_d, top_k);
  }

  /// Descends into the child: ANDs the prefix words of parent ∩
  /// bitset(attr, value) into the new top frame.
  void Push(size_t attr, int16_t value);

  /// Ascends to the parent frame.
  void Pop() {
    assert(depth_ > 0);
    --depth_;
    if (filled_ > depth_) filled_ = depth_;
  }

  /// Resets, then pushes every predicate of `p` (used to resume a
  /// search below an interior node).
  void SeedFrom(const Pattern& p);

 private:
  const uint64_t* Frame(size_t i) const {
    return i == 0 ? pushed_[0] : arena_.get() + (i - 1) * words_;
  }
  uint64_t* ArenaFrame(size_t i) { return arena_.get() + (i - 1) * words_; }

  /// Completes the words past the prefix of every frame below depth_.
  void FillFrames();

  const BitmapIndex* index_;
  size_t words_;         // frame width: the index's words per bitset
  size_t k_full_ = 0;    // prefix split of k (kernels::SplitPrefix)
  uint64_t k_mask_ = 0;
  size_t prefix_words_;  // ceil(k / 64): the words Push fills
  size_t depth_ = 0;
  size_t filled_ = 0;    // frames [0, filled_) hold every word

  // pushed_[i]: words of the predicate bitset pushed at depth i + 1.
  std::vector<const uint64_t*> pushed_;
  // Frames 1..num_attributes-1, stride words_; allocated on the first
  // push below the root.
  std::unique_ptr<uint64_t[]> arena_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_INDEX_PATTERN_CURSOR_H_
