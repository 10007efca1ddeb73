#include "index/pattern_cursor.h"

namespace fairtopk {

PatternCursor::PatternCursor(const BitmapIndex& index, size_t k)
    : index_(&index),
      words_((index.num_rows() + 63) / 64),
      pushed_(index.space().num_attributes(), nullptr) {
  assert(k <= index.num_rows());
  kernels::SplitPrefix(k, &k_full_, &k_mask_);
  prefix_words_ = k_full_ + (k_mask_ != 0 ? 1 : 0);
}

void PatternCursor::Push(size_t attr, int16_t value) {
  const Bitset& bits = index_->ValueBitset(attr, value);
  assert(bits.words().size() == words_);
  assert(depth_ < pushed_.size());
  pushed_[depth_] = bits.words().data();
  if (depth_ == 0) {
    filled_ = 1;  // frame 0 is the bitset itself
  } else {
    if (arena_ == nullptr) {
      // A pattern specifies each attribute at most once, so the stack
      // never exceeds num_attributes frames. Left uninitialized: every
      // word is written before it is read.
      arena_.reset(new uint64_t[(pushed_.size() - 1) * words_]);
    }
    kernels::Active().assign_and(ArenaFrame(depth_), Frame(depth_ - 1),
                                 pushed_[depth_], prefix_words_);
  }
  ++depth_;
}

void PatternCursor::FillFrames() {
  const size_t rest = words_ - prefix_words_;
  for (; filled_ < depth_; ++filled_) {
    kernels::Active().assign_and(ArenaFrame(filled_) + prefix_words_,
                                 Frame(filled_ - 1) + prefix_words_,
                                 pushed_[filled_] + prefix_words_, rest);
  }
}

void PatternCursor::SeedFrom(const Pattern& p) {
  Reset();
  for (size_t a = 0; a < p.num_attributes(); ++a) {
    if (p.IsSpecified(a)) Push(a, p.value(a));
  }
}

}  // namespace fairtopk
