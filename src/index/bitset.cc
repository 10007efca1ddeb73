#include "index/bitset.h"

#include <cassert>

#include "index/kernels/kernels.h"

namespace fairtopk {

namespace {
constexpr size_t kWordBits = 64;

size_t WordsFor(size_t num_bits) {
  return (num_bits + kWordBits - 1) / kWordBits;
}

// Mask selecting the first `bits` bits of a word (bits in [0, 64]).
uint64_t PrefixMask(size_t bits) {
  return bits >= kWordBits ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
}

// Number of words a kernel must touch to cover a k-bit prefix.
size_t PrefixSpan(size_t k_full, uint64_t k_mask) {
  return k_full + (k_mask != 0 ? 1 : 0);
}
}  // namespace

Bitset::Bitset(size_t num_bits)
    : num_bits_(num_bits), words_(WordsFor(num_bits), 0) {}

void Bitset::Set(size_t pos) {
  assert(pos < num_bits_);
  words_[pos / kWordBits] |= uint64_t{1} << (pos % kWordBits);
}

void Bitset::Clear(size_t pos) {
  assert(pos < num_bits_);
  words_[pos / kWordBits] &= ~(uint64_t{1} << (pos % kWordBits));
}

bool Bitset::Test(size_t pos) const {
  assert(pos < num_bits_);
  return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1;
}

size_t Bitset::Count() const {
  size_t total = 0;
  size_t prefix = 0;
  kernels::Active().counts(words_.data(), words_.size(), 0, 0, &total,
                           &prefix);
  return total;
}

size_t Bitset::CountPrefix(size_t k) const {
  assert(k <= num_bits_);
  size_t k_full = 0;
  uint64_t k_mask = 0;
  kernels::SplitPrefix(k, &k_full, &k_mask);
  size_t total = 0;
  size_t prefix = 0;
  // Only the prefix span is scanned; the kernel's `total` over that
  // span is discarded.
  kernels::Active().counts(words_.data(), PrefixSpan(k_full, k_mask), k_full,
                           k_mask, &total, &prefix);
  return prefix;
}

void Bitset::Counts(size_t k, size_t* total, size_t* prefix) const {
  assert(k <= num_bits_);
  size_t k_full = 0;
  uint64_t k_mask = 0;
  kernels::SplitPrefix(k, &k_full, &k_mask);
  kernels::Active().counts(words_.data(), words_.size(), k_full, k_mask,
                           total, prefix);
}

void Bitset::AndWith(const Bitset& other) {
  assert(num_bits_ == other.num_bits_);
  kernels::Active().and_with(words_.data(), other.words_.data(),
                             words_.size());
}

void Bitset::CopyFrom(const Bitset& other) {
  num_bits_ = other.num_bits_;
  words_ = other.words_;
}

void Bitset::Resize(size_t num_bits) {
  words_.resize(WordsFor(num_bits), 0);
  num_bits_ = num_bits;
  // Zero the now-unused high bits of the last word so Count() and the
  // AND-based primitives stay exact after a shrink.
  const size_t rem = num_bits_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= PrefixMask(rem);
  }
}

size_t Bitset::AndCount(const Bitset& other) const {
  assert(num_bits_ == other.num_bits_);
  size_t total = 0;
  size_t prefix = 0;
  kernels::Active().and_counts(words_.data(), other.words_.data(),
                               words_.size(), 0, 0, &total, &prefix);
  return total;
}

size_t Bitset::AndCountPrefix(const Bitset& other, size_t k) const {
  assert(num_bits_ == other.num_bits_);
  assert(k <= num_bits_);
  size_t k_full = 0;
  uint64_t k_mask = 0;
  kernels::SplitPrefix(k, &k_full, &k_mask);
  size_t total = 0;
  size_t prefix = 0;
  kernels::Active().and_counts(words_.data(), other.words_.data(),
                               PrefixSpan(k_full, k_mask), k_full, k_mask,
                               &total, &prefix);
  return prefix;
}

void Bitset::AndCounts(const Bitset& other, size_t k, size_t* total,
                       size_t* prefix) const {
  assert(num_bits_ == other.num_bits_);
  assert(k <= num_bits_);
  size_t k_full = 0;
  uint64_t k_mask = 0;
  kernels::SplitPrefix(k, &k_full, &k_mask);
  kernels::Active().and_counts(words_.data(), other.words_.data(),
                               words_.size(), k_full, k_mask, total, prefix);
}

void Bitset::AssignAnd(const Bitset& a, const Bitset& b) {
  assert(a.num_bits_ == b.num_bits_);
  num_bits_ = a.num_bits_;
  words_.resize(a.words_.size());
  kernels::Active().assign_and(words_.data(), a.words_.data(),
                               b.words_.data(), words_.size());
}

}  // namespace fairtopk
