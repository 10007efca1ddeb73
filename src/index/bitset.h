// Fixed-size dynamic bitset with the popcount primitives the pattern
// counting engine needs: full-AND cardinality and prefix-AND
// cardinality (count of set bits among the first k positions). All
// word-loop work dispatches through the runtime-selected SIMD kernel
// table (index/kernels/kernels.h).
#ifndef FAIRTOPK_INDEX_BITSET_H_
#define FAIRTOPK_INDEX_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fairtopk {

/// A bitset over a fixed number of positions.
class Bitset {
 public:
  Bitset() = default;

  /// Creates a bitset of `num_bits` zeroed bits.
  explicit Bitset(size_t num_bits);

  size_t num_bits() const { return num_bits_; }

  /// Sets the bit at `pos`. Requires pos < num_bits().
  void Set(size_t pos);

  /// Clears the bit at `pos`. Requires pos < num_bits().
  void Clear(size_t pos);

  /// Tests the bit at `pos`. Requires pos < num_bits().
  bool Test(size_t pos) const;

  /// Number of set bits.
  size_t Count() const;

  /// Number of set bits among positions [0, k). Requires k <= num_bits().
  size_t CountPrefix(size_t k) const;

  /// Count() and CountPrefix(k) in a single pass over the words.
  void Counts(size_t k, size_t* total, size_t* prefix) const;

  /// In-place intersection with `other` (same size required).
  void AndWith(const Bitset& other);

  /// Copies `other` into this bitset, adopting its size (this bitset
  /// is always re-sized to match — the sizes need not agree
  /// beforehand).
  void CopyFrom(const Bitset& other);

  /// Changes the size to `num_bits`, preserving the common prefix.
  /// Grown positions are zero; on shrink, bits beyond the new size are
  /// discarded (counts stay consistent). Used by the session layer when
  /// appended rows extend the rank-ordered index.
  void Resize(size_t num_bits);

  /// Cardinality of (this AND other) without materializing it.
  size_t AndCount(const Bitset& other) const;

  /// Cardinality of (this AND other) over positions [0, k).
  size_t AndCountPrefix(const Bitset& other, size_t k) const;

  /// AndCount(other) and AndCountPrefix(other, k) in a single pass —
  /// the per-node primitive of the search engine's cursor.
  void AndCounts(const Bitset& other, size_t k, size_t* total,
                 size_t* prefix) const;

  /// Overwrites this bitset with (a AND b); resizes to match.
  void AssignAnd(const Bitset& a, const Bitset& b);

  /// Raw 64-bit words (unused high bits are zero).
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_INDEX_BITSET_H_
