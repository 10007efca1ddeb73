// Result-set containers enforcing the paper's reporting semantics:
// most-general patterns (no reported pattern subsumes another) for the
// lower-bound problems, and the dual most-specific variant for the
// upper-bound extension.
//
// Both sets keep a 64-bit predicate signature beside every member (see
// PredicateSignature). If q subsumes p, each predicate of q is one of
// p's, so sig(q) & ~sig(p) == 0. Every query tests that first and
// compares whole patterns only for the members that pass; a hash
// collision costs one extra comparison, never a wrong answer.
//
// Member order is unspecified: a removal may move the last member into
// the hole. Sorted() gives the deterministic order.
#ifndef FAIRTOPK_PATTERN_RESULT_SET_H_
#define FAIRTOPK_PATTERN_RESULT_SET_H_

#include <cstdint>
#include <vector>

#include "pattern/pattern.h"

namespace fairtopk {

/// The hashed bit of predicate (attr = value): Fibonacci hashing of
/// (attribute, value), whose top 6 bits pick the bit.
inline uint64_t PredicateBit(size_t attr, int16_t value) {
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  const uint64_t key =
      (static_cast<uint64_t>(attr) << 8) + static_cast<uint64_t>(value);
  return uint64_t{1} << ((key * kGolden) >> 58);
}

/// PredicateBit of every (attribute, value) predicate of `p`, OR-ed
/// together; 0 for the empty pattern. Computed from the pattern alone.
/// q.Subsumes(p) implies (sig(q) & ~sig(p)) == 0, and equal patterns
/// have equal signatures.
uint64_t PredicateSignature(const Pattern& p);

/// Outcome of a result-set update.
struct UpdateOutcome {
  bool inserted = false;
  /// Set when the rejection was caused by an identical member (as
  /// opposed to a proper ancestor/descendant already covering `p`) —
  /// lets report loops classify rejects without a second scan.
  bool duplicate = false;
  /// Members evicted to keep the invariant (descendants of the inserted
  /// pattern for the most-general set; ancestors for most-specific).
  std::vector<Pattern> evicted;
};

namespace internal {

/// Members and their signatures, index-aligned: the storage and scans
/// both result sets share.
class SignedPatternSet {
 public:
  /// True iff `p` is a member.
  bool Contains(const Pattern& p) const;

  size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }
  /// The members, in unspecified order.
  const std::vector<Pattern>& patterns() const { return patterns_; }

  /// Members sorted lexicographically (deterministic reporting order).
  std::vector<Pattern> Sorted() const;

  void Clear() {
    patterns_.clear();
    signatures_.clear();
  }

 protected:
  /// update(Res, p) keeping the most general (kGeneral) or the most
  /// specific members.
  template <bool kGeneral>
  UpdateOutcome UpdateAs(const Pattern& p);

  /// True iff some member is a proper ancestor (kAncestor) or a proper
  /// descendant of `p`.
  template <bool kAncestor>
  bool HasProperRelativeOf(const Pattern& p) const;

  /// Removes `p` if present; returns whether it was present.
  bool Remove(const Pattern& p);

 private:
  /// Index of member `p` (signature `sig`), or size() when absent.
  size_t Find(const Pattern& p, uint64_t sig) const;

  std::vector<Pattern> patterns_;
  std::vector<uint64_t> signatures_;
};

}  // namespace internal

/// A set of patterns closed under the most-general invariant: no member
/// is a proper ancestor of another member.
class MostGeneralResultSet : public internal::SignedPatternSet {
 public:
  /// Inserts `p` unless a member already subsumes it; evicts (moves
  /// out) the members that `p` properly subsumes. Mirrors the paper's
  /// update(Res, p).
  UpdateOutcome Update(const Pattern& p);

  /// True iff some member is a proper ancestor of `p`.
  bool HasProperAncestorOf(const Pattern& p) const;

  using SignedPatternSet::Remove;
};

/// The dual container: no member is a proper descendant of another
/// member (used by the most-specific-substantial upper-bound variant).
class MostSpecificResultSet : public internal::SignedPatternSet {
 public:
  /// Inserts `p` unless a member is already subsumed by it (i.e. a more
  /// specific member exists); evicts members that subsume `p`.
  UpdateOutcome Update(const Pattern& p);

  /// True iff some member is a proper descendant of `p`.
  bool HasProperDescendantOf(const Pattern& p) const;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_PATTERN_RESULT_SET_H_
