#include "pattern/result_set.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace fairtopk {

namespace {

/// a ⊆ b, with the signature test first.
bool SubsumesSigned(uint64_t sig_a, const Pattern& a, uint64_t sig_b,
                    const Pattern& b) {
  return (sig_a & ~sig_b) == 0 && a.Subsumes(b);
}

/// a ⊊ b, with the signature test first.
bool ProperAncestorSigned(uint64_t sig_a, const Pattern& a, uint64_t sig_b,
                          const Pattern& b) {
  return (sig_a & ~sig_b) == 0 && a.IsProperAncestorOf(b);
}

}  // namespace

uint64_t PredicateSignature(const Pattern& p) {
  uint64_t sig = 0;
  for (size_t i = 0; i < p.num_attributes(); ++i) {
    if (p.IsSpecified(i)) sig |= PredicateBit(i, p.value(i));
  }
  return sig;
}

namespace internal {

bool SignedPatternSet::Contains(const Pattern& p) const {
  return Find(p, PredicateSignature(p)) != patterns_.size();
}

std::vector<Pattern> SignedPatternSet::Sorted() const {
  std::vector<Pattern> out = patterns_;
  std::sort(out.begin(), out.end());
  return out;
}

template <bool kGeneral>
UpdateOutcome SignedPatternSet::UpdateAs(const Pattern& p) {
  UpdateOutcome outcome;
  const uint64_t sig = PredicateSignature(p);
  const size_t n = patterns_.size();
  // One pass: evict the members p covers, compacting the rest in place,
  // unless some member covers p. The invariant makes the early return
  // safe: had p covered an earlier member r, the member covering p
  // would cover r too, so nothing has been evicted yet.
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const Pattern& q = patterns_[i];
    // q == p, or q already covers p (a proper ancestor in the
    // most-general set, a proper descendant in the most-specific one):
    // p adds nothing, reject.
    const bool covered = kGeneral
                             ? SubsumesSigned(signatures_[i], q, sig, p)
                             : SubsumesSigned(sig, p, signatures_[i], q);
    if (covered) {
      outcome.duplicate = q == p;
      return outcome;
    }
    const bool evict = kGeneral
                           ? ProperAncestorSigned(sig, p, signatures_[i], q)
                           : ProperAncestorSigned(signatures_[i], q, sig, p);
    if (evict) {
      outcome.evicted.push_back(std::move(patterns_[i]));
      continue;
    }
    if (kept != i) {
      patterns_[kept] = std::move(patterns_[i]);
      signatures_[kept] = signatures_[i];
    }
    ++kept;
  }
  patterns_.erase(patterns_.begin() + static_cast<std::ptrdiff_t>(kept),
                  patterns_.end());
  signatures_.resize(kept);
  patterns_.push_back(p);
  signatures_.push_back(sig);
  outcome.inserted = true;
  return outcome;
}

template <bool kAncestor>
bool SignedPatternSet::HasProperRelativeOf(const Pattern& p) const {
  const uint64_t sig = PredicateSignature(p);
  for (size_t i = 0; i < patterns_.size(); ++i) {
    const bool related =
        kAncestor ? ProperAncestorSigned(signatures_[i], patterns_[i], sig, p)
                  : ProperAncestorSigned(sig, p, signatures_[i], patterns_[i]);
    if (related) return true;
  }
  return false;
}

bool SignedPatternSet::Remove(const Pattern& p) {
  const size_t i = Find(p, PredicateSignature(p));
  if (i == patterns_.size()) return false;
  if (i + 1 != patterns_.size()) {
    patterns_[i] = std::move(patterns_.back());
    signatures_[i] = signatures_.back();
  }
  patterns_.pop_back();
  signatures_.pop_back();
  return true;
}

size_t SignedPatternSet::Find(const Pattern& p, uint64_t sig) const {
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (signatures_[i] == sig && patterns_[i] == p) return i;
  }
  return patterns_.size();
}

}  // namespace internal

UpdateOutcome MostGeneralResultSet::Update(const Pattern& p) {
  return UpdateAs<true>(p);
}

bool MostGeneralResultSet::HasProperAncestorOf(const Pattern& p) const {
  return HasProperRelativeOf<true>(p);
}

UpdateOutcome MostSpecificResultSet::Update(const Pattern& p) {
  return UpdateAs<false>(p);
}

bool MostSpecificResultSet::HasProperDescendantOf(const Pattern& p) const {
  return HasProperRelativeOf<false>(p);
}

}  // namespace fairtopk
