// Patterns: value assignments over a set of categorical attributes
// (Definition 2.2 of the paper). A pattern describes the data group of
// all tuples matching every assigned attribute value.
#ifndef FAIRTOPK_PATTERN_PATTERN_H_
#define FAIRTOPK_PATTERN_PATTERN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relation/schema.h"

namespace fairtopk {

/// The ordered set of categorical attributes over which patterns are
/// defined, together with their active-domain sizes. Attribute order is
/// the order used by the search tree (Definition 4.1).
class PatternSpace {
 public:
  /// Builds a pattern space from the categorical attributes of `schema`
  /// named in `attribute_names` (in that order). Fails on unknown or
  /// non-categorical names.
  static Result<PatternSpace> Create(
      const Schema& schema, const std::vector<std::string>& attribute_names);

  /// Builds a pattern space over all categorical attributes of `schema`.
  static Result<PatternSpace> CreateAllCategorical(const Schema& schema);

  /// Number of pattern attributes.
  size_t num_attributes() const { return names_.size(); }

  /// Name of pattern attribute `i`.
  const std::string& name(size_t i) const { return names_[i]; }

  /// Active-domain size of pattern attribute `i`.
  int domain_size(size_t i) const { return domain_sizes_[i]; }

  /// Label of value `code` of pattern attribute `i`.
  const std::string& label(size_t i, int16_t code) const {
    return labels_[i][static_cast<size_t>(code)];
  }

  /// Index of pattern attribute `i` in the originating table schema.
  size_t table_index(size_t i) const { return table_indices_[i]; }

  /// Total number of patterns in the pattern graph (including the empty
  /// pattern): prod_i (domain_i + 1). Saturates at SIZE_MAX.
  size_t PatternGraphSize() const;

 private:
  std::vector<std::string> names_;
  std::vector<int> domain_sizes_;
  std::vector<std::vector<std::string>> labels_;
  std::vector<size_t> table_indices_;
};

/// A pattern: one optional value assignment per pattern attribute.
/// Unassigned attributes hold kUnspecified. The empty pattern (all
/// attributes unspecified) is the root of the pattern graph.
class Pattern {
 public:
  static constexpr int16_t kUnspecified = -1;

  Pattern() = default;

  /// The empty (most general) pattern over `num_attributes` attributes.
  static Pattern Empty(size_t num_attributes) {
    Pattern p;
    p.values_.assign(num_attributes, kUnspecified);
    return p;
  }

  /// Builds a pattern from explicit per-attribute values (kUnspecified
  /// for unassigned slots).
  static Pattern FromValues(std::vector<int16_t> values) {
    Pattern p;
    p.values_ = std::move(values);
    return p;
  }

  size_t num_attributes() const { return values_.size(); }

  /// Value assigned to attribute `i`, or kUnspecified.
  int16_t value(size_t i) const { return values_[i]; }

  /// True iff attribute `i` carries an assignment.
  bool IsSpecified(size_t i) const { return values_[i] != kUnspecified; }

  /// Number of assigned attributes (|Attr(p)|).
  size_t NumSpecified() const;

  /// True iff no attribute is assigned.
  bool IsEmpty() const { return NumSpecified() == 0; }

  /// In-place assignment of attribute `i` (kUnspecified to clear).
  /// Hot-path mutator for the search driver, which walks one Pattern up
  /// and down the DFS stack instead of copying per node; everywhere
  /// else prefer the immutable With/Without.
  void SetValue(size_t i, int16_t code) { values_[i] = code; }

  /// Copy of this pattern with attribute `i` set to `code`.
  Pattern With(size_t i, int16_t code) const;

  /// Copy of this pattern with attribute `i` unassigned.
  Pattern Without(size_t i) const;

  /// Largest index of an assigned attribute (idx(Attr(p)) in Definition
  /// 4.1), or -1 for the empty pattern.
  int MaxSpecifiedIndex() const;

  /// True iff every assignment of this pattern appears in `other`
  /// (non-strict subset: p ⊆ other). The empty pattern subsumes all.
  /// Inline: result-set maintenance calls this millions of times per
  /// search, so it must not cost a cross-TU function call.
  bool Subsumes(const Pattern& other) const {
    const size_t n = values_.size();
    if (n != other.values_.size()) return false;
    const int16_t* a = values_.data();
    const int16_t* b = other.values_.data();
    for (size_t i = 0; i < n; ++i) {
      if (a[i] != kUnspecified && a[i] != b[i]) return false;
    }
    return true;
  }

  /// True iff this pattern is a proper ancestor of `other` in the
  /// pattern graph (p ⊊ other). Single fused pass (no separate
  /// equality comparison).
  bool IsProperAncestorOf(const Pattern& other) const {
    const size_t n = values_.size();
    if (n != other.values_.size()) return false;
    const int16_t* a = values_.data();
    const int16_t* b = other.values_.data();
    bool strict = false;
    for (size_t i = 0; i < n; ++i) {
      if (a[i] == kUnspecified) {
        strict |= b[i] != kUnspecified;
      } else if (a[i] != b[i]) {
        return false;
      }
    }
    return strict;
  }

  /// Renders the pattern as "{Attr=val, ...}" using `space` for names
  /// and labels; the empty pattern renders as "{}".
  std::string ToString(const PatternSpace& space) const;

  friend bool operator==(const Pattern& a, const Pattern& b) {
    return a.values_ == b.values_;
  }

  /// Lexicographic order on value vectors; used only for deterministic
  /// output ordering.
  friend bool operator<(const Pattern& a, const Pattern& b) {
    return a.values_ < b.values_;
  }

  const std::vector<int16_t>& values() const { return values_; }

 private:
  std::vector<int16_t> values_;
};

/// The pattern over `space` that assigns each (attribute, label) pair
/// of `labels`: NotFound for an attribute or a label the space lacks,
/// InvalidArgument for an attribute assigned twice or for no pair at
/// all. Groups named by labels decode through here (the JSONL `group`
/// field, fairtopk_audit --verify).
Result<Pattern> PatternOfLabels(
    const PatternSpace& space,
    const std::vector<std::pair<std::string, std::string>>& labels);

/// Hash functor so patterns can key unordered containers.
struct PatternHash {
  size_t operator()(const Pattern& p) const;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_PATTERN_PATTERN_H_
