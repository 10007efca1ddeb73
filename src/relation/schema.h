// Relational schema: attribute names, types, and categorical domains.
//
// Patterns (group descriptions) are defined over categorical attributes
// only, per Section II-A of the paper; continuous attributes must be
// bucketized first (relation/bucketize.h) or used solely for scoring.
#ifndef FAIRTOPK_RELATION_SCHEMA_H_
#define FAIRTOPK_RELATION_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace fairtopk {

/// Storage/type class of an attribute.
enum class AttributeType {
  kCategorical,  ///< dictionary-encoded; usable in patterns
  kNumeric,      ///< double-valued; usable for scoring / explanations
};

/// Metadata for a single attribute.
///
/// For categorical attributes, `labels` is the active domain: the code
/// stored in a column is an index into `labels`. For numeric attributes
/// `labels` is empty.
struct AttributeSchema {
  std::string name;
  AttributeType type = AttributeType::kCategorical;
  std::vector<std::string> labels;

  /// Size of the active domain; 0 for numeric attributes.
  size_t domain_size() const { return labels.size(); }
};

/// Ordered collection of attribute schemas for a table.
class Schema {
 public:
  /// The most labels a categorical domain may hold: codes are int16_t.
  static constexpr size_t kMaxDomainSize = 32767;

  Schema() = default;

  /// Appends a categorical attribute with the given active domain.
  /// Fails if the name is duplicated or the domain is empty.
  Status AddCategorical(std::string name, std::vector<std::string> labels);

  /// Appends a numeric attribute. Fails on duplicate name.
  Status AddNumeric(std::string name);

  /// Number of attributes.
  size_t size() const { return attributes_.size(); }

  /// Schema of the attribute at `index`. Requires index < size().
  const AttributeSchema& attribute(size_t index) const {
    return attributes_[index];
  }

  /// All attribute schemas in declaration order.
  const std::vector<AttributeSchema>& attributes() const {
    return attributes_;
  }

  /// Index of the attribute named `name`, if present.
  std::optional<size_t> IndexOf(const std::string& name) const;

  /// Indices of all categorical attributes, in declaration order.
  std::vector<size_t> CategoricalIndices() const;

  /// Dictionary code of `label` within categorical attribute `index`,
  /// if the label is part of the active domain.
  std::optional<int16_t> CodeOf(size_t index, const std::string& label) const;

 private:
  std::vector<AttributeSchema> attributes_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_RELATION_SCHEMA_H_
