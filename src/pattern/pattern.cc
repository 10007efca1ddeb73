#include "pattern/pattern.h"

#include <limits>

namespace fairtopk {

Result<PatternSpace> PatternSpace::Create(
    const Schema& schema, const std::vector<std::string>& attribute_names) {
  if (attribute_names.empty()) {
    return Status::InvalidArgument(
        "pattern space needs at least one attribute");
  }
  PatternSpace space;
  for (const auto& name : attribute_names) {
    auto idx = schema.IndexOf(name);
    if (!idx.has_value()) {
      return Status::NotFound("attribute '" + name + "' not in schema");
    }
    const auto& attr = schema.attribute(*idx);
    if (attr.type != AttributeType::kCategorical) {
      return Status::InvalidArgument(
          "attribute '" + name +
          "' is numeric; bucketize it before using it in patterns");
    }
    space.names_.push_back(attr.name);
    space.domain_sizes_.push_back(static_cast<int>(attr.domain_size()));
    space.labels_.push_back(attr.labels);
    space.table_indices_.push_back(*idx);
  }
  return space;
}

Result<PatternSpace> PatternSpace::CreateAllCategorical(
    const Schema& schema) {
  std::vector<std::string> names;
  for (size_t idx : schema.CategoricalIndices()) {
    names.push_back(schema.attribute(idx).name);
  }
  if (names.empty()) {
    return Status::InvalidArgument("schema has no categorical attributes");
  }
  return Create(schema, names);
}

size_t PatternSpace::PatternGraphSize() const {
  size_t total = 1;
  for (int d : domain_sizes_) {
    size_t factor = static_cast<size_t>(d) + 1;
    if (total > std::numeric_limits<size_t>::max() / factor) {
      return std::numeric_limits<size_t>::max();
    }
    total *= factor;
  }
  return total;
}

Result<Pattern> PatternOfLabels(
    const PatternSpace& space,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  Pattern pattern = Pattern::Empty(space.num_attributes());
  for (const auto& [name, label] : labels) {
    size_t a = 0;
    while (a < space.num_attributes() && space.name(a) != name) ++a;
    if (a == space.num_attributes()) {
      return Status::NotFound("attribute '" + name +
                              "' not in the pattern space");
    }
    if (pattern.value(a) != Pattern::kUnspecified) {
      return Status::InvalidArgument("attribute '" + name +
                                     "' assigned twice in the group");
    }
    int16_t v = 0;
    while (v < space.domain_size(a) && space.label(a, v) != label) ++v;
    if (v == space.domain_size(a)) {
      return Status::NotFound("value '" + label + "' not in the domain of '" +
                              name + "'");
    }
    pattern = pattern.With(a, v);
  }
  if (pattern.IsEmpty()) {
    return Status::InvalidArgument("group assigns no attributes");
  }
  return pattern;
}

size_t Pattern::NumSpecified() const {
  size_t n = 0;
  for (int16_t v : values_) {
    if (v != kUnspecified) ++n;
  }
  return n;
}

Pattern Pattern::With(size_t i, int16_t code) const {
  Pattern out = *this;
  out.values_[i] = code;
  return out;
}

Pattern Pattern::Without(size_t i) const {
  Pattern out = *this;
  out.values_[i] = kUnspecified;
  return out;
}

int Pattern::MaxSpecifiedIndex() const {
  for (size_t i = values_.size(); i > 0; --i) {
    if (values_[i - 1] != kUnspecified) return static_cast<int>(i - 1);
  }
  return -1;
}

std::string Pattern::ToString(const PatternSpace& space) const {
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] == kUnspecified) continue;
    if (!first) out += ", ";
    first = false;
    out += space.name(i);
    out += "=";
    out += space.label(i, values_[i]);
  }
  out += "}";
  return out;
}

size_t PatternHash::operator()(const Pattern& p) const {
  // FNV-1a over the value vector; values are small so bytes of the
  // int16 representation suffice.
  size_t hash = 1469598103934665603ULL;
  for (int16_t v : p.values()) {
    hash ^= static_cast<size_t>(static_cast<uint16_t>(v));
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace fairtopk
