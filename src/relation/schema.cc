#include "relation/schema.h"

namespace fairtopk {

Status Schema::AddCategorical(std::string name,
                              std::vector<std::string> labels) {
  if (IndexOf(name).has_value()) {
    return Status::InvalidArgument("duplicate attribute name: " + name);
  }
  if (labels.empty()) {
    return Status::InvalidArgument("categorical attribute '" + name +
                                   "' must have a non-empty domain");
  }
  if (labels.size() > kMaxDomainSize) {
    return Status::InvalidArgument("categorical domain of '" + name +
                                   "' exceeds int16 code space");
  }
  AttributeSchema attr;
  attr.name = std::move(name);
  attr.type = AttributeType::kCategorical;
  attr.labels = std::move(labels);
  attributes_.push_back(std::move(attr));
  return Status::OK();
}

Status Schema::AddNumeric(std::string name) {
  if (IndexOf(name).has_value()) {
    return Status::InvalidArgument("duplicate attribute name: " + name);
  }
  AttributeSchema attr;
  attr.name = std::move(name);
  attr.type = AttributeType::kNumeric;
  attributes_.push_back(std::move(attr));
  return Status::OK();
}

std::optional<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return std::nullopt;
}

std::vector<size_t> Schema::CategoricalIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].type == AttributeType::kCategorical) {
      out.push_back(i);
    }
  }
  return out;
}

std::optional<int16_t> Schema::CodeOf(size_t index,
                                      const std::string& label) const {
  const auto& labels = attributes_[index].labels;
  for (size_t c = 0; c < labels.size(); ++c) {
    if (labels[c] == label) return static_cast<int16_t>(c);
  }
  return std::nullopt;
}

}  // namespace fairtopk
