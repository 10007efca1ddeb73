#include "api/canonical.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

namespace fairtopk::api {

namespace {

/// Per FieldType, in declaration order: its name in capabilities, what
/// a value of it is for "must be ..." messages, and its JSON type.
struct TypeInfo {
  const char* name;
  const char* noun;
  JsonValue::Type json;
};
constexpr TypeInfo kTypes[] = {
    {"any", "any value", JsonValue::Type::kNull},
    {"bool", "true or false", JsonValue::Type::kBool},
    {"int", "an integer", JsonValue::Type::kNumber},
    {"number", "a number", JsonValue::Type::kNumber},
    {"string", "a string", JsonValue::Type::kString},
    {"[string, ...]", "an array of strings", JsonValue::Type::kArray},
    {"[[k, value], ...]", "an array of [k, value] pairs",
     JsonValue::Type::kArray},
    {"array", "an array", JsonValue::Type::kArray},
    {"object", "an object", JsonValue::Type::kObject},
};

/// An integral number within int's range.
bool IsInt(const JsonValue& v) {
  return v.is_number() && v.number_value() == std::floor(v.number_value()) &&
         v.number_value() >= std::numeric_limits<int>::min() &&
         v.number_value() <= std::numeric_limits<int>::max();
}

const TypeInfo& Info(FieldType type) {
  return kTypes[static_cast<size_t>(type)];
}

bool HasType(const JsonValue& v, FieldType type) {
  if (type == FieldType::kAny) return true;
  if (type == FieldType::kInt) return IsInt(v);
  if (v.type() != Info(type).json) return false;
  return type != FieldType::kStrings ||
         std::all_of(v.array_items().begin(), v.array_items().end(),
                     [](const JsonValue& item) { return item.is_string(); });
}

}  // namespace

std::string CanonicalDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string CanonicalSteps(const StepFunction& f) {
  std::string out;
  for (const auto& [start, value] : f.steps()) {
    out += std::to_string(start);
    out += ':';
    out += CanonicalDouble(value);
    out += ',';
  }
  return out;
}

std::string CanonicalBounds(const BoundsSpec& bounds) {
  if (const auto* global = std::get_if<GlobalBoundSpec>(&bounds)) {
    std::string key = "L=";
    key += CanonicalSteps(global->lower);
    key += "|U=";
    key += CanonicalSteps(global->upper);
    return key;
  }
  const auto& prop = std::get<PropBoundSpec>(bounds);
  std::string key = "alpha=";
  key += CanonicalDouble(prop.alpha);
  key += "|beta=";
  key += CanonicalDouble(prop.beta);
  return key;
}

std::string CanonicalConfigKey(const DetectionConfig& config) {
  std::string key = "k=";
  key += std::to_string(config.k_min);
  key += "..";
  key += std::to_string(config.k_max);
  key += "|tau=";
  key += std::to_string(config.size_threshold);
  return key;
}

Result<BoundsSpec> BoundsFromDefaults(BoundsKind kind,
                                      const BoundsDefaults& defaults,
                                      const DetectionConfig& config) {
  if (kind == BoundsKind::kProportional) {
    PropBoundSpec prop;
    prop.alpha = defaults.alpha;
    return BoundsSpec{prop};
  }
  FAIRTOPK_ASSIGN_OR_RETURN(
      GlobalBoundSpec global,
      GlobalBoundSpec::FractionStaircase(defaults.lower_fraction,
                                         config.k_min, config.k_max));
  return BoundsSpec{std::move(global)};
}

namespace {

/// Reads an integer field with a default; a present field that is not
/// an integral number within int's range is an error.
Result<int> ReadIntField(const JsonValue& request, const std::string& key,
                         int fallback) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return fallback;
  // The range check keeps the cast below defined.
  if (!IsInt(*v)) {
    return Status::InvalidArgument("'" + key + "' must be an integer");
  }
  return static_cast<int>(v->number_value());
}

/// Reads a number field with a default. Unlike JsonValue::NumberOr, a
/// PRESENT field of the wrong type is an error — a mistyped parameter
/// must not silently fall back to the default and produce confidently
/// wrong results.
Result<double> ReadDoubleField(const JsonValue& request,
                               const std::string& key, double fallback) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument("'" + key + "' must be a number");
  }
  return v->number_value();
}

/// Decodes [[start_k, value], ...] into a StepFunction.
Result<StepFunction> StepsFromJson(const JsonValue& steps) {
  std::vector<std::pair<int, double>> pairs;
  if (!steps.is_array()) {
    return Status::InvalidArgument("steps must be an array of [k, value]");
  }
  for (const JsonValue& item : steps.array_items()) {
    if (!item.is_array() || item.array_items().size() != 2 ||
        !item.array_items()[0].is_number() ||
        !item.array_items()[1].is_number()) {
      return Status::InvalidArgument("steps must be [k, value] pairs");
    }
    const double start = item.array_items()[0].number_value();
    if (start != std::floor(start) ||
        start < static_cast<double>(std::numeric_limits<int>::min()) ||
        start > static_cast<double>(std::numeric_limits<int>::max())) {
      return Status::InvalidArgument("step starts must be integers");
    }
    pairs.emplace_back(static_cast<int>(start),
                       item.array_items()[1].number_value());
  }
  return StepFunction::FromSteps(std::move(pairs));
}

}  // namespace

Result<DetectionConfig> ConfigFromJson(const JsonValue& request,
                                       const DetectionConfig& defaults) {
  DetectionConfig config = defaults;
  FAIRTOPK_ASSIGN_OR_RETURN(config.k_min,
                            ReadIntField(request, "k_min", defaults.k_min));
  FAIRTOPK_ASSIGN_OR_RETURN(config.k_max,
                            ReadIntField(request, "k_max", defaults.k_max));
  FAIRTOPK_ASSIGN_OR_RETURN(
      config.size_threshold,
      ReadIntField(request, "tau", defaults.size_threshold));
  return config;
}

Result<BoundsSpec> BoundsFromJson(const JsonValue& request, BoundsKind kind,
                                  const BoundsDefaults& defaults,
                                  const DetectionConfig& config) {
  if (kind == BoundsKind::kProportional) {
    PropBoundSpec prop;
    FAIRTOPK_ASSIGN_OR_RETURN(
        prop.alpha, ReadDoubleField(request, "alpha", defaults.alpha));
    FAIRTOPK_ASSIGN_OR_RETURN(
        prop.beta,
        ReadDoubleField(request, "beta",
                        std::numeric_limits<double>::infinity()));
    return BoundsSpec{prop};
  }
  GlobalBoundSpec global;
  // An explicit staircase wins over the fraction knob.
  if (const JsonValue* steps = request.Find("lower_steps")) {
    FAIRTOPK_ASSIGN_OR_RETURN(global.lower, StepsFromJson(*steps));
  } else {
    FAIRTOPK_ASSIGN_OR_RETURN(
        const double lower_fraction,
        ReadDoubleField(request, "lower", defaults.lower_fraction));
    FAIRTOPK_ASSIGN_OR_RETURN(
        GlobalBoundSpec staircase,
        GlobalBoundSpec::FractionStaircase(lower_fraction, config.k_min,
                                           config.k_max));
    global.lower = staircase.lower;
  }
  if (const JsonValue* steps = request.Find("upper_steps")) {
    FAIRTOPK_ASSIGN_OR_RETURN(global.upper, StepsFromJson(*steps));
  } else {
    FAIRTOPK_ASSIGN_OR_RETURN(
        const double upper,
        ReadDoubleField(request, "upper",
                        std::numeric_limits<double>::infinity()));
    global.upper = StepFunction::Constant(upper);
  }
  return BoundsSpec{std::move(global)};
}

void WriteStepsJson(JsonWriter& w, const StepFunction& f) {
  w.BeginArray();
  for (const auto& [start, value] : f.steps()) {
    w.BeginArray().Int(start).Double(value).EndArray();
  }
  w.EndArray();
}

std::span<const FieldSpec> BoundFields(BoundsKind kind) {
  if (kind == BoundsKind::kGlobal) return kGlobalBoundFields;
  return kPropBoundFields;
}

std::string_view FieldTypeName(FieldType type) {
  return Info(type).name;
}

std::string FieldNames(std::span<const FieldSpec> fields) {
  std::string names;
  for (const FieldSpec& field : fields) {
    if (!names.empty()) names += ", ";
    names += field.name;
  }
  return names;
}

const FieldSpec* FindField(std::span<const FieldSpec> fields,
                           std::string_view name) {
  for (const FieldSpec& field : fields) {
    if (field.name == name) return &field;
  }
  return nullptr;
}

Status CheckFields(const JsonValue& object, std::span<const FieldSpec> fields,
                   std::string_view owner) {
  const auto refuse = [owner](std::string_view field, const std::string& why) {
    return Status::InvalidArgument("'" + std::string(owner) + "' field '" +
                                   std::string(field) + "' " + why);
  };
  for (const auto& [name, value] : object.object_members()) {
    const FieldSpec* field = FindField(fields, name);
    if (field == nullptr) {
      return Status::InvalidArgument("'" + std::string(owner) +
                                     "' takes no field '" + name +
                                     "' (fields: " + FieldNames(fields) + ")");
    }
    if (!HasType(value, field->type)) {
      return refuse(name, std::string("must be ") + Info(field->type).noun);
    }
    if (field->type == FieldType::kInt && value.number_value() < field->min) {
      return refuse(name, "must be at least " + std::to_string(field->min));
    }
    const bool empty = (value.is_string() && value.string_value().empty()) ||
                       (value.is_array() && value.array_items().empty());
    if (field->min > 0 && empty) return refuse(name, "must not be empty");
    const std::vector<JsonValue>* items =
        field->items.empty() ? nullptr : &value.array_items();
    for (size_t i = 0; items != nullptr && i < items->size(); ++i) {
      if (!(*items)[i].is_object()) return refuse(name, "must hold objects");
      FAIRTOPK_RETURN_IF_ERROR(CheckFields(
          (*items)[i], field->items,
          std::string(owner) + " " + name + "[" + std::to_string(i) + "]"));
    }
  }
  for (const FieldSpec& field : fields) {
    if (field.required && object.Find(std::string(field.name)) == nullptr) {
      return Status::InvalidArgument(
          "'" + std::string(owner) + "' requires field '" +
          std::string(field.name) + "' (" + Info(field.type).noun + ")");
    }
  }
  return Status::OK();
}

void WriteFieldsJson(JsonWriter& w, std::span<const FieldSpec> fields) {
  w.BeginObject();
  for (const FieldSpec& field : fields) {
    w.Key(std::string(field.name)).BeginObject();
    w.Key("type").String(std::string(FieldTypeName(field.type)));
    w.Key("description").String(std::string(field.description));
    if (field.required) w.Key("required").Bool(true);
    if (field.min != std::numeric_limits<int>::min()) {
      w.Key("min").Int(field.min);
    }
    if (!field.items.empty()) {
      w.Key("items");
      WriteFieldsJson(w, field.items);
    }
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace fairtopk::api
