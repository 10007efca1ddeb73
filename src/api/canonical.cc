#include "api/canonical.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

namespace fairtopk::api {

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

Result<int> ReadIntField(const JsonValue& request, const std::string& key,
                         int fallback) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number() ||
      v->number_value() != std::floor(v->number_value()) ||
      v->number_value() < static_cast<double>(
                              std::numeric_limits<int>::min()) ||
      v->number_value() > static_cast<double>(
                              std::numeric_limits<int>::max())) {
    return Status::InvalidArgument("'" + key + "' must be an integer");
  }
  return static_cast<int>(v->number_value());
}

Result<double> ReadDoubleField(const JsonValue& request,
                               const std::string& key, double fallback) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument("'" + key + "' must be a number");
  }
  return v->number_value();
}

Result<bool> ReadBoolField(const JsonValue& request, const std::string& key,
                           bool fallback) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument("'" + key + "' must be true or false");
  }
  return v->bool_value();
}

Result<std::string> ReadStringField(const JsonValue& request,
                                    const std::string& key,
                                    std::string fallback) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument("'" + key + "' must be a string");
  }
  return v->string_value();
}

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

namespace {

/// Rejects present-but-malformed bound fields of the family the
/// detector does NOT consume. The values are ignored either way, but a
/// mistyped parameter must still fail loudly — a client that sends
/// `"alpha":"0.9"` to a global detector made a mistake worth
/// surfacing, not silently dropping.
Status CheckUnusedBoundFields(const JsonValue& request, BoundsKind kind) {
  if (kind == BoundsKind::kProportional) {
    for (const char* key : {"lower", "upper"}) {
      FAIRTOPK_RETURN_IF_ERROR(ReadDoubleField(request, key, 0.0).status());
    }
    for (const char* key : {"lower_steps", "upper_steps"}) {
      if (const JsonValue* steps = request.Find(key)) {
        FAIRTOPK_RETURN_IF_ERROR(StepsFromJson(*steps).status());
      }
    }
    return Status::OK();
  }
  for (const char* key : {"alpha", "beta"}) {
    FAIRTOPK_RETURN_IF_ERROR(ReadDoubleField(request, key, 0.0).status());
  }
  return Status::OK();
}

}  // namespace

Result<BoundsSpec> BoundsFromJson(const JsonValue& request, BoundsKind kind,
                                  const BoundsDefaults& defaults,
                                  const DetectionConfig& config) {
  FAIRTOPK_RETURN_IF_ERROR(CheckUnusedBoundFields(request, kind));
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

}  // namespace fairtopk::api
