// The one canonical encoding of detection parameters.
//
// Before this module, three independent encodings of "a detector's
// parameterization" lived in the tree: the session cache key, the
// JSONL wire format, and the CLI flag handling — every new knob had to
// be added to all of them in lockstep (and a divergence silently
// produced wrong cache hits or mis-parsed requests). This header owns
// all of it:
//
//   * Canonical text form (CanonicalConfigKey / CanonicalBounds) —
//     injective over (config, bounds) modulo num_threads, which
//     ValidateConfig holds at 1; the basis of AuditRequest::CacheKey.
//   * JSON codec (ConfigFromJson / BoundsFromJson / WriteStepsJson) —
//     the JSONL protocol's field vocabulary (`k_min`, `tau`, `lower`,
//     `lower_steps`, `alpha`, ...); a request that omits its bounds
//     gets the `lower` / `alpha` fraction knobs of BoundsDefaults.
//   * Field declarations (FieldSpec, CheckFields, ApplyFields) — the
//     detect-query fields are declared here, once; every JSONL op's
//     fields are declared in one table built from them
//     (service/jsonl_service.cc).
//   * Command-line flags (ReadFlags, FlagsHelp) — a tool's flags are
//     declared fields too: `--k-min 5` is the field `k_min`, read,
//     checked and documented by the same declarations.
#ifndef FAIRTOPK_API_CANONICAL_H_
#define FAIRTOPK_API_CANONICAL_H_

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/bounds_spec.h"
#include "common/json.h"
#include "common/status.h"
#include "detect/detection_result.h"

namespace fairtopk::api {

/// The two fraction knobs that expand into full bound specs when a
/// request (or CLI invocation) does not spell out explicit bounds.
struct BoundsDefaults {
  /// Global lower staircase fraction: L_k = max(1, fraction * k) with
  /// steps every 10 ranks (the `--lower` semantics).
  double lower_fraction = 0.5;
  /// Proportional lower multiplier (the `--alpha` semantics).
  double alpha = 0.8;
};

/// Round-trippable double rendering (%.17g) used by every canonical
/// encoding.
std::string CanonicalDouble(double value);

/// Canonical text form of a step function: "start:value," per step,
/// ascending by start.
std::string CanonicalSteps(const StepFunction& f);

/// Canonical text form of a bounds spec. Injective across kinds:
/// global specs render as "L=...|U=...", proportional ones as
/// "alpha=...|beta=...".
std::string CanonicalBounds(const BoundsSpec& bounds);

/// Canonical text form of a detection config: "k=<min>..<max>|tau=<t>".
/// num_threads is excluded: DetectionInput::ValidateConfig accepts only
/// 1, so every config that reaches a search has the same value.
std::string CanonicalConfigKey(const DetectionConfig& config);

/// Decodes the config fields (`k_min`, `k_max`, `tau`) of a request,
/// falling back to `defaults` per field.
Result<DetectionConfig> ConfigFromJson(const JsonValue& request,
                                       const DetectionConfig& defaults);

/// Decodes the bounds fields of a request into a spec of `kind`.
/// Global: an explicit `lower_steps` / `upper_steps` staircase wins
/// over the `lower` / `upper` knobs (fraction resp. constant).
/// Proportional: `alpha` / `beta`. Omitted fields expand from
/// `defaults` over the config's k range. Bound fields of the other
/// family are not read; the JSONL service refuses them before this
/// runs.
Result<BoundsSpec> BoundsFromJson(const JsonValue& request, BoundsKind kind,
                                  const BoundsDefaults& defaults,
                                  const DetectionConfig& config);

/// Writes a step function as [[start_k, value], ...].
void WriteStepsJson(JsonWriter& w, const StepFunction& f);

/// The JSON type a declared request field takes: any value, true or
/// false, an integral number within int's range, any number, a
/// string, an array of strings, a staircase [[k, value], ...] (whose
/// pairs StepsFromJson checks), an array or an object (whose items or
/// members the op's handler checks).
enum class FieldType {
  kAny, kBool, kInt, kNumber, kString, kStrings, kSteps, kArray, kObject
};

/// One declared field of a JSONL request object. Every member of a
/// request must be a declared field of its op, of its declared type;
/// CheckFields enforces that before any handler runs.
struct FieldSpec {
  std::string_view name = {};
  FieldType type = FieldType::kAny;
  /// One line for capabilities.
  std::string_view description = {};
  /// Stores a checked value into the op's decode target; null for the
  /// fields that a handler or this codec reads itself.
  void (*set)(void* target, const JsonValue& value) = nullptr;
  bool required = false;
  /// The least value of an int field. For a string or array field, a
  /// positive `min` means it must not be empty.
  int min = std::numeric_limits<int>::min();
  /// The greatest value of an int field.
  int max = std::numeric_limits<int>::max();
  /// For an array of objects: the fields each item declares.
  std::span<const FieldSpec> items = {};
};

/// The config fields ConfigFromJson reads; every detector takes them.
inline constexpr FieldSpec kConfigFields[] = {
    {"k_min", FieldType::kInt, "first rank of the audited range"},
    {"k_max", FieldType::kInt, "last rank of the audited range"},
    {"tau", FieldType::kInt, "minimum group size in D"},
};

/// The fields that select a registered detector (SelectDetector).
inline constexpr FieldSpec kSelectorFields[] = {
    {"detector", FieldType::kString,
     "detector name; wins over measure and algo"},
    {"measure", FieldType::kString, "global or prop (default prop)"},
    {"algo", FieldType::kString, "itertd, bounds or upper (default bounds)"},
};

/// The upper bound of each family: U_k as a constant (Problem 3.1) and
/// the proportional upper multiplier beta (Problem 3.2).
inline constexpr FieldSpec kUpperField = {
    "upper", FieldType::kNumber, "constant upper bound (default +inf)"};
inline constexpr FieldSpec kBetaField = {
    "beta", FieldType::kNumber,
    "proportional upper multiplier (default +inf)"};

/// The bound fields BoundsFromJson reads for a global detector.
inline constexpr FieldSpec kGlobalBoundFields[] = {
    {"lower", FieldType::kNumber,
     "lower staircase as a fraction of k (default from the service)"},
    {"lower_steps", FieldType::kSteps,
     "explicit lower staircase, wins over 'lower'"},
    kUpperField,
    {"upper_steps", FieldType::kSteps,
     "explicit upper staircase, wins over 'upper'"},
};

/// The bound fields BoundsFromJson reads for a proportional detector.
inline constexpr FieldSpec kPropBoundFields[] = {
    {"alpha", FieldType::kNumber,
     "proportional lower multiplier (default from the service)"},
    kBetaField,
};

/// The field list of `Groups` (arrays of FieldSpec) and then of `own`,
/// joined at compile time: how an op's list is built from shared
/// groups.
template <const auto&... Groups, typename... Own>
constexpr auto JoinFields(Own... own) {
  std::array<FieldSpec, (std::size(Groups) + ... + sizeof...(Own))> fields{};
  auto at = fields.begin();
  ((at = std::copy(std::begin(Groups), std::end(Groups), at)), ...);
  ((*at++ = own), ...);
  return fields;
}

/// The bound fields of `kind`.
std::span<const FieldSpec> BoundFields(BoundsKind kind);

/// The type as capabilities names it: "int", "number",
/// "[[k, value], ...]", ...
std::string_view FieldTypeName(FieldType type);

/// The names of `fields`, comma-separated, for messages; spelled as
/// flags (FlagName) with `as_flags`.
std::string FieldNames(std::span<const FieldSpec> fields,
                       bool as_flags = false);

/// The declared field named `name`, or null.
const FieldSpec* FindField(std::span<const FieldSpec> fields,
                           std::string_view name);

/// Checks `object`'s members against the `fields` that `owner` (an op
/// or tool name) declares, in one pass over the members: each must be
/// declared, of its type and within its `min` and `max`; each array of
/// objects is checked against its `items`; each required field must be
/// present. The InvalidArgument names the field and `owner`; for an
/// undeclared field it lists the declared ones. Allocates only to
/// build an error.
Status CheckFields(const JsonValue& object, std::span<const FieldSpec> fields,
                   std::string_view owner);

/// Stores each member of `object` (checked by CheckFields) that one of
/// `fields` declares with a setter into `target`, through that setter.
/// Members the list does not declare are skipped.
void ApplyFields(const JsonValue& object, std::span<const FieldSpec> fields,
                 void* target);

/// The members of `object` that `fields` declares.
JsonValue SelectFields(const JsonValue& object,
                       std::span<const FieldSpec> fields);

/// Writes `fields` as an object keyed by name:
/// {"type": ..., "description": ...} plus "required", "min", "max" and
/// "items" where declared.
void WriteFieldsJson(JsonWriter& w, std::span<const FieldSpec> fields);

/// The flag of a field: `--` and its name with `_` spelled `-`
/// (`k_min` -> `--k-min`).
std::string FlagName(std::string_view field);

/// Reads command-line arguments as the declared `fields` and returns
/// them as a request object, checked by CheckFields under `owner`.
/// `--a-b` sets the field `a_b`: a bool field takes no value and reads
/// true; any other takes the next argument, typed by the field: an int
/// through ParseInt and within the field's `min` and `max`, a number
/// through ParseDouble (finite only), an array of strings split on
/// commas (an empty value is no strings), and any other as a string
/// (which CheckFields refuses for a field that is none, so a tool
/// declares no such flag). A flag given twice keeps its last value. An
/// undeclared flag (the declared ones are listed), a missing value or
/// one its field does not take is an InvalidArgument naming the flag
/// ("--k-max expects an integer in [1, 1073741824], got '1x'").
Result<JsonValue> ReadFlags(const std::vector<std::string>& args,
                            std::span<const FieldSpec> fields,
                            std::string_view owner);

/// `fields` as --help lists them: one line per flag, its value's form,
/// its description and its range.
std::string FlagsHelp(std::span<const FieldSpec> fields);

namespace internal {

template <typename Class, typename Member>
Class ClassOf(Member Class::*);

template <typename T>
void Assign(const JsonValue& v, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = v.string_value();
  } else if constexpr (std::is_same_v<T, bool>) {
    out = v.bool_value();
  } else if constexpr (std::is_arithmetic_v<T>) {
    out = static_cast<T>(v.number_value());
  } else {  // std::vector<std::string>
    out.clear();
    for (const JsonValue& item : v.array_items()) {
      out.push_back(item.string_value());
    }
  }
}

}  // namespace internal

/// A FieldSpec::set: stores a checked value into the member that
/// `First` names in the target (a member of that member with more
/// pointers), by the member's type.
template <auto First, auto... Rest>
void Set(void* target, const JsonValue& value) {
  using Target = decltype(internal::ClassOf(First));
  internal::Assign(
      value, (((*static_cast<Target*>(target)).*First) .* ... .* Rest));
}

}  // namespace fairtopk::api

#endif  // FAIRTOPK_API_CANONICAL_H_
