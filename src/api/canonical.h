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
//     `lower_steps`, `alpha`, ...).
//   * Fraction-knob construction (BoundsFromDefaults) — the `--lower`
//     / `--alpha` semantics shared by fairtopk_audit, fairtopk_serve,
//     and requests that omit explicit bounds.
//   * Request field declarations (FieldSpec, CheckFields) — the
//     detect-query fields are declared here, once; every JSONL op's
//     fields are declared in one table built from them
//     (service/jsonl_service.cc).
#ifndef FAIRTOPK_API_CANONICAL_H_
#define FAIRTOPK_API_CANONICAL_H_

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <string>
#include <string_view>

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

/// Expands the fraction knobs into a full bounds spec of `kind` over
/// the config's k range: the global staircase from `lower_fraction`
/// with an unbounded upper, or PropBoundSpec{alpha, +inf}.
Result<BoundsSpec> BoundsFromDefaults(BoundsKind kind,
                                      const BoundsDefaults& defaults,
                                      const DetectionConfig& config);

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
  /// For an array of objects: the fields each item declares.
  std::span<const FieldSpec> items = {};
};

/// The config fields ConfigFromJson reads; every detector takes them.
inline constexpr FieldSpec kConfigFields[] = {
    {"k_min", FieldType::kInt, "first rank of the audited range"},
    {"k_max", FieldType::kInt, "last rank of the audited range"},
    {"tau", FieldType::kInt, "minimum group size in D"},
};

/// The bound fields BoundsFromJson reads for a global detector.
inline constexpr FieldSpec kGlobalBoundFields[] = {
    {"lower", FieldType::kNumber,
     "lower staircase as a fraction of k (default from the service)"},
    {"lower_steps", FieldType::kSteps,
     "explicit lower staircase, wins over 'lower'"},
    {"upper", FieldType::kNumber, "constant upper bound (default +inf)"},
    {"upper_steps", FieldType::kSteps,
     "explicit upper staircase, wins over 'upper'"},
};

/// The bound fields BoundsFromJson reads for a proportional detector.
inline constexpr FieldSpec kPropBoundFields[] = {
    {"alpha", FieldType::kNumber,
     "proportional lower multiplier (default from the service)"},
    {"beta", FieldType::kNumber,
     "proportional upper multiplier (default +inf)"},
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

/// The names of `fields`, comma-separated, for messages.
std::string FieldNames(std::span<const FieldSpec> fields);

/// The declared field named `name`, or null.
const FieldSpec* FindField(std::span<const FieldSpec> fields,
                           std::string_view name);

/// Checks `object`'s members against the `fields` that `owner` (an op
/// name) declares, in one pass over the members: each must be
/// declared, of its type and at least its `min`; each array of objects
/// is checked against its `items`; each required field must be
/// present. The InvalidArgument names the field and `owner`; for an
/// undeclared field it lists the declared ones. Allocates only to
/// build an error.
Status CheckFields(const JsonValue& object, std::span<const FieldSpec> fields,
                   std::string_view owner);

/// Writes `fields` as an object keyed by name:
/// {"type": ..., "description": ...} plus "required", "min" and
/// "items" where declared.
void WriteFieldsJson(JsonWriter& w, std::span<const FieldSpec> fields);

}  // namespace fairtopk::api

#endif  // FAIRTOPK_API_CANONICAL_H_
