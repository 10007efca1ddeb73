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
#ifndef FAIRTOPK_API_CANONICAL_H_
#define FAIRTOPK_API_CANONICAL_H_

#include <string>

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

/// Reads an integer field with a default; rejects non-integral and
/// out-of-range numbers (the cast would otherwise be UB).
Result<int> ReadIntField(const JsonValue& request, const std::string& key,
                         int fallback);

/// Reads a number field with a default. Unlike JsonValue::NumberOr, a
/// PRESENT field of the wrong type is an error — a mistyped parameter
/// must not silently fall back to the default and produce confidently
/// wrong results.
Result<double> ReadDoubleField(const JsonValue& request,
                               const std::string& key, double fallback);

/// Reads a bool field with a default; a present field of another type
/// is an error, as in ReadDoubleField.
Result<bool> ReadBoolField(const JsonValue& request, const std::string& key,
                           bool fallback);

/// Reads a string field with a default; a present field of another
/// type is an error, as in ReadDoubleField.
Result<std::string> ReadStringField(const JsonValue& request,
                                    const std::string& key,
                                    std::string fallback);

/// Decodes [[start_k, value], ...] into a StepFunction.
Result<StepFunction> StepsFromJson(const JsonValue& steps);

/// Decodes the config fields (`k_min`, `k_max`, `tau`) of a request,
/// falling back to `defaults` per field.
Result<DetectionConfig> ConfigFromJson(const JsonValue& request,
                                       const DetectionConfig& defaults);

/// Decodes the bounds fields of a request into a spec of `kind`.
/// Global: an explicit `lower_steps` / `upper_steps` staircase wins
/// over the `lower` / `upper` knobs (fraction resp. constant).
/// Proportional: `alpha` / `beta`. Omitted fields expand from
/// `defaults` over the config's k range. Bound fields of the OTHER
/// family are ignored but still type-checked: a present-but-malformed
/// parameter errors instead of being silently dropped.
Result<BoundsSpec> BoundsFromJson(const JsonValue& request, BoundsKind kind,
                                  const BoundsDefaults& defaults,
                                  const DetectionConfig& config);

/// Writes a step function as [[start_k, value], ...].
void WriteStepsJson(JsonWriter& w, const StepFunction& f);

}  // namespace fairtopk::api

#endif  // FAIRTOPK_API_CANONICAL_H_
