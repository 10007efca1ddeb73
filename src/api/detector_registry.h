// The detector registry: one descriptor per detection algorithm.
//
// The paper's six detectors (global/proportional × ITERTD /
// GLOBALBOUNDS-style incremental / upper-bounds) used to be free
// functions re-dispatched through hand-written enum switches and
// string tables in the session layer, the JSONL protocol, and both
// CLI tools. The registry replaces all of that: a detector registers
// ONE descriptor — stable name, problem family, bounds kind,
// baseline/optimized flag, and a run function over the shared engine
// — and every front-end (AuditSession, JSONL service, CLI tools,
// capabilities listing) resolves it from here. Adding a detector is
// one Register() call; no switch anywhere grows a case.
#ifndef FAIRTOPK_API_DETECTOR_REGISTRY_H_
#define FAIRTOPK_API_DETECTOR_REGISTRY_H_

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "api/bounds_spec.h"
#include "common/json.h"
#include "common/status.h"
#include "detect/detection_result.h"

namespace fairtopk::api {

/// Everything the front-ends need to know about one detector.
struct DetectorDescriptor {
  /// Stable report name ("GlobalIterTD", "PropBounds", ...): the
  /// `detector` field of an AuditRequest and the `algorithm` of JSON
  /// reports.
  std::string name;
  /// Problem family in the wire vocabulary: "global" (Problem 3.1) or
  /// "prop" (Problem 3.2) — the `measure` of the JSONL protocol and
  /// `--measure` of the CLI.
  std::string measure;
  /// Wire algorithm selector within the family: "itertd", "bounds",
  /// or "upper" (`algo` / `--algo`).
  std::string algo;
  /// Which BoundsSpec alternative the run function consumes.
  BoundsKind bounds_kind = BoundsKind::kGlobal;
  /// False for the paper's baselines (fresh search per k), true for
  /// the incremental / engine-optimized algorithms.
  bool optimized = false;
  /// True when the detector reports under-represented groups (top-k
  /// count below a lower bound) — the precondition for the rerank
  /// mitigation, which turns detected groups into representation
  /// floors. False for the upper-bound (over-representation)
  /// detectors, whose results must never be fed to the repair.
  bool lower_violations = true;
  /// One-line description, surfaced by the `capabilities` op.
  std::string summary;

  /// Runs the detector over a prepared input and returns its per-k
  /// result with each group's counts stored
  /// (DetectionResult::CountGroups). Precondition (enforced by the
  /// AuditRequest facade): `bounds` holds the `bounds_kind`
  /// alternative.
  using RunFn = Result<DetectionResult> (*)(const DetectionInput& input,
                                            const BoundsSpec& bounds,
                                            const DetectionConfig& config);
  RunFn run = nullptr;
};

/// Name- and wire-keyed collection of detector descriptors.
/// Registration is not thread-safe; register at startup (the built-in
/// Global() instance is fully populated before first use). Lookups
/// return pointers that stay valid for the registry's lifetime.
class DetectorRegistry {
 public:
  DetectorRegistry() = default;
  DetectorRegistry(const DetectorRegistry&) = delete;
  DetectorRegistry& operator=(const DetectorRegistry&) = delete;

  /// The process-wide registry, pre-seeded with the paper's six
  /// detectors.
  static DetectorRegistry& Global();

  /// Registers a descriptor. Fails on an empty name, a missing run
  /// function, a duplicate name, or a duplicate (measure, algo) pair.
  Status Register(DetectorDescriptor descriptor);

  /// Looks a detector up by stable name; nullptr when unknown.
  const DetectorDescriptor* Find(std::string_view name) const;

  /// Resolves the wire-protocol selector (measure, algo), e.g.
  /// ("prop", "bounds") -> PropBounds.
  Result<const DetectorDescriptor*> Resolve(std::string_view measure,
                                            std::string_view algo) const;

  /// All descriptors in registration order (the canonical listing
  /// order of `capabilities`).
  const std::deque<DetectorDescriptor>& detectors() const {
    return detectors_;
  }

 private:
  /// Deque for pointer stability across registrations.
  std::deque<DetectorDescriptor> detectors_;
  std::unordered_map<std::string, const DetectorDescriptor*> by_name_;
  std::unordered_map<std::string, const DetectorDescriptor*> by_wire_;
};

/// Writes the registry's members of the `capabilities` payload into
/// an open JSON object: the bitset kernels, and every detector with
/// its identity, flags, and parameter schema — the config fields every
/// detector takes and the bound fields of its kind, as declared in
/// api/canonical.h.
void WriteCapabilities(JsonWriter& w, const DetectorRegistry& registry);

}  // namespace fairtopk::api

#endif  // FAIRTOPK_API_DETECTOR_REGISTRY_H_
