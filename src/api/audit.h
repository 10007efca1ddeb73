// The public audit API: typed requests and responses over the
// detector registry.
//
// An AuditRequest names a registered detector and carries exactly the
// parameterization it consumes (DetectionConfig + the matching
// BoundsSpec alternative); an AuditResponse pairs the detection result
// with the descriptor that produced it. RunAudit is the one-shot
// facade over a prepared DetectionInput; the session layer adds
// caching and incremental maintenance on top
// (service/audit_session.h).
//
//   api::AuditRequest request;
//   request.detector = "GlobalBounds";
//   request.config = {/*k_min=*/10, /*k_max=*/49, /*tau=*/50};
//   request.bounds = GlobalBoundSpec{...};
//   FAIRTOPK_ASSIGN_OR_RETURN(DetectionResult result,
//                             api::RunAudit(input, request));
#ifndef FAIRTOPK_API_AUDIT_H_
#define FAIRTOPK_API_AUDIT_H_

#include <memory>
#include <string>

#include "api/bounds_spec.h"
#include "api/canonical.h"
#include "api/detector_registry.h"
#include "common/json.h"
#include "common/metrics/trace.h"
#include "common/status.h"
#include "detect/detection_result.h"

namespace fairtopk::api {

/// One detection query: a registered detector plus its full
/// parameterization. The bounds variant must hold the alternative the
/// detector's descriptor declares (checked on resolution).
struct AuditRequest {
  /// Stable registry name; see DetectorRegistry / the capabilities op.
  std::string detector = "PropBounds";
  DetectionConfig config;
  BoundsSpec bounds = PropBoundSpec{};

  /// Optional per-request trace hook (not owned; may be null — the
  /// zero-cost default). When set, RunAudit reports a "search" span
  /// covering the detector run (its searches and the result's
  /// CountGroups), and the session layer adds lock-acquire spans plus
  /// the result's DetectionStats counters.
  /// Excluded from CacheKey: tracing never changes results, so traced
  /// and untraced queries share cache entries.
  metrics::TraceSink* trace = nullptr;

  /// Canonical cache key: detector name plus the canonical config and
  /// bounds encodings (api/canonical.h). Excludes num_threads, which
  /// DetectionInput::ValidateConfig holds at 1, and `trace`
  /// (observability, not parameterization). Distinct parameterizations
  /// yield distinct keys (property-tested collision guard).
  std::string CacheKey() const;
};

/// The outcome of one served request.
struct AuditResponse {
  /// The registry entry that ran (never nullptr on success).
  const DetectorDescriptor* detector = nullptr;
  /// Per-k violation sets, their counts, plus work counters. Shared so
  /// a session cache and its clients can hold the same immutable
  /// result (and its report bytes, see DetectionResult::ReportBytes).
  std::shared_ptr<const DetectionResult> result;
  /// True when the result was served from a cache (session layer) or
  /// deduplicated within a batch, false when the detector ran.
  bool cached = false;
  /// True when this response waited on an identical concurrent run
  /// instead of computing (session-layer in-flight coalescing; implies
  /// `cached`).
  bool coalesced = false;
};

/// Resolves the request's detector against `registry` and checks that
/// the bounds variant matches the descriptor's declared kind.
Result<const DetectorDescriptor*> ResolveRequest(
    const AuditRequest& request,
    const DetectorRegistry& registry = DetectorRegistry::Global());

/// The detector a request object selects from the global registry: its
/// "detector" by name, else its "measure" and "algo" (default prop and
/// bounds). A bound field of the family the detector does not read
/// (`alpha` on a global detector) would be dropped unread, so it is
/// refused, naming `owner` (the op or tool) and the detector's bound
/// fields.
Result<const DetectorDescriptor*> SelectDetector(const JsonValue& request,
                                                 std::string_view owner);

/// Decodes a request object (checked against its declared fields) into
/// the AuditRequest it describes: SelectDetector, then the config and
/// the bounds through ConfigFromJson and BoundsFromJson, each omitted
/// field taken from the defaults. The JSONL detect-query ops and
/// fairtopk_audit both decode through it.
Result<AuditRequest> RequestFromJson(const JsonValue& request,
                                     std::string_view owner,
                                     const DetectionConfig& config_defaults,
                                     const BoundsDefaults& bounds_defaults);

/// Resolves the request's detector and runs it over a prepared input;
/// the result stores each reported group's counts from `input`'s
/// index.
Result<DetectionResult> RunAudit(const DetectionInput& input,
                                 const AuditRequest& request,
                                 const DetectorRegistry& registry =
                                     DetectorRegistry::Global());

}  // namespace fairtopk::api

#endif  // FAIRTOPK_API_AUDIT_H_
