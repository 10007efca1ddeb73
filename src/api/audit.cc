#include "api/audit.h"

#include "api/canonical.h"

namespace fairtopk::api {

std::string AuditRequest::CacheKey() const {
  std::string key = detector;
  key += '|';
  key += CanonicalConfigKey(config);
  key += '|';
  key += CanonicalBounds(bounds);
  return key;
}

Result<const DetectorDescriptor*> ResolveRequest(
    const AuditRequest& request, const DetectorRegistry& registry) {
  const DetectorDescriptor* descriptor = registry.Find(request.detector);
  if (descriptor == nullptr) {
    return Status::NotFound("no detector named '" + request.detector +
                            "' is registered");
  }
  if (KindOf(request.bounds) != descriptor->bounds_kind) {
    return Status::InvalidArgument(
        "detector '" + descriptor->name + "' takes " +
        BoundsKindName(descriptor->bounds_kind) +
        " bounds, but the request carries " +
        BoundsKindName(KindOf(request.bounds)) + " bounds");
  }
  return descriptor;
}

Result<DetectionResult> RunAudit(const DetectionInput& input,
                                 const AuditRequest& request,
                                 const DetectorRegistry& registry) {
  FAIRTOPK_ASSIGN_OR_RETURN(const DetectorDescriptor* descriptor,
                            ResolveRequest(request, registry));
  metrics::SpanTimer span(request.trace, "search");
  return descriptor->run(input, request.bounds, request.config);
}

}  // namespace fairtopk::api
