#include "api/audit.h"

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

Result<const DetectorDescriptor*> SelectDetector(const JsonValue& request,
                                                 std::string_view owner) {
  const DetectorRegistry& registry = DetectorRegistry::Global();
  const DetectorDescriptor* descriptor = nullptr;
  // The registry name wins over the wire (measure, algo) pair.
  if (const JsonValue* name = request.Find("detector")) {
    descriptor = registry.Find(name->string_value());
    if (descriptor == nullptr) {
      return Status::NotFound("no detector named '" + name->string_value() +
                              "' is registered (see op=capabilities)");
    }
  } else {
    FAIRTOPK_ASSIGN_OR_RETURN(
        descriptor, registry.Resolve(request.StringOr("measure", "prop"),
                                     request.StringOr("algo", "bounds")));
  }
  const BoundsKind other = descriptor->bounds_kind == BoundsKind::kGlobal
                               ? BoundsKind::kProportional
                               : BoundsKind::kGlobal;
  for (const auto& [key, value] : request.object_members()) {
    if (FindField(BoundFields(other), key) != nullptr) {
      return Status::InvalidArgument(
          "'" + std::string(owner) + "' field '" + key +
          "' is no bound of detector '" + descriptor->name +
          "' (its bound fields: " +
          FieldNames(BoundFields(descriptor->bounds_kind)) + ")");
    }
  }
  return descriptor;
}

Result<AuditRequest> RequestFromJson(const JsonValue& request,
                                     std::string_view owner,
                                     const DetectionConfig& config_defaults,
                                     const BoundsDefaults& bounds_defaults) {
  FAIRTOPK_ASSIGN_OR_RETURN(const DetectorDescriptor* descriptor,
                            SelectDetector(request, owner));
  AuditRequest query;
  query.detector = descriptor->name;
  FAIRTOPK_ASSIGN_OR_RETURN(query.config,
                            ConfigFromJson(request, config_defaults));
  FAIRTOPK_ASSIGN_OR_RETURN(
      query.bounds, BoundsFromJson(request, descriptor->bounds_kind,
                                   bounds_defaults, query.config));
  return query;
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
