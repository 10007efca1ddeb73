#include "api/detector_registry.h"

#include <cstdlib>
#include <utility>

#include "api/canonical.h"
#include "detect/global_bounds.h"
#include "detect/itertd.h"
#include "detect/prop_bounds.h"
#include "detect/upper_bounds.h"
#include "index/kernels/kernels.h"

namespace fairtopk::api {

namespace {

/// Adapter from a typed detector entry point to the registry's uniform
/// RunFn, instantiated per registration. The facade validated the
/// bounds kind, so get_if only fails on a caller bypassing it —
/// reported, not asserted.
template <typename Spec, auto DetectFn>
Result<DetectionResult> RunAdapter(const DetectionInput& input,
                                   const BoundsSpec& bounds,
                                   const DetectionConfig& config) {
  const Spec* spec = std::get_if<Spec>(&bounds);
  if (spec == nullptr) {
    return Status::InvalidArgument(
        "bounds spec kind does not match the requested detector");
  }
  return DetectFn(input, *spec, config);
}

std::string WireKey(std::string_view measure, std::string_view algo) {
  std::string key(measure);
  key += '/';
  key += algo;
  return key;
}

}  // namespace

DetectorRegistry& DetectorRegistry::Global() {
  static DetectorRegistry* registry = [] {
    auto* r = new DetectorRegistry();
    const DetectorDescriptor builtins[] = {
        {"GlobalIterTD", "global", "itertd", BoundsKind::kGlobal,
         /*optimized=*/false, /*lower_violations=*/true,
         "baseline for Problem 3.1: fresh top-down search per k against "
         "the global lower staircase",
         &RunAdapter<GlobalBoundSpec, &DetectGlobalIterTD>},
        {"PropIterTD", "prop", "itertd", BoundsKind::kProportional,
         /*optimized=*/false, /*lower_violations=*/true,
         "baseline for Problem 3.2: fresh top-down search per k against "
         "the proportional alpha bound",
         &RunAdapter<PropBoundSpec, &DetectPropIterTD>},
        {"GlobalBounds", "global", "bounds", BoundsKind::kGlobal,
         /*optimized=*/true, /*lower_violations=*/true,
         "Algorithm 2: incremental detection under non-decreasing global "
         "lower bounds, carrying results from k to k+1",
         &RunAdapter<GlobalBoundSpec, &DetectGlobalBounds>},
        {"PropBounds", "prop", "bounds", BoundsKind::kProportional,
         /*optimized=*/true, /*lower_violations=*/true,
         "Algorithm 3: incremental proportional detection with the "
         "k-tilde transition schedule",
         &RunAdapter<PropBoundSpec, &DetectPropBounds>},
        {"GlobalUpperBounds", "global", "upper", BoundsKind::kGlobal,
         /*optimized=*/true, /*lower_violations=*/false,
         "most specific substantial groups exceeding the global upper "
         "staircase",
         &RunAdapter<GlobalBoundSpec, &DetectGlobalUpperBounds>},
        {"PropUpperBounds", "prop", "upper", BoundsKind::kProportional,
         /*optimized=*/true, /*lower_violations=*/false,
         "most specific substantial groups exceeding the proportional "
         "beta bound",
         &RunAdapter<PropBoundSpec, &DetectPropUpperBounds>},
    };
    for (const DetectorDescriptor& d : builtins) {
      // Built-in registration cannot fail (names and wire pairs are
      // distinct by construction); surface a programming error loudly.
      Status status = r->Register(d);
      if (!status.ok()) std::abort();
    }
    return r;
  }();
  return *registry;
}

Status DetectorRegistry::Register(DetectorDescriptor descriptor) {
  if (descriptor.name.empty()) {
    return Status::InvalidArgument("detector descriptor misses a name");
  }
  if (descriptor.run == nullptr) {
    return Status::InvalidArgument("detector '" + descriptor.name +
                                   "' misses a run function");
  }
  if (descriptor.measure.empty() || descriptor.algo.empty()) {
    return Status::InvalidArgument("detector '" + descriptor.name +
                                   "' misses measure/algo wire names");
  }
  if (by_name_.count(descriptor.name) > 0) {
    return Status::InvalidArgument("detector '" + descriptor.name +
                                   "' is already registered");
  }
  const std::string wire = WireKey(descriptor.measure, descriptor.algo);
  if (by_wire_.count(wire) > 0) {
    return Status::InvalidArgument("wire selector '" + wire +
                                   "' is already registered");
  }
  detectors_.push_back(std::move(descriptor));
  const DetectorDescriptor* stored = &detectors_.back();
  by_name_.emplace(stored->name, stored);
  by_wire_.emplace(wire, stored);
  return Status::OK();
}

const DetectorDescriptor* DetectorRegistry::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : it->second;
}

Result<const DetectorDescriptor*> DetectorRegistry::Resolve(
    std::string_view measure, std::string_view algo) const {
  auto it = by_wire_.find(WireKey(measure, algo));
  if (it == by_wire_.end()) {
    return Status::InvalidArgument(
        "no detector registered for measure='" + std::string(measure) +
        "' algo='" + std::string(algo) +
        "' (see the capabilities op for the registered matrix)");
  }
  return it->second;
}

void WriteCapabilities(JsonWriter& w, const DetectorRegistry& registry) {
  // The bitset kernel this process dispatches through (startup-selected,
  // FAIRTOPK_KERNEL overridable) and every variant this build/CPU could
  // run — so a deployment can verify what the server picked.
  w.Key("kernel").String(kernels::ActiveName());
  w.Key("kernels_available").BeginArray();
  for (const char* name : kernels::AvailableKernels()) w.String(name);
  w.EndArray();
  w.Key("detectors").BeginArray();
  for (const DetectorDescriptor& d : registry.detectors()) {
    w.BeginObject();
    w.Key("name").String(d.name);
    w.Key("measure").String(d.measure);
    w.Key("algo").String(d.algo);
    w.Key("bounds").String(BoundsKindName(d.bounds_kind));
    w.Key("optimized").Bool(d.optimized);
    w.Key("lower_violations").Bool(d.lower_violations);
    w.Key("summary").String(d.summary);
    w.Key("params").BeginObject();
    for (const auto& fields : {std::span<const FieldSpec>(kConfigFields),
                               BoundFields(d.bounds_kind)}) {
      for (const FieldSpec& field : fields) {
        w.Key(std::string(field.name))
            .String(std::string(FieldTypeName(field.type)) + ": " +
                    std::string(field.description));
      }
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
}

}  // namespace fairtopk::api
