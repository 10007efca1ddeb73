// Unit and property tests for the detector registry and the canonical
// request encoding: every registered name round-trips through the
// lookup paths, and distinct AuditRequests produce distinct cache keys
// (the collision guard behind the session result cache — a collision
// would silently serve one query's results for another).
#include "api/detector_registry.h"

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "api/audit.h"
#include "api/canonical.h"
#include "common/rng.h"
#include "datagen/running_example.h"

namespace fairtopk {
namespace {

using api::AuditRequest;
using api::BoundsKind;
using api::DetectorDescriptor;
using api::DetectorRegistry;

/// Default bounds of the kind `d` consumes.
api::BoundsSpec DefaultBoundsFor(const DetectorDescriptor& d) {
  return d.bounds_kind == BoundsKind::kGlobal
             ? api::BoundsSpec{GlobalBoundSpec{}}
             : api::BoundsSpec{PropBoundSpec{}};
}

/// A run function reporting no groups at any k.
Result<DetectionResult> EmptyRun(const DetectionInput& input,
                                 const api::BoundsSpec&,
                                 const DetectionConfig& config) {
  DetectionResult result(config.k_min, config.k_max);
  result.CountGroups(input);
  return result;
}

TEST(DetectorRegistryTest, BuiltInsCoverTheSixPaperDetectors) {
  const DetectorRegistry& registry = DetectorRegistry::Global();
  ASSERT_EQ(registry.detectors().size(), 6u);
  const std::vector<std::string> expected = {
      "GlobalIterTD", "PropIterTD",        "GlobalBounds",
      "PropBounds",   "GlobalUpperBounds", "PropUpperBounds"};
  size_t i = 0;
  for (const DetectorDescriptor& d : registry.detectors()) {
    EXPECT_EQ(d.name, expected[i++]);
    // The measure wire name and the bounds kind agree by construction.
    EXPECT_EQ(d.measure == "global", d.bounds_kind == BoundsKind::kGlobal);
    // The ITERTD pair are the paper baselines; everything else is an
    // optimized algorithm.
    EXPECT_EQ(d.optimized, d.algo != "itertd");
    // Only the upper-bound detectors report over-representation (and
    // are therefore ineligible for the rerank mitigation).
    EXPECT_EQ(d.lower_violations, d.algo != "upper");
    EXPECT_NE(d.run, nullptr);
    EXPECT_FALSE(d.summary.empty());
  }
}

TEST(DetectorRegistryTest, EveryRegisteredNameRoundTrips) {
  const DetectorRegistry& registry = DetectorRegistry::Global();
  for (const DetectorDescriptor& d : registry.detectors()) {
    // Name lookup returns the very descriptor that was registered.
    EXPECT_EQ(registry.Find(d.name), &d);
    // The wire pair resolves to the same entry.
    auto resolved = registry.Resolve(d.measure, d.algo);
    ASSERT_TRUE(resolved.ok()) << d.name;
    EXPECT_EQ(*resolved, &d);
    // And a request naming the detector resolves through the facade.
    AuditRequest request;
    request.detector = d.name;
    request.bounds = DefaultBoundsFor(d);
    auto via_request = api::ResolveRequest(request);
    ASSERT_TRUE(via_request.ok()) << d.name;
    EXPECT_EQ(*via_request, &d);
  }
  EXPECT_EQ(registry.Find("NoSuchDetector"), nullptr);
  EXPECT_FALSE(registry.Resolve("nope", "bounds").ok());
  EXPECT_FALSE(registry.Resolve("global", "nope").ok());
}

TEST(DetectorRegistryTest, ResolveRequestChecksBoundsKind) {
  AuditRequest request;
  request.detector = "GlobalBounds";
  request.bounds = PropBoundSpec{};  // wrong alternative
  auto resolved = api::ResolveRequest(request);
  EXPECT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
}

TEST(DetectorRegistryTest, RegisterRejectsDuplicatesAndIncompleteEntries) {
  DetectorRegistry registry;
  DetectorDescriptor d;
  d.name = "Custom";
  d.measure = "global";
  d.algo = "custom";
  d.bounds_kind = BoundsKind::kGlobal;
  d.run = &EmptyRun;
  ASSERT_TRUE(registry.Register(d).ok());
  // Same name again.
  EXPECT_FALSE(registry.Register(d).ok());
  // Same wire pair under a new name.
  DetectorDescriptor same_wire = d;
  same_wire.name = "Custom2";
  EXPECT_FALSE(registry.Register(same_wire).ok());
  // Missing pieces.
  DetectorDescriptor no_name = d;
  no_name.name.clear();
  EXPECT_FALSE(registry.Register(no_name).ok());
  DetectorDescriptor no_run = d;
  no_run.name = "Custom3";
  no_run.algo = "custom3";
  no_run.run = nullptr;
  EXPECT_FALSE(registry.Register(no_run).ok());
  // The registry still resolves the one valid entry.
  EXPECT_EQ(registry.detectors().size(), 1u);
  EXPECT_NE(registry.Find("Custom"), nullptr);
}

TEST(DetectorRegistryTest, AddingADetectorIsOneRegistration) {
  // The "add a scenario = one registration" claim: a custom detector
  // becomes servable by name with no switch anywhere.
  DetectorRegistry registry;
  DetectorDescriptor d;
  d.name = "AlwaysEmpty";
  d.measure = "global";
  d.algo = "empty";
  d.bounds_kind = BoundsKind::kGlobal;
  d.summary = "reports no groups at any k";
  d.run = &EmptyRun;
  ASSERT_TRUE(registry.Register(std::move(d)).ok());
  JsonWriter w;
  w.BeginObject();
  api::WriteCapabilities(w, registry);
  w.EndObject();
  EXPECT_NE(w.str().find("\"AlwaysEmpty\""), std::string::npos);
}

// Every search runs on the calling thread, so any thread count but 1
// is an invalid request, for every registered detector.
TEST(DetectorRegistryTest, ThreadCountOtherThanOneIsInvalid) {
  auto table = RunningExampleTable();
  ASSERT_TRUE(table.ok());
  auto input = DetectionInput::Prepare(*table, *RunningExampleRanker());
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  for (const DetectorDescriptor& d : DetectorRegistry::Global().detectors()) {
    AuditRequest request;
    request.detector = d.name;
    request.config = {/*k_min=*/2, /*k_max=*/10, /*size_threshold=*/2};
    request.bounds = DefaultBoundsFor(d);
    ASSERT_TRUE(api::RunAudit(*input, request).ok()) << d.name;
    for (int threads : {0, 4}) {
      request.config.num_threads = threads;
      auto result = api::RunAudit(*input, request);
      ASSERT_FALSE(result.ok()) << d.name << " threads=" << threads;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << d.name << " threads=" << threads;
    }
  }
}

/// Structural equality of the cache-key-relevant request fields.
bool KeyRelevantFieldsEqual(const AuditRequest& a, const AuditRequest& b) {
  if (a.detector != b.detector) return false;
  if (a.config.k_min != b.config.k_min || a.config.k_max != b.config.k_max ||
      a.config.size_threshold != b.config.size_threshold) {
    return false;
  }
  if (a.bounds.index() != b.bounds.index()) return false;
  if (const auto* ga = std::get_if<GlobalBoundSpec>(&a.bounds)) {
    const auto& gb = std::get<GlobalBoundSpec>(b.bounds);
    return ga->lower.steps() == gb.lower.steps() &&
           ga->upper.steps() == gb.upper.steps();
  }
  const auto& pa = std::get<PropBoundSpec>(a.bounds);
  const auto& pb = std::get<PropBoundSpec>(b.bounds);
  return pa.alpha == pb.alpha && pa.beta == pb.beta;
}

/// Draws a random request for a random registered detector.
AuditRequest RandomRequest(Rng& rng) {
  const DetectorRegistry& registry = DetectorRegistry::Global();
  const size_t pick = rng.UniformUint64(registry.detectors().size());
  const DetectorDescriptor& d = registry.detectors()[pick];
  AuditRequest request;
  request.detector = d.name;
  request.config.k_min = 1 + static_cast<int>(rng.UniformUint64(8));
  request.config.k_max =
      request.config.k_min + static_cast<int>(rng.UniformUint64(40));
  request.config.size_threshold = 1 + static_cast<int>(rng.UniformUint64(30));
  if (d.bounds_kind == BoundsKind::kGlobal) {
    GlobalBoundSpec bounds;
    std::vector<std::pair<int, double>> steps;
    int start = 1 + static_cast<int>(rng.UniformUint64(5));
    const size_t num_steps = 1 + rng.UniformUint64(4);
    for (size_t s = 0; s < num_steps; ++s) {
      steps.emplace_back(start,
                         static_cast<double>(rng.UniformUint64(100)) / 4.0);
      start += 1 + static_cast<int>(rng.UniformUint64(10));
    }
    auto lower = StepFunction::FromSteps(steps);
    EXPECT_TRUE(lower.ok());
    bounds.lower = *lower;
    if (rng.Bernoulli(0.5)) {
      bounds.upper = StepFunction::Constant(
          static_cast<double>(rng.UniformUint64(1000)) / 8.0);
    }
    request.bounds = bounds;
  } else {
    PropBoundSpec bounds;
    bounds.alpha = static_cast<double>(1 + rng.UniformUint64(100)) / 100.0;
    if (rng.Bernoulli(0.5)) {
      bounds.beta =
          bounds.alpha + static_cast<double>(1 + rng.UniformUint64(100)) / 50.0;
    }
    request.bounds = bounds;
  }
  return request;
}

TEST(CacheKeyPropertyTest, DistinctRequestsProduceDistinctKeys) {
  // Collision guard: across many random request pairs, keys are equal
  // exactly when the key-relevant fields are equal. Random draws land
  // frequent near-collisions (same detector, one knob off) because the
  // value ranges are small.
  Rng rng(20260730);
  for (int trial = 0; trial < 3000; ++trial) {
    AuditRequest a = RandomRequest(rng);
    AuditRequest b = RandomRequest(rng);
    EXPECT_EQ(a.CacheKey() == b.CacheKey(), KeyRelevantFieldsEqual(a, b))
        << "trial " << trial << "\n  a=" << a.CacheKey()
        << "\n  b=" << b.CacheKey();
  }
}

TEST(CacheKeyPropertyTest, SingleFieldPerturbationsChangeTheKey) {
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    AuditRequest base = RandomRequest(rng);
    AuditRequest tweaked = base;
    switch (rng.UniformUint64(4)) {
      case 0:
        tweaked.config.k_min += 1;
        break;
      case 1:
        tweaked.config.k_max += 1;
        break;
      case 2:
        tweaked.config.size_threshold += 1;
        break;
      default:
        if (auto* prop = std::get_if<PropBoundSpec>(&tweaked.bounds)) {
          prop->alpha += 0.015625;  // exact in binary
        } else {
          auto& global = std::get<GlobalBoundSpec>(tweaked.bounds);
          auto steps = global.lower.steps();
          steps.back().second += 0.25;
          auto lower = StepFunction::FromSteps(steps);
          ASSERT_TRUE(lower.ok());
          global.lower = *lower;
        }
    }
    EXPECT_NE(base.CacheKey(), tweaked.CacheKey()) << base.CacheKey();
  }
}

TEST(CacheKeyPropertyTest, KindsNeverCollideAcrossDetectorFamilies) {
  // A global and a proportional request can never share a key, even
  // with adversarially aligned numbers.
  AuditRequest global;
  global.detector = "GlobalBounds";
  global.bounds = GlobalBoundSpec{};
  AuditRequest prop = global;
  prop.detector = "PropBounds";
  prop.bounds = PropBoundSpec{};
  EXPECT_NE(global.CacheKey(), prop.CacheKey());
}

}  // namespace
}  // namespace fairtopk
