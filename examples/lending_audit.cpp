// Lending audit: applicants are ranked by an opaque creditworthiness
// score (the German Credit setup of Section VI-A). This audit uses
// proportional representation — every applicant group's share of the
// top-k should track its share of the applicant pool — and also runs
// the upper-bound extension to surface OVER-represented intersectional
// groups.
//
//   build/examples/lending_audit
#include <cstdio>

#include "datagen/german_like.h"
#include "detect/presentation.h"
#include "detect/prop_bounds.h"
#include "detect/upper_bounds.h"

using namespace fairtopk;

int main() {
  Result<Table> table = GermanLikeTable();
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto ranker = GermanRanker();
  std::printf("Auditing a loan-offer ranking over %zu applicants, "
              "ranker: %s\n\n",
              table->num_rows(), ranker->Describe().c_str());

  Result<DetectionInput> input =
      DetectionInput::Prepare(*table, *ranker, GermanPatternAttributes());
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 1;
  }

  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  config.size_threshold = 50;
  PropBoundSpec bounds;
  bounds.alpha = 0.8;  // under-representation multiplier
  bounds.beta = 1.6;   // over-representation multiplier (extension)

  Result<DetectionResult> under = DetectPropBounds(*input, bounds, config);
  if (!under.ok()) {
    std::fprintf(stderr, "%s\n", under.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Under-represented groups (alpha = %.1f) ===\n",
              bounds.alpha);
  for (int k : {10, 30, 49}) {
    auto groups = AnnotateProp(*under, bounds, k, GroupOrder::kByBiasDesc);
    const size_t total = groups.size();
    if (groups.size() > 12) groups.resize(12);
    std::printf("%s", RenderReport(groups, input->space(), k).c_str());
    if (total > groups.size()) {
      std::printf("  ... and %zu more\n", total - groups.size());
    }
  }

  Result<DetectionResult> over =
      DetectPropUpperBounds(*input, bounds, config);
  if (!over.ok()) {
    std::fprintf(stderr, "%s\n", over.status().ToString().c_str());
    return 1;
  }
  std::printf("\n=== Over-represented groups (beta = %.1f, most specific "
              "substantial) ===\n",
              bounds.beta);
  for (int k : {10, 30, 49}) {
    const auto& groups = over->AtK(k);
    std::printf("top-%d: %zu group(s)%s\n", k, groups.size(),
                groups.size() > 10 ? ", showing 10" : "");
    for (size_t i = 0; i < groups.size() && i < 10; ++i) {
      const Pattern& p = groups[i];
      std::printf("  %s  size=%zu in-top-%d=%zu\n",
                  p.ToString(input->space()).c_str(),
                  input->index().PatternCount(p), k,
                  input->index().TopKCount(p, static_cast<size_t>(k)));
    }
  }
  return 0;
}
