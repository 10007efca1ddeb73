// Recidivism-ranking audit on the COMPAS-shaped dataset: runs both
// fairness measures with the optimized algorithms, reports the
// detected groups, and contrasts the output with the divergence-based
// method of Pastor et al. [27] — the Section VI-D comparison.
//
//   build/examples/recidivism_audit
#include <cstdio>

#include "datagen/compas_like.h"
#include "detect/global_bounds.h"
#include "detect/presentation.h"
#include "detect/prop_bounds.h"
#include "divergence/divexplorer.h"

using namespace fairtopk;

int main() {
  Result<Table> table = CompasLikeTable();
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto ranker = CompasRanker();
  std::printf("Auditing a risk ranking over %zu defendants, ranker: %s\n\n",
              table->num_rows(), ranker->Describe().c_str());

  // 8 pattern attributes keep this demo snappy; pass all 16 for a full
  // audit.
  std::vector<std::string> all = CompasPatternAttributes();
  std::vector<std::string> attrs(all.begin(), all.begin() + 8);
  Result<DetectionInput> input =
      DetectionInput::Prepare(*table, *ranker, attrs);
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 1;
  }

  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  config.size_threshold = 50;

  GlobalBoundSpec gbounds = GlobalBoundSpec::PaperDefault(config.k_max);
  Result<DetectionResult> global =
      DetectGlobalBounds(*input, gbounds, config);
  if (!global.ok()) {
    std::fprintf(stderr, "%s\n", global.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Global bounds (10/20/30/40 staircase) at k = 49 ===\n");
  auto g_groups =
      AnnotateGlobal(*global, gbounds, 49, GroupOrder::kByBiasDesc);
  std::printf("%s\n", RenderReport(g_groups, input->space(), 49).c_str());

  PropBoundSpec pbounds;
  pbounds.alpha = 0.8;
  Result<DetectionResult> prop = DetectPropBounds(*input, pbounds, config);
  if (!prop.ok()) {
    std::fprintf(stderr, "%s\n", prop.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Proportional (alpha = 0.8) at k = 49 ===\n");
  auto p_groups = AnnotateProp(*prop, pbounds, 49, GroupOrder::kByBiasDesc);
  std::printf("%s\n", RenderReport(p_groups, input->space(), 49).c_str());

  // Comparison with the divergence method: it enumerates ALL frequent
  // subgroups and ranks them by divergence, so its output is far
  // larger and includes groups subsumed by one another.
  DivExplorerOptions div_options;
  div_options.min_support =
      50.0 / static_cast<double>(table->num_rows());
  div_options.k = 49;
  auto divergent = FindDivergentGroups(input->index(), div_options);
  if (!divergent.ok()) {
    std::fprintf(stderr, "%s\n", divergent.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Divergence method [27] at k = 49 ===\n");
  std::printf("reports %zu subgroups (vs %zu / %zu most-general above); "
              "top 5 by |divergence|:\n",
              divergent->size(), g_groups.size(), p_groups.size());
  for (size_t i = 0; i < divergent->size() && i < 5; ++i) {
    const auto& g = (*divergent)[i];
    std::printf("  %s  divergence=%+.3f support=%.3f\n",
                g.pattern.ToString(input->space()).c_str(), g.divergence,
                g.support);
  }
  return 0;
}
