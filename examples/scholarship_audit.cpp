// Scholarship audit: the paper's motivating scenario. A committee
// ranks students by final grade to award scholarships; this audit
// detects student groups with biased representation in every top-k
// shortlist and explains WHY the flagged group ranks low, using the
// Section V Shapley pipeline.
//
//   build/examples/scholarship_audit
#include <cstdio>

#include "datagen/student_like.h"
#include "detect/global_bounds.h"
#include "detect/presentation.h"
#include "explain/group_explainer.h"

using namespace fairtopk;

int main() {
  Result<Table> table = StudentLikeTable();
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto ranker = StudentRanker();
  std::printf("Auditing a scholarship shortlist over %zu students, "
              "ranker: %s\n\n",
              table->num_rows(), ranker->Describe().c_str());

  Result<DetectionInput> input =
      DetectionInput::Prepare(*table, *ranker, StudentPatternAttributes());
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 1;
  }

  // Paper defaults (Section VI-A): tau_s = 50, k in [10, 49], lower
  // bounds 10/20/30/40 staircase.
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  config.size_threshold = 50;
  GlobalBoundSpec bounds = GlobalBoundSpec::PaperDefault(config.k_max);

  Result<DetectionResult> detected =
      DetectGlobalBounds(*input, bounds, config);
  if (!detected.ok()) {
    std::fprintf(stderr, "%s\n", detected.status().ToString().c_str());
    return 1;
  }

  const int report_k = 49;
  auto groups =
      AnnotateGlobal(*detected, bounds, report_k, GroupOrder::kBySizeDesc);
  std::printf("%s\n", RenderReport(groups, input->space(), report_k).c_str());
  if (groups.empty()) {
    std::printf("no biased groups at k=%d\n", report_k);
    return 0;
  }

  // Explain the largest flagged group: train a rank-regression model,
  // aggregate per-tuple Shapley values, and compare distributions.
  auto ranking = ranker->Rank(*table);
  if (!ranking.ok()) {
    std::fprintf(stderr, "%s\n", ranking.status().ToString().c_str());
    return 1;
  }
  Result<GroupExplainer> explainer =
      GroupExplainer::Create(*table, *ranking, ExplainerOptions{});
  if (!explainer.ok()) {
    std::fprintf(stderr, "%s\n", explainer.status().ToString().c_str());
    return 1;
  }
  std::printf("rank-regression model R^2 = %.3f\n\n",
              explainer->TrainingR2());

  Result<GroupExplanation> explanation = explainer->Explain(
      groups.front().pattern, input->space(), report_k);
  if (!explanation.ok()) {
    std::fprintf(stderr, "%s\n", explanation.status().ToString().c_str());
    return 1;
  }
  std::printf("Aggregated Shapley values for %s (top 6 attributes):\n",
              groups.front().pattern.ToString(input->space()).c_str());
  for (size_t i = 0; i < explanation->effects.size() && i < 6; ++i) {
    std::printf("  %-14s %+.4f\n",
                explanation->effects[i].attribute.c_str(),
                explanation->effects[i].mean_shapley);
  }
  std::printf("\n%s",
              RenderDistribution(explanation->top_attribute_distribution)
                  .c_str());
  return 0;
}
