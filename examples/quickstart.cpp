// Quickstart: detect groups with biased representation on the paper's
// 16-student running example (Figure 1).
//
//   build/examples/quickstart
//
// Walks the public audit API in ~40 lines: build/load a table, rank
// it, prepare a detection input, run both fairness measures through
// typed api::AuditRequests (the detector is resolved by name from the
// registry — `capabilities` in the serving protocol lists them all),
// and print annotated reports.
#include <cstdio>

#include "api/audit.h"
#include "datagen/running_example.h"
#include "detect/presentation.h"

using namespace fairtopk;

int main() {
  // 1. The dataset: students with Gender/School/Address/Failures and a
  //    numeric Grade (swap in ReadCsvFile(...) for your own data).
  Result<Table> table = RunningExampleTable();
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }

  // 2. The ranking algorithm (a black box to the detector): grade
  //    descending, fewer past failures first on ties.
  auto ranker = RunningExampleRanker();

  // 3. One validated bundle: ranking + pattern space + bitmap index.
  Result<DetectionInput> input = DetectionInput::Prepare(*table, *ranker);
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 1;
  }

  // 4a. Global bounds (Problem 3.1): every group of >= 4 students must
  //     place at least 2 members in every top-k, k in [4, 6]. The
  //     request carries exactly the bounds its detector consumes.
  GlobalBoundSpec global_bounds;
  global_bounds.lower = StepFunction::Constant(2.0);
  api::AuditRequest global_request;
  global_request.detector = "GlobalBounds";
  global_request.config.k_min = 4;
  global_request.config.k_max = 6;
  global_request.config.size_threshold = 4;
  global_request.bounds = global_bounds;
  Result<DetectionResult> global = api::RunAudit(*input, global_request);
  if (!global.ok()) {
    std::fprintf(stderr, "%s\n", global.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Global representation bounds (L = 2) ===\n");
  for (int k = global_request.config.k_min;
       k <= global_request.config.k_max; ++k) {
    auto groups =
        AnnotateGlobal(*global, global_bounds, k, GroupOrder::kByBiasDesc);
    std::printf("%s", RenderReport(groups, input->space(), k).c_str());
  }

  // 4b. Proportional representation (Problem 3.2): each group's top-k
  //     share must reach 90% of its share of the dataset.
  PropBoundSpec prop_bounds;
  prop_bounds.alpha = 0.9;
  api::AuditRequest prop_request;
  prop_request.detector = "PropBounds";
  prop_request.config = global_request.config;
  prop_request.config.size_threshold = 5;
  prop_request.bounds = prop_bounds;
  Result<DetectionResult> prop = api::RunAudit(*input, prop_request);
  if (!prop.ok()) {
    std::fprintf(stderr, "%s\n", prop.status().ToString().c_str());
    return 1;
  }
  std::printf("\n=== Proportional representation (alpha = 0.9) ===\n");
  for (int k = prop_request.config.k_min; k <= prop_request.config.k_max;
       ++k) {
    auto groups =
        AnnotateProp(*prop, prop_bounds, k, GroupOrder::kByBiasDesc);
    std::printf("%s", RenderReport(groups, input->space(), k).c_str());
  }
  return 0;
}
