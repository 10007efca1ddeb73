// Figure 5 (a-c): running time as a function of the number of
// attributes — detection with proportional representation, ITERTD
// baseline vs the optimized PROPBOUNDS, on the three datasets.
// Parameters per Section VI-A: tau_s = 50, k in [10, 49], alpha = 0.8.
#include <optional>

#include "bench_util.h"
#include "detect/itertd.h"
#include "detect/prop_bounds.h"

namespace fairtopk::bench {
namespace {

constexpr double kPointBudgetSeconds = 5.0;

void Run() {
  PrintHeader(
      "figure,dataset,num_attributes,algorithm,seconds,nodes_visited");
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  config.size_threshold = 50;
  PropBoundSpec bounds;
  bounds.alpha = 0.8;

  for (Dataset& dataset : AllDatasets()) {
    bool baseline_alive = true;
    bool optimized_alive = true;
    const size_t max_attrs = dataset.pattern_attributes.size();
    for (size_t attrs = 3; attrs <= max_attrs; ++attrs) {
      if (!baseline_alive && !optimized_alive) break;
      DetectionInput input = PrepareInput(dataset, attrs);
      // The row's results are compared only where both algorithms ran:
      // once the budget stops one series, its rows have nothing to
      // compare.
      std::optional<RunOutcome> base;
      std::optional<RunOutcome> opt;
      if (baseline_alive) {
        RunOutcome run = TimedRun(input, [&](const DetectionInput& cold) {
          return DetectPropIterTD(cold, bounds, config);
        });
        std::printf("fig5,%s,%zu,IterTD,%.4f,%llu\n", dataset.name.c_str(),
                    attrs, run.seconds,
                    static_cast<unsigned long long>(run.nodes_visited));
        base = run;
        if (run.seconds > kPointBudgetSeconds) {
          baseline_alive = false;
          std::printf("fig5,%s,%zu,IterTD,timeout,-\n", dataset.name.c_str(),
                      attrs + 1);
        }
      }
      if (optimized_alive) {
        RunOutcome run = TimedRun(input, [&](const DetectionInput& cold) {
          return DetectPropBounds(cold, bounds, config);
        });
        std::printf("fig5,%s,%zu,PropBounds,%.4f,%llu\n",
                    dataset.name.c_str(), attrs, run.seconds,
                    static_cast<unsigned long long>(run.nodes_visited));
        opt = run;
        if (run.seconds > kPointBudgetSeconds) {
          optimized_alive = false;
          std::printf("fig5,%s,%zu,PropBounds,timeout,-\n",
                      dataset.name.c_str(), attrs + 1);
        }
      }
      if (base.has_value() && opt.has_value()) {
        RequireSameGroups(*base, *opt, "fig5," + dataset.name + "," +
                                           std::to_string(attrs));
      }
    }
  }
}

}  // namespace
}  // namespace fairtopk::bench

int main() {
  fairtopk::bench::Run();
  return 0;
}
