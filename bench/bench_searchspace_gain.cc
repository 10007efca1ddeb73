// Section VI-B text statistic: the reduction in patterns examined by
// the optimized algorithms relative to ITERTD under the default
// parameters. The paper reports gains of up to 39.35% (COMPAS), 56.87%
// (Student) and 29.27% (German) for global bounds, and 39.60%, 20.49%
// and 56.83% for proportional representation.
#include "bench_util.h"
#include "detect/global_bounds.h"
#include "detect/itertd.h"
#include "detect/prop_bounds.h"

namespace fairtopk::bench {
namespace {

constexpr size_t kNumAttrs = 9;

void Run() {
  PrintHeader(
      "measure,dataset,baseline_nodes,optimized_nodes,gain_percent");
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  config.size_threshold = 50;
  GlobalBoundSpec gbounds = GlobalBoundSpec::PaperDefault(config.k_max);
  PropBoundSpec pbounds;
  pbounds.alpha = 0.8;

  for (Dataset& dataset : AllDatasets()) {
    DetectionInput input = PrepareInput(dataset, kNumAttrs);

    RunOutcome g_base = TimedRun(input, [&](const DetectionInput& cold) {
      return DetectGlobalIterTD(cold, gbounds, config);
    });
    RunOutcome g_opt = TimedRun(input, [&](const DetectionInput& cold) {
      return DetectGlobalBounds(cold, gbounds, config);
    });
    const double g_gain =
        100.0 *
        (static_cast<double>(g_base.nodes_visited) -
         static_cast<double>(g_opt.nodes_visited)) /
        static_cast<double>(g_base.nodes_visited);
    std::printf("global,%s,%llu,%llu,%.2f\n", dataset.name.c_str(),
                static_cast<unsigned long long>(g_base.nodes_visited),
                static_cast<unsigned long long>(g_opt.nodes_visited),
                g_gain);

    RunOutcome p_base = TimedRun(input, [&](const DetectionInput& cold) {
      return DetectPropIterTD(cold, pbounds, config);
    });
    RunOutcome p_opt = TimedRun(input, [&](const DetectionInput& cold) {
      return DetectPropBounds(cold, pbounds, config);
    });
    const double p_gain =
        100.0 *
        (static_cast<double>(p_base.nodes_visited) -
         static_cast<double>(p_opt.nodes_visited)) /
        static_cast<double>(p_base.nodes_visited);
    std::printf("proportional,%s,%llu,%llu,%.2f\n", dataset.name.c_str(),
                static_cast<unsigned long long>(p_base.nodes_visited),
                static_cast<unsigned long long>(p_opt.nodes_visited),
                p_gain);
  }
}

}  // namespace
}  // namespace fairtopk::bench

int main() {
  fairtopk::bench::Run();
  return 0;
}
