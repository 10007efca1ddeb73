// Figure 8 (a-c): running time as a function of the range of k —
// global representation bounds. k_min = 10 throughout; k_max sweeps to
// 1000 for COMPAS and 350 for Student/German (matching the dataset
// sizes as in Section VI-B). The optimized algorithm's advantage grows
// with the range because every increment reuses the previous search.
#include "bench_util.h"
#include "detect/global_bounds.h"
#include "detect/itertd.h"

namespace fairtopk::bench {
namespace {

constexpr size_t kNumAttrs = 9;

void Run() {
  PrintHeader("figure,dataset,k_max,algorithm,seconds,nodes_visited");
  for (Dataset& dataset : AllDatasets()) {
    DetectionInput input = PrepareInput(dataset, kNumAttrs);
    const int limit = dataset.name == "COMPAS" ? 1000 : 350;
    const int step = dataset.name == "COMPAS" ? 190 : 60;
    for (int k_max = 50; k_max <= limit; k_max += step) {
      DetectionConfig config;
      config.k_min = 10;
      config.k_max = k_max;
      config.size_threshold = 50;
      GlobalBoundSpec bounds = GlobalBoundSpec::PaperDefault(k_max);
      RunOutcome base = TimedRun(input, [&](const DetectionInput& cold) {
        return DetectGlobalIterTD(cold, bounds, config);
      });
      std::printf("fig8,%s,%d,IterTD,%.4f,%llu\n", dataset.name.c_str(),
                  k_max, base.seconds,
                  static_cast<unsigned long long>(base.nodes_visited));
      RunOutcome opt = TimedRun(input, [&](const DetectionInput& cold) {
        return DetectGlobalBounds(cold, bounds, config);
      });
      std::printf("fig8,%s,%d,GlobalBounds,%.4f,%llu\n",
                  dataset.name.c_str(), k_max, opt.seconds,
                  static_cast<unsigned long long>(opt.nodes_visited));
      RequireSameGroups(base, opt, "fig8," + dataset.name + "," +
                                       std::to_string(k_max));
    }
  }
}

}  // namespace
}  // namespace fairtopk::bench

int main() {
  fairtopk::bench::Run();
  return 0;
}
