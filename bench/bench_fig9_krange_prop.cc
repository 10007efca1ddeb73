// Figure 9 (a-c): running time as a function of the range of k —
// proportional representation, alpha = 0.8. Same sweep as Figure 8.
#include "bench_util.h"
#include "detect/itertd.h"
#include "detect/prop_bounds.h"

namespace fairtopk::bench {
namespace {

constexpr size_t kNumAttrs = 9;

void Run() {
  PrintHeader("figure,dataset,k_max,algorithm,seconds,nodes_visited");
  PropBoundSpec bounds;
  bounds.alpha = 0.8;
  for (Dataset& dataset : AllDatasets()) {
    DetectionInput input = PrepareInput(dataset, kNumAttrs);
    const int limit = dataset.name == "COMPAS" ? 1000 : 350;
    const int step = dataset.name == "COMPAS" ? 190 : 60;
    for (int k_max = 50; k_max <= limit; k_max += step) {
      DetectionConfig config;
      config.k_min = 10;
      config.k_max = k_max;
      config.size_threshold = 50;
      RunOutcome base = TimedRun(input, [&](const DetectionInput& cold) {
        return DetectPropIterTD(cold, bounds, config);
      });
      std::printf("fig9,%s,%d,IterTD,%.4f,%llu\n", dataset.name.c_str(),
                  k_max, base.seconds,
                  static_cast<unsigned long long>(base.nodes_visited));
      RunOutcome opt = TimedRun(input, [&](const DetectionInput& cold) {
        return DetectPropBounds(cold, bounds, config);
      });
      std::printf("fig9,%s,%d,PropBounds,%.4f,%llu\n", dataset.name.c_str(),
                  k_max, opt.seconds,
                  static_cast<unsigned long long>(opt.nodes_visited));
      RequireSameGroups(base, opt, "fig9," + dataset.name + "," +
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
