// Figure 7 (a-c): running time as a function of the size threshold
// tau_s (10 to 100) — proportional representation, alpha = 0.8.
#include "bench_util.h"
#include "detect/itertd.h"
#include "detect/prop_bounds.h"

namespace fairtopk::bench {
namespace {

constexpr size_t kNumAttrs = 9;

void Run() {
  PrintHeader("figure,dataset,size_threshold,algorithm,seconds,nodes_visited");
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  PropBoundSpec bounds;
  bounds.alpha = 0.8;

  for (Dataset& dataset : AllDatasets()) {
    DetectionInput input = PrepareInput(dataset, kNumAttrs);
    for (int tau = 10; tau <= 100; tau += 10) {
      config.size_threshold = tau;
      RunOutcome base = TimedRun(input, [&](const DetectionInput& cold) {
        return DetectPropIterTD(cold, bounds, config);
      });
      std::printf("fig7,%s,%d,IterTD,%.4f,%llu\n", dataset.name.c_str(), tau,
                  base.seconds,
                  static_cast<unsigned long long>(base.nodes_visited));
      RunOutcome opt = TimedRun(input, [&](const DetectionInput& cold) {
        return DetectPropBounds(cold, bounds, config);
      });
      std::printf("fig7,%s,%d,PropBounds,%.4f,%llu\n", dataset.name.c_str(),
                  tau, opt.seconds,
                  static_cast<unsigned long long>(opt.nodes_visited));
      RequireSameGroups(base, opt, "fig7," + dataset.name + "," +
                                       std::to_string(tau));
    }
  }
}

}  // namespace
}  // namespace fairtopk::bench

int main() {
  fairtopk::bench::Run();
  return 0;
}
