// Figure 6 (a-c): running time as a function of the size threshold
// tau_s (10 to 100) — global representation bounds. The paper observes
// runtimes decreasing with the threshold (smaller search space) and
// the optimized algorithm dominating the baseline throughout.
#include "bench_util.h"
#include "detect/global_bounds.h"
#include "detect/itertd.h"

namespace fairtopk::bench {
namespace {

// The default attribute count is the largest the baseline handles
// comfortably on every dataset at tau_s = 10.
constexpr size_t kNumAttrs = 9;

void Run() {
  PrintHeader("figure,dataset,size_threshold,algorithm,seconds,nodes_visited");
  DetectionConfig config;
  config.k_min = 10;
  config.k_max = 49;
  GlobalBoundSpec bounds = GlobalBoundSpec::PaperDefault(config.k_max);

  for (Dataset& dataset : AllDatasets()) {
    DetectionInput input = PrepareInput(dataset, kNumAttrs);
    for (int tau = 10; tau <= 100; tau += 10) {
      config.size_threshold = tau;
      RunOutcome base = TimedRun(input, [&](const DetectionInput& cold) {
        return DetectGlobalIterTD(cold, bounds, config);
      });
      std::printf("fig6,%s,%d,IterTD,%.4f,%llu\n", dataset.name.c_str(), tau,
                  base.seconds,
                  static_cast<unsigned long long>(base.nodes_visited));
      RunOutcome opt = TimedRun(input, [&](const DetectionInput& cold) {
        return DetectGlobalBounds(cold, bounds, config);
      });
      std::printf("fig6,%s,%d,GlobalBounds,%.4f,%llu\n",
                  dataset.name.c_str(), tau, opt.seconds,
                  static_cast<unsigned long long>(opt.nodes_visited));
      RequireSameGroups(base, opt, "fig6," + dataset.name + "," +
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
