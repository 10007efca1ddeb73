#include "divergence/divexplorer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "detect/engine/search_driver.h"

namespace fairtopk {

Result<std::vector<DivergentGroup>> FindDivergentGroups(
    const BitmapIndex& index, const DivExplorerOptions& options) {
  if (options.min_support <= 0.0 || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  if (options.k < 1 || static_cast<size_t>(options.k) > index.num_rows()) {
    return Status::InvalidArgument("k outside [1, |D|]");
  }
  const double n = static_cast<double>(index.num_rows());
  const double overall_outcome = static_cast<double>(options.k) / n;
  const size_t min_count =
      static_cast<size_t>(std::ceil(options.min_support * n));

  std::vector<DivergentGroup> out;
  // Support pruning is anti-monotone, so the engine's size threshold
  // implements it; the visitor scores every substantial pattern and
  // always descends.
  auto score = [&](const Pattern& p, size_t size, size_t top_k) {
    DivergentGroup group;
    group.pattern = p;
    group.size = size;
    group.support = static_cast<double>(size) / n;
    group.outcome = static_cast<double>(top_k) / static_cast<double>(size);
    group.divergence = group.outcome - overall_outcome;
    // Welch t-statistic over Bernoulli outcomes: variance o(1-o).
    const double var_g = group.outcome * (1.0 - group.outcome);
    const double var_d = overall_outcome * (1.0 - overall_outcome);
    const double se2 = var_g / static_cast<double>(size) + var_d / n;
    group.t_statistic = se2 > 0.0 ? group.divergence / std::sqrt(se2) : 0.0;
    out.push_back(std::move(group));
    return true;
  };
  const int threshold =
      min_count > static_cast<size_t>(std::numeric_limits<int>::max())
          ? std::numeric_limits<int>::max()
          : static_cast<int>(min_count);
  const engine::SearchParams params{threshold,
                                    static_cast<size_t>(options.k)};
  // One search over a bare index: a memo of its own serves it.
  engine::SizeMemo sizes(index.space());
  engine::SequentialTopDown(index, params, sizes, score, nullptr);

  std::sort(out.begin(), out.end(),
            [](const DivergentGroup& a, const DivergentGroup& b) {
              const double da = std::fabs(a.divergence);
              const double db = std::fabs(b.divergence);
              if (da != db) return da > db;
              return a.pattern < b.pattern;
            });
  return out;
}

size_t DivergenceRankOf(const std::vector<DivergentGroup>& groups,
                        const Pattern& pattern) {
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].pattern == pattern) return i + 1;
  }
  return 0;
}

}  // namespace fairtopk
