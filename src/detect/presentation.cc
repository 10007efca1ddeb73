#include "detect/presentation.h"

#include <algorithm>
#include <sstream>

#include "common/strings.h"

namespace fairtopk {

namespace {

void SortGroups(std::vector<ReportedGroup>& groups, GroupOrder order) {
  std::stable_sort(groups.begin(), groups.end(),
                   [order](const ReportedGroup& a, const ReportedGroup& b) {
                     if (order == GroupOrder::kBySizeDesc) {
                       return a.size_in_d > b.size_in_d;
                     }
                     return a.bias() > b.bias();
                   });
}

}  // namespace

std::vector<ReportedGroup> AnnotateGlobal(const DetectionResult& result,
                                          const GlobalBoundSpec& bounds,
                                          int k, GroupOrder order) {
  const std::vector<Pattern>& patterns = result.AtK(k);
  const std::vector<GroupCounts>& counts = result.CountsAtK(k);
  std::vector<ReportedGroup> groups;
  for (size_t i = 0; i < patterns.size(); ++i) {
    ReportedGroup g;
    g.pattern = patterns[i];
    g.size_in_d = counts[i].size;
    g.size_in_topk = counts[i].top_k;
    g.required = bounds.lower.At(k);
    groups.push_back(std::move(g));
  }
  SortGroups(groups, order);
  return groups;
}

std::vector<ReportedGroup> AnnotateProp(const DetectionResult& result,
                                        const PropBoundSpec& bounds, int k,
                                        GroupOrder order) {
  const std::vector<Pattern>& patterns = result.AtK(k);
  const std::vector<GroupCounts>& counts = result.CountsAtK(k);
  std::vector<ReportedGroup> groups;
  for (size_t i = 0; i < patterns.size(); ++i) {
    ReportedGroup g;
    g.pattern = patterns[i];
    g.size_in_d = counts[i].size;
    g.size_in_topk = counts[i].top_k;
    g.required = bounds.LowerAt(static_cast<int>(g.size_in_d), k,
                                result.num_rows());
    groups.push_back(std::move(g));
  }
  SortGroups(groups, order);
  return groups;
}

std::string RenderReport(const std::vector<ReportedGroup>& groups,
                         const PatternSpace& space, int k) {
  std::ostringstream out;
  out << "Groups with biased representation in the top-" << k << " ("
      << groups.size() << " group" << (groups.size() == 1 ? "" : "s")
      << ")\n";
  for (const ReportedGroup& g : groups) {
    out << "  " << g.pattern.ToString(space) << "  size=" << g.size_in_d
        << "  in-top-" << k << "=" << g.size_in_topk
        << "  required>=" << FormatDouble(g.required, 2)
        << "  bias=" << FormatDouble(g.bias(), 2) << "\n";
  }
  return out.str();
}

}  // namespace fairtopk
