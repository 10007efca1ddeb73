#include "report/json_report.h"

#include "common/json.h"

namespace fairtopk {

namespace {

void WritePattern(JsonWriter& w, const Pattern& pattern,
                  const PatternSpace& space) {
  w.BeginObject();
  for (size_t a = 0; a < pattern.num_attributes(); ++a) {
    if (!pattern.IsSpecified(a)) continue;
    w.Key(space.name(a)).String(space.label(a, pattern.value(a)));
  }
  w.EndObject();
}

}  // namespace

std::string PatternToJson(const Pattern& pattern,
                          const PatternSpace& space) {
  JsonWriter w;
  WritePattern(w, pattern, space);
  return w.str();
}

std::string DetectionResultToJson(const DetectionResult& result,
                                  const DetectionInput& input,
                                  const ReportContext& context) {
  return DetectionResultToJson(result, input.space(), context);
}

std::string DetectionResultToJson(const DetectionResult& result,
                                  const PatternSpace& space,
                                  const ReportContext& context) {
  JsonWriter w;
  w.BeginObject();
  w.Key("dataset").String(context.dataset);
  w.Key("measure").String(context.measure);
  w.Key("algorithm").String(context.algorithm);
  w.Key("k_min").Int(result.k_min());
  w.Key("k_max").Int(result.k_max());
  w.Key("stats").BeginObject();
  w.Key("nodes_visited").Uint(result.stats().nodes_visited);
  w.Key("cursor_reuse_hits").Uint(result.stats().cursor_reuse_hits);
  w.Key("sizes_counted").Uint(result.stats().sizes_counted);
  w.Key("reexaminations_skipped")
      .Uint(result.stats().reexaminations_skipped);
  w.Key("seconds").Double(result.stats().seconds);
  w.Key("cpu_seconds").Double(result.stats().cpu_seconds);
  w.EndObject();
  w.Key("results").BeginArray();
  for (int k = result.k_min(); k <= result.k_max(); ++k) {
    w.BeginObject();
    w.Key("k").Int(k);
    w.Key("groups").BeginArray();
    const std::vector<Pattern>& groups = result.AtK(k);
    const std::vector<GroupCounts>& counts = result.CountsAtK(k);
    for (size_t g = 0; g < groups.size(); ++g) {
      w.BeginObject();
      w.Key("pattern");
      WritePattern(w, groups[g], space);
      w.Key("size").Uint(counts[g].size);
      w.Key("top_k_count").Uint(counts[g].top_k);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string ExplanationToJson(const GroupExplanation& explanation,
                              const PatternSpace& space) {
  JsonWriter w;
  w.BeginObject();
  w.Key("pattern");
  WritePattern(w, explanation.pattern, space);
  w.Key("effects").BeginArray();
  for (const AttributeEffect& effect : explanation.effects) {
    w.BeginObject();
    w.Key("attribute").String(effect.attribute);
    w.Key("mean_shapley").Double(effect.mean_shapley);
    w.EndObject();
  }
  w.EndArray();
  w.Key("top_attribute_distribution").BeginObject();
  w.Key("attribute").String(explanation.top_attribute_distribution.attribute);
  w.Key("bins").BeginArray();
  for (const DistributionBin& bin :
       explanation.top_attribute_distribution.bins) {
    w.BeginObject();
    w.Key("label").String(bin.label);
    w.Key("top_k").Double(bin.top_k_fraction);
    w.Key("group").Double(bin.group_fraction);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace fairtopk
