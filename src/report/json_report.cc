#include "report/json_report.h"

#include <array>
#include <bit>
#include <cstdint>

#include "common/json.h"

namespace fairtopk {

namespace {

/// Each pattern attribute's `"Attr":"` prefix, escaped.
std::vector<std::string> AttributeKeys(const PatternSpace& space) {
  std::vector<std::string> keys(space.num_attributes(), "\"");
  for (size_t a = 0; a < keys.size(); ++a) {
    AppendJsonEscaped(keys[a], space.name(a));
    keys[a] += "\":\"";
  }
  return keys;
}

/// Appends `pattern` as {"Attr":"label",...}; `keys` as AttributeKeys.
void AppendPattern(std::string& out, const Pattern& pattern,
                   const PatternSpace& space,
                   const std::vector<std::string>& keys) {
  out += '{';
  bool first = true;
  for (size_t a = 0; a < pattern.num_attributes(); ++a) {
    if (!pattern.IsSpecified(a)) continue;
    if (!first) out += ',';
    first = false;
    out += keys[a];
    AppendJsonEscaped(out, space.label(a, pattern.value(a)));
    out += '"';
  }
  out += '}';
}

/// Decimal digits of `value`.
size_t Digits(uint64_t value) {
  static constexpr auto kPowersOf10 = [] {
    std::array<uint64_t, 20> powers{1};
    for (size_t i = 1; i < powers.size(); ++i) powers[i] = powers[i - 1] * 10;
    return powers;
  }();
  // log10 from log2 (1233/4096 ~ log10(2)), then one correction; the
  // low bit never changes the digit count and makes 0 count as 1.
  const uint64_t v = value | 1;
  const int guess = std::bit_width(v) * 1233 >> 12;
  return static_cast<size_t>(guess) + (v >= kPowersOf10[guess] ? 1 : 0);
}

/// The bytes the "results" array of `result` takes, brackets included;
/// `keys` as AttributeKeys. Exact unless a label needs escaping.
size_t ResultsSize(const DetectionResult& result, const PatternSpace& space,
                   const std::vector<std::string>& keys) {
  size_t size = 2;  // []
  for (int k = result.k_min(); k <= result.k_max(); ++k) {
    if (k > result.k_min()) ++size;
    size += 18 + Digits(static_cast<uint64_t>(k));  // {"k":K,"groups":[]}
    const std::vector<Pattern>& groups = result.AtK(k);
    const std::vector<GroupCounts>& counts = result.CountsAtK(k);
    for (size_t g = 0; g < groups.size(); ++g) {
      if (g > 0) ++size;
      // {"pattern":{},"size":S,"top_k_count":T}
      size += 37 + Digits(counts[g].size) + Digits(counts[g].top_k);
      const Pattern& p = groups[g];
      size_t members = 0;
      for (size_t a = 0; a < p.num_attributes(); ++a) {
        if (!p.IsSpecified(a)) continue;
        // "Attr":"label"
        size += keys[a].size() + space.label(a, p.value(a)).size() + 1;
        ++members;
      }
      if (members > 1) size += members - 1;
    }
  }
  return size;
}

}  // namespace

std::string PatternToJson(const Pattern& pattern,
                          const PatternSpace& space) {
  std::string out;
  AppendPattern(out, pattern, space, AttributeKeys(space));
  return out;
}

std::string DetectionResultToJson(const DetectionResult& result,
                                  const DetectionInput& input,
                                  const ReportContext& context) {
  return DetectionResultToJson(result, input.space(), context);
}

std::string DetectionResultToJson(const DetectionResult& result,
                                  const PatternSpace& space,
                                  const ReportContext& context) {
  const DetectionStats& stats = result.stats();
  std::string out = "{\"dataset\":\"";
  AppendJsonEscaped(out, context.dataset);
  out += "\",\"measure\":\"";
  AppendJsonEscaped(out, context.measure);
  out += "\",\"algorithm\":\"";
  AppendJsonEscaped(out, context.algorithm);
  out += "\",\"k_min\":";
  AppendJsonInt(out, result.k_min());
  out += ",\"k_max\":";
  AppendJsonInt(out, result.k_max());
  out += ",\"stats\":{\"nodes_visited\":";
  AppendJsonUint(out, stats.nodes_visited);
  out += ",\"cursor_reuse_hits\":";
  AppendJsonUint(out, stats.cursor_reuse_hits);
  out += ",\"sizes_counted\":";
  AppendJsonUint(out, stats.sizes_counted);
  out += ",\"reexaminations_skipped\":";
  AppendJsonUint(out, stats.reexaminations_skipped);
  out += ",\"seconds\":";
  AppendJsonDouble(out, stats.seconds);
  out += ",\"cpu_seconds\":";
  AppendJsonDouble(out, stats.cpu_seconds);
  out += "},\"results\":";
  // The groups are nearly all of the report: size the buffer for them
  // and the closing brace once.
  const std::vector<std::string> keys = AttributeKeys(space);
  out.reserve(out.size() + ResultsSize(result, space, keys) + 1);
  out += '[';
  for (int k = result.k_min(); k <= result.k_max(); ++k) {
    if (k > result.k_min()) out += ',';
    out += "{\"k\":";
    AppendJsonInt(out, k);
    out += ",\"groups\":[";
    const std::vector<Pattern>& groups = result.AtK(k);
    const std::vector<GroupCounts>& counts = result.CountsAtK(k);
    for (size_t g = 0; g < groups.size(); ++g) {
      if (g > 0) out += ',';
      out += "{\"pattern\":";
      AppendPattern(out, groups[g], space, keys);
      out += ",\"size\":";
      AppendJsonUint(out, counts[g].size);
      out += ",\"top_k_count\":";
      AppendJsonUint(out, counts[g].top_k);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string ExplanationToJson(const GroupExplanation& explanation,
                              const PatternSpace& space) {
  JsonWriter w;
  w.BeginObject();
  w.Key("pattern").Raw(PatternToJson(explanation.pattern, space));
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
