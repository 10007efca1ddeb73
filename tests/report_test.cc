#include "report/json_report.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "datagen/running_example.h"
#include "detect/itertd.h"
#include "test_util.h"

namespace fairtopk {
namespace {

using testing::PatternOf;

/// The report as JsonWriter renders it, member by member: the byte
/// oracle for DetectionResultToJson, which appends directly.
std::string ReferenceReport(const DetectionResult& result,
                            const PatternSpace& space,
                            const ReportContext& context) {
  const auto write_pattern = [&space](JsonWriter& w, const Pattern& p) {
    w.BeginObject();
    for (size_t a = 0; a < p.num_attributes(); ++a) {
      if (!p.IsSpecified(a)) continue;
      w.Key(space.name(a)).String(space.label(a, p.value(a)));
    }
    w.EndObject();
  };
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
      write_pattern(w, groups[g]);
      w.Key("size").Uint(counts[g].size);
      w.Key("top_k_count").Uint(counts[g].top_k);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

struct Fixture {
  DetectionInput input;
  DetectionResult result;
};

Fixture MakeFixture() {
  Result<Table> table = RunningExampleTable();
  EXPECT_TRUE(table.ok());
  auto ranker = RunningExampleRanker();
  auto input = DetectionInput::Prepare(*table, *ranker);
  EXPECT_TRUE(input.ok());
  GlobalBoundSpec bounds;
  bounds.lower = StepFunction::Constant(2.0);
  DetectionConfig config;
  config.k_min = 4;
  config.k_max = 5;
  config.size_threshold = 4;
  auto result = DetectGlobalIterTD(*input, bounds, config);
  EXPECT_TRUE(result.ok());
  return Fixture{std::move(input).value(), std::move(result).value()};
}

TEST(PatternToJsonTest, RendersAssignments) {
  Fixture f = MakeFixture();
  EXPECT_EQ(PatternToJson(PatternOf(4, {{1, 1}, {3, 1}}), f.input.space()),
            "{\"School\":\"GP\",\"Failures\":\"1\"}");
  EXPECT_EQ(PatternToJson(Pattern::Empty(4), f.input.space()), "{}");
}

TEST(DetectionResultToJsonTest, ContainsAllSections) {
  Fixture f = MakeFixture();
  ReportContext context{"running-example", "global", "IterTD"};
  std::string json = DetectionResultToJson(f.result, f.input, context);
  EXPECT_NE(json.find("\"dataset\":\"running-example\""),
            std::string::npos);
  EXPECT_NE(json.find("\"measure\":\"global\""), std::string::npos);
  EXPECT_NE(json.find("\"k_min\":4"), std::string::npos);
  EXPECT_NE(json.find("\"k_max\":5"), std::string::npos);
  EXPECT_NE(json.find("\"nodes_visited\""), std::string::npos);
  EXPECT_NE(json.find("\"results\":["), std::string::npos);
  EXPECT_NE(json.find("\"k\":4"), std::string::npos);
  EXPECT_NE(json.find("\"k\":5"), std::string::npos);
  // One of the known detected groups appears with counts.
  EXPECT_NE(json.find("\"Address\":\"U\""), std::string::npos);
  EXPECT_NE(json.find("\"top_k_count\""), std::string::npos);
}

TEST(DetectionResultToJsonTest, GroupCountsMatchResult) {
  Fixture f = MakeFixture();
  ReportContext context{"d", "global", "a"};
  std::string json = DetectionResultToJson(f.result, f.input, context);
  // Count pattern objects: every group contributes one "pattern" key.
  size_t occurrences = 0;
  size_t pos = 0;
  while ((pos = json.find("\"pattern\"", pos)) != std::string::npos) {
    ++occurrences;
    pos += 9;
  }
  EXPECT_EQ(occurrences,
            f.result.AtK(4).size() + f.result.AtK(5).size());
}

/// Seeded random results over pattern spaces whose names and labels
/// hold every byte JSON escapes, and the counts and timings a real run
/// may print.
class RandomReports {
 public:
  explicit RandomReports(uint64_t seed) : rng_(seed) {}

  /// A string of 0-3 pieces, each plain text, an escaped character or
  /// multi-byte UTF-8; `tag` keeps strings of one family distinct.
  std::string Text(const std::string& tag) {
    static const char* const kPieces[] = {
        "a", "Zeta", " ", "\"", "\\", "\n", "\r", "\t", "\x01", "\x1f",
        "/", "\x7f", "é", "日本", "🙂", "\"\\n", "[10.5, 20.25)"};
    std::string out = tag;
    const uint64_t pieces = rng_.UniformUint64(4);
    for (uint64_t i = 0; i < pieces; ++i) {
      out += kPieces[rng_.UniformUint64(std::size(kPieces))];
    }
    return out;
  }

  /// A table of `rows` rows over 1-8 categorical attributes.
  Table MakeTable(size_t rows) {
    Schema schema;
    const uint64_t attributes = 1 + rng_.UniformUint64(8);
    std::vector<uint64_t> domains;
    for (uint64_t a = 0; a < attributes; ++a) {
      domains.push_back(1 + rng_.UniformUint64(5));
      std::vector<std::string> labels;
      for (uint64_t v = 0; v < domains.back(); ++v) {
        labels.push_back(Text(std::to_string(v)));
      }
      EXPECT_TRUE(
          schema.AddCategorical(Text(std::to_string(a)), labels).ok());
    }
    Result<Table> table = Table::Create(std::move(schema));
    EXPECT_TRUE(table.ok());
    std::vector<Cell> row(attributes);
    for (size_t r = 0; r < rows; ++r) {
      for (uint64_t a = 0; a < attributes; ++a) {
        row[a] =
            Cell::Code(static_cast<int16_t>(rng_.UniformUint64(domains[a])));
      }
      EXPECT_TRUE(table->AppendRow(row).ok());
    }
    return std::move(table).value();
  }

  /// A counted result over `input` for a k range of 1-64 ranks, some
  /// of them without groups, whose counts are then replaced by values
  /// up to 2^40.
  DetectionResult MakeResult(const DetectionInput& input) {
    const int k_min = 1 + static_cast<int>(rng_.UniformUint64(10));
    const int k_max = k_min + static_cast<int>(rng_.UniformUint64(64));
    DetectionResult result(k_min, k_max);
    const PatternSpace& space = input.space();
    for (int k = k_min; k <= k_max; ++k) {
      if (rng_.Bernoulli(0.3)) continue;  // no group at this k
      const uint64_t groups = rng_.UniformUint64(6);
      for (uint64_t g = 0; g < groups; ++g) {
        Pattern p = Pattern::Empty(space.num_attributes());
        for (size_t a = 0; a < space.num_attributes(); ++a) {
          if (rng_.Bernoulli(0.5)) {
            p.SetValue(a, static_cast<int16_t>(rng_.UniformUint64(
                              static_cast<uint64_t>(space.domain_size(a)))));
          }
        }
        result.MutableAtK(k).push_back(p);
      }
    }
    result.CountGroups(input);
    // Stored counts are written only by CountGroups, from an index; no
    // test table has 2^40 rows, so widen them in place (the vectors
    // belong to the non-const `result`).
    for (int k = k_min; k <= k_max; ++k) {
      for (GroupCounts& c :
           const_cast<std::vector<GroupCounts>&>(result.CountsAtK(k))) {
        c = {Count(), Count()};
      }
    }
    DetectionStats& stats = result.stats();
    stats.nodes_visited = Count();
    stats.cursor_reuse_hits = Count();
    stats.sizes_counted = Count();
    stats.reexaminations_skipped = rng_.Bernoulli(0.1)
                                       ? std::numeric_limits<uint64_t>::max()
                                       : Count();
    stats.seconds = Seconds();
    stats.cpu_seconds = Seconds();
    return result;
  }

  /// 0, a power of ten or one below it, 2^40, or uniform below 2^40.
  uint64_t Count() {
    switch (rng_.UniformUint64(5)) {
      case 0:
        return 0;
      case 1:
        return uint64_t{1} << 40;
      case 2: {
        uint64_t power = 1;
        for (uint64_t i = rng_.UniformUint64(13); i > 0; --i) power *= 10;
        return power - rng_.UniformUint64(2);
      }
      default:
        return rng_.UniformUint64((uint64_t{1} << 40) + 1);
    }
  }

  /// A timing, or a value %.10g and null handle specially.
  double Seconds() {
    const double kSpecial[] = {0.0,
                               1e-300,
                               1e300,
                               std::nan(""),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               1.0 / 3.0,
                               123456789.123456789};
    if (rng_.Bernoulli(0.5)) return rng_.UniformDouble() * 10.0;
    return kSpecial[rng_.UniformUint64(std::size(kSpecial))];
  }

  ReportContext Context() {
    return {Text("data"), Text("measure"), Text("algo")};
  }

 private:
  Rng rng_;
};

TEST(DetectionResultToJsonTest, EqualsTheWriterRenderingByteForByte) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RandomReports random(seed);
    for (int t = 0; t < 60; ++t) {
      const Table table = random.MakeTable(80);
      std::vector<uint32_t> ranking(table.num_rows());
      std::iota(ranking.begin(), ranking.end(), 0u);
      Result<DetectionInput> input =
          DetectionInput::PrepareWithRanking(table, std::move(ranking));
      ASSERT_TRUE(input.ok()) << input.status().message();
      for (int r = 0; r < 4; ++r) {
        const DetectionResult result = random.MakeResult(*input);
        const ReportContext context = random.Context();
        const std::string json =
            DetectionResultToJson(result, input->space(), context);
        ASSERT_EQ(json, ReferenceReport(result, input->space(), context))
            << "seed " << seed << ", table " << t << ", result " << r;
        ASSERT_TRUE(ParseJson(json).ok()) << json;
      }
    }
  }
}

TEST(ExplanationToJsonTest, SerializesEffectsAndDistribution) {
  Fixture f = MakeFixture();
  GroupExplanation explanation;
  explanation.pattern = PatternOf(4, {{1, 1}});
  explanation.effects = {{"Grade", -3.25}, {"School", 0.5}};
  explanation.top_attribute_distribution.attribute = "Grade";
  explanation.top_attribute_distribution.bins = {
      {"[0, 10)", 0.0, 0.75}, {"[10, 20)", 1.0, 0.25}};
  std::string json = ExplanationToJson(explanation, f.input.space());
  EXPECT_NE(json.find("\"School\":\"GP\""), std::string::npos);
  EXPECT_NE(json.find("\"attribute\":\"Grade\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_shapley\":-3.25"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"[0, 10)\""), std::string::npos);
  EXPECT_NE(json.find("\"top_k\":0"), std::string::npos);
  EXPECT_NE(json.find("\"group\":0.75"), std::string::npos);
}

}  // namespace
}  // namespace fairtopk
