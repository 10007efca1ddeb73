// Tests for the counts a DetectionResult stores for its groups
// (DetectionResult::CountGroups) and the report bytes it memoizes:
//
//  * every detector entry point stores, for each reported group, the
//    size and top-k count the index gives at that k;
//  * a held result keeps printing the counts of the ranking it ran on
//    after the session's ranking moves;
//  * under a writer racing readers through the JSONL front end, every
//    reported group violates its bound at its printed counts.
//
// Carries the `concurrency` CTest label, so ci.sh's TSan stage runs it.
#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "api/audit.h"
#include "api/canonical.h"
#include "common/json.h"
#include "common/rng.h"
#include "detect/variants.h"
#include "relation/table.h"
#include "report/json_report.h"
#include "service/audit_session.h"
#include "service/jsonl_service.h"
#include "test_util.h"

namespace fairtopk {
namespace {

/// Three pattern attributes and a score biased against g=a and r=x.
Table CountsTable(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("g", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddCategorical("r", {"x", "y", "z"}).ok());
  EXPECT_TRUE(schema.AddCategorical("q", {"u", "v"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const int16_t g = static_cast<int16_t>(rng.UniformUint64(2));
    const int16_t r = static_cast<int16_t>(rng.UniformUint64(3));
    const int16_t q = static_cast<int16_t>(rng.UniformUint64(2));
    const double score = 50.0 + (g == 1 ? 6.0 : 0.0) + (r == 0 ? -3.0 : 0.0) +
                         rng.Gaussian() * 5.0;
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(g), Cell::Code(r), Cell::Code(q),
                                 Cell::Value(score)})
                    .ok());
  }
  return std::move(table).value();
}

/// The table ranked by score, descending.
DetectionInput CountsInput(size_t rows, uint64_t seed) {
  Table table = CountsTable(rows, seed);
  const size_t score_column = table.num_attributes() - 1;
  std::vector<uint32_t> ranking(rows);
  for (size_t i = 0; i < rows; ++i) ranking[i] = static_cast<uint32_t>(i);
  std::sort(ranking.begin(), ranking.end(), [&](uint32_t a, uint32_t b) {
    const double sa = table.ValueAt(a, score_column);
    const double sb = table.ValueAt(b, score_column);
    return sa != sb ? sa > sb : a < b;
  });
  auto input = DetectionInput::PrepareWithRanking(table, ranking);
  EXPECT_TRUE(input.ok()) << input.status().ToString();
  return std::move(input).value();
}

api::AuditRequest RequestFor(const api::DetectorDescriptor& descriptor,
                             int k_min, int k_max) {
  api::AuditRequest request;
  request.detector = descriptor.name;
  request.config.k_min = k_min;
  request.config.k_max = k_max;
  request.config.size_threshold = 8;
  if (descriptor.bounds_kind == api::BoundsKind::kGlobal) {
    auto bounds = GlobalBoundSpec::FractionStaircase(0.4, k_min, k_max);
    EXPECT_TRUE(bounds.ok());
    std::vector<std::pair<int, double>> upper;
    for (int k = k_min; k <= k_max; k += 10) upper.emplace_back(k, 0.3 * k + 2);
    bounds->upper = StepFunction::FromSteps(upper).value();
    request.bounds = *bounds;
  } else {
    PropBoundSpec bounds;
    bounds.alpha = 0.85;
    bounds.beta = 1.3;
    request.bounds = bounds;
  }
  return request;
}

/// Every stored (size, top-k) pair equals the index's counts at its k.
void ExpectIndexCounts(const DetectionResult& result, const BitmapIndex& index,
                       const std::string& label) {
  ASSERT_TRUE(result.counted()) << label;
  EXPECT_EQ(result.num_rows(), index.num_rows()) << label;
  for (int k = result.k_min(); k <= result.k_max(); ++k) {
    const std::vector<Pattern>& groups = result.AtK(k);
    const std::vector<GroupCounts>& counts = result.CountsAtK(k);
    ASSERT_EQ(counts.size(), groups.size()) << label << " k=" << k;
    for (size_t g = 0; g < groups.size(); ++g) {
      const GroupCounts expected{index.PatternCount(groups[g]),
                                 index.TopKCount(groups[g],
                                                 static_cast<size_t>(k))};
      EXPECT_EQ(counts[g], expected)
          << label << " k=" << k << " "
          << groups[g].ToString(index.space());
    }
  }
}

TEST(StoredCountsTest, EveryDetectorStoresTheIndexCounts) {
  const DetectionInput input = CountsInput(600, 3);
  const std::pair<int, int> ranges[] = {{1, 12}, {5, 40}, {90, 260}};
  size_t groups_checked = 0;
  for (const api::DetectorDescriptor& descriptor :
       api::DetectorRegistry::Global().detectors()) {
    for (const auto& [k_min, k_max] : ranges) {
      const std::string label = descriptor.name + " [" +
                                std::to_string(k_min) + "," +
                                std::to_string(k_max) + "]";
      auto result = api::RunAudit(input, RequestFor(descriptor, k_min, k_max));
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      ExpectIndexCounts(*result, input.index(), label);
      for (int k = k_min; k <= k_max; ++k) {
        groups_checked += result->AtK(k).size();
      }
    }
  }
  EXPECT_GT(groups_checked, 100u);

  // The enumeration variants build their results outside the streaming
  // path; they store counts too.
  const DetectionConfig config{5, 40, 8};
  auto global = DetectGlobalVariant(
      input,
      std::get<GlobalBoundSpec>(
          RequestFor(*api::DetectorRegistry::Global().Find("GlobalBounds"), 5,
                     40)
              .bounds),
      config, ViolationSide::kAboveUpper, ReportingSemantics::kMostGeneral);
  ASSERT_TRUE(global.ok());
  ExpectIndexCounts(*global, input.index(), "global variant");
  PropBoundSpec prop;
  prop.alpha = 0.85;
  auto below = DetectPropVariant(input, prop, config,
                                 ViolationSide::kBelowLower,
                                 ReportingSemantics::kMostSpecific);
  ASSERT_TRUE(below.ok());
  ExpectIndexCounts(*below, input.index(), "prop variant");
}

TEST(StoredCountsTest, CountGroupsCountsAHandBuiltResult) {
  const DetectionInput input = CountsInput(300, 5);
  const Pattern gx = testing::PatternOf(3, {{0, 0}, {1, 0}});
  const Pattern q = testing::PatternOf(3, {{2, 1}});
  DetectionResult result(1, 200);
  result.MutableAtK(1) = {gx};
  result.MutableAtK(2) = {gx};
  result.MutableAtK(150) = {gx, q};
  result.MutableAtK(170) = {q};
  EXPECT_FALSE(result.counted());
  result.CountGroups(input);
  ExpectIndexCounts(result, input.index(), "hand-built");
  // An edit drops the counts until they are taken again.
  result.MutableAtK(3) = {q};
  EXPECT_FALSE(result.counted());
}

TEST(StoredCountsTest, ReportBytesAreBuiltOncePerResult) {
  DetectionResult result(1, 1);
  int builds = 0;
  auto build = [&] {
    ++builds;
    return std::string("bytes ") + std::to_string(builds);
  };
  auto first = result.ReportBytes(build);
  auto again = result.ReportBytes(build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(*again, "bytes 1");
  // A copy may be edited, so it starts without stored bytes.
  DetectionResult copy = result;
  EXPECT_EQ(*copy.ReportBytes(build), "bytes 2");
  // So does an edited result.
  result.MutableAtK(1) = {};
  EXPECT_EQ(*result.ReportBytes(build), "bytes 3");
}

// Regression: serializing a result used to recount its groups from the
// session's current index, so an update landing between Detect and
// serialization printed the next ranking's counts beside this
// ranking's groups.
TEST(StoredCountsTest, HeldResultPrintsTheCountsOfItsOwnRanking) {
  auto session = AuditSession::Create(CountsTable(300, 7), "score");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const api::DetectorDescriptor& descriptor =
      *api::DetectorRegistry::Global().Find("PropBounds");
  auto held = session->Detect(RequestFor(descriptor, 5, 30));
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  const ReportContext context{"held", "proportional", "PropBounds"};
  const std::string before =
      DetectionResultToJson(*held->result, session->input(), context);

  // Move a row of a reported group from below the top-k to rank 1.
  const int k = 30;
  ASSERT_FALSE(held->result->AtK(k).empty());
  const Pattern group = held->result->AtK(k).front();
  const BitmapIndex& index = session->input().index();
  const size_t top_k_before = index.TopKCount(group, k);
  uint32_t mover = std::numeric_limits<uint32_t>::max();
  for (size_t pos = k; pos < index.num_rows(); ++pos) {
    if (index.RankedRowSatisfies(group, pos)) {
      mover = index.RowIdAtRank(pos);
      break;
    }
  }
  ASSERT_NE(mover, std::numeric_limits<uint32_t>::max());
  const double top_score = session->scores()[session->ranking().front()];
  ASSERT_TRUE(session->ApplyScoreUpdates({{mover, top_score + 100.0}}).ok());
  ASSERT_EQ(session->input().index().TopKCount(group, k), top_k_before + 1);

  EXPECT_EQ(DetectionResultToJson(*held->result, session->input(), context),
            before);
}

/// True iff `top` violates the detector's bound at `k` for a group of
/// `size` rows out of `num_rows`.
bool Violates(const api::DetectorDescriptor& descriptor,
              const api::BoundsSpec& bounds, int k, double size, double top,
              size_t num_rows) {
  if (const auto* global = std::get_if<GlobalBoundSpec>(&bounds)) {
    return descriptor.lower_violations ? top < global->lower.At(k)
                                       : top > global->upper.At(k);
  }
  const auto& prop = std::get<PropBoundSpec>(bounds);
  const int size_d = static_cast<int>(size);
  return descriptor.lower_violations
             ? top < prop.LowerAt(size_d, k, num_rows)
             : top > prop.UpperAt(size_d, k, num_rows);
}

TEST(StoredCountsTest, ReportsStayConsistentWhileUpdatesRace) {
  constexpr size_t kRows = 1000;
  auto session = AuditSession::Create(CountsTable(kRows, 11), "score");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ServeDefaults defaults;
  defaults.dataset = "race";
  defaults.config = DetectionConfig{5, 40, 8};
  JsonlService service(&session.value(), defaults);

  const std::vector<std::string> queries = {
      R"({"op":"detect","detector":"PropBounds","alpha":0.85})",
      R"({"op":"detect","detector":"GlobalBounds","lower":0.4})",
      R"({"op":"detect","detector":"PropUpperBounds","beta":1.3})"};
  // The bounds each query line decodes to, through the service's codec.
  std::vector<const api::DetectorDescriptor*> descriptors;
  std::vector<api::BoundsSpec> bounds;
  for (const std::string& line : queries) {
    const JsonValue json = ParseJson(line).value();
    const api::DetectorDescriptor* descriptor =
        api::DetectorRegistry::Global().Find(json.StringOr("detector", ""));
    ASSERT_NE(descriptor, nullptr);
    auto config = api::ConfigFromJson(json, defaults.config);
    ASSERT_TRUE(config.ok());
    auto spec = api::BoundsFromJson(json, descriptor->bounds_kind,
                                    defaults.bounds, *config);
    ASSERT_TRUE(spec.ok());
    descriptors.push_back(descriptor);
    bounds.push_back(*spec);
  }

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    Rng rng(17);
    for (int batch = 0; batch < 200; ++batch) {
      std::string line = R"({"op":"update","scores":[)";
      for (int i = 0; i < 6; ++i) {
        if (i > 0) line += ',';
        line += '[' + std::to_string(rng.UniformUint64(kRows)) + ',' +
                std::to_string(50.0 + rng.Gaussian() * 8.0) + ']';
      }
      line += "]}";
      const std::string response = service.HandleLine(line);
      EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    }
    writer_done.store(true);
  });

  constexpr int kReaders = 3;
  std::vector<int> detects(kReaders, 0);
  std::vector<int> groups(kReaders, 0);
  std::vector<std::string> torn(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Read while the writer runs, and at least two rounds in all.
      const int min_detects = 2 * static_cast<int>(queries.size());
      for (size_t i = static_cast<size_t>(r);
           !writer_done.load() || detects[r] < min_detects; ++i) {
        const size_t q = i % queries.size();
        const std::string response = service.HandleLine(queries[q]);
        ++detects[r];
        auto parsed = ParseJson(response);
        if (!parsed.ok() || !parsed->BoolOr("ok", false)) {
          torn[r] = "bad response: " + response.substr(0, 200);
          return;
        }
        const JsonValue* report = parsed->Find("data")->Find("report");
        for (const JsonValue& at_k : report->Find("results")->array_items()) {
          const int k = static_cast<int>(at_k.NumberOr("k", 0));
          for (const JsonValue& group : at_k.Find("groups")->array_items()) {
            ++groups[r];
            if (!Violates(*descriptors[q], bounds[q], k,
                          group.NumberOr("size", -1),
                          group.NumberOr("top_k_count", -1), kRows)) {
              torn[r] = descriptors[q]->name + " k=" + std::to_string(k) +
                        " prints counts that meet its bound";
              return;
            }
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(torn[r], "") << "reader " << r;
    EXPECT_GE(detects[r], 2 * static_cast<int>(queries.size()));
    EXPECT_GT(groups[r], 0) << "reader " << r << " saw no groups";
  }
}

}  // namespace
}  // namespace fairtopk
