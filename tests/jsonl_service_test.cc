// Unit tests for the JSONL request/response protocol layer
// (src/service/jsonl_service.h), driven in-process against a small
// session: every response line must itself parse as JSON, carry the
// echoed id, and follow the {ok, data|error} envelope.
#include "service/jsonl_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/metrics/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "relation/table.h"
#include "service/request_pipeline.h"
#include "service/session_catalog.h"

namespace fairtopk {
namespace {

Table ServiceTable(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("gender", {"F", "M"}).ok());
  EXPECT_TRUE(schema.AddCategorical("region", {"north", "south"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const int16_t gender = static_cast<int16_t>(rng.UniformUint64(2));
    const int16_t region = static_cast<int16_t>(rng.UniformUint64(2));
    const double score =
        50.0 + (gender == 1 ? 15.0 : 0.0) + rng.Gaussian() * 5.0;
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(gender), Cell::Code(region),
                                 Cell::Value(score)})
                    .ok());
  }
  return std::move(table).value();
}

class JsonlServiceTest : public ::testing::Test {
 protected:
  JsonlServiceTest() {
    auto session = AuditSession::Create(ServiceTable(100, 99), "score");
    EXPECT_TRUE(session.ok());
    session_.emplace(std::move(session).value());
    ServeDefaults defaults;
    defaults.dataset = "unit-fixture";
    defaults.config = DetectionConfig{5, 30, 10};
    service_.emplace(&session_.value(), defaults);
  }

  /// Handles `line` and parses the response, asserting it is valid
  /// JSON with the envelope fields. The raw response is kept in
  /// `last_response_` for failure messages.
  JsonValue Roundtrip(const std::string& line) {
    last_response_ = service_->HandleLine(line);
    auto parsed = ParseJson(last_response_);
    EXPECT_TRUE(parsed.ok()) << last_response_;
    EXPECT_TRUE(parsed->is_object()) << last_response_;
    EXPECT_NE(parsed->Find("ok"), nullptr) << last_response_;
    EXPECT_NE(parsed->Find("id"), nullptr) << last_response_;
    return std::move(parsed).value();
  }

  JsonValue ExpectOk(const std::string& line) {
    JsonValue v = Roundtrip(line);
    EXPECT_TRUE(v.BoolOr("ok", false)) << last_response_;
    EXPECT_NE(v.Find("data"), nullptr);
    return v;
  }

  JsonValue ExpectError(const std::string& line, const std::string& code) {
    JsonValue v = Roundtrip(line);
    EXPECT_FALSE(v.BoolOr("ok", true));
    const JsonValue* error = v.Find("error");
    EXPECT_NE(error, nullptr);
    if (error != nullptr) {
      EXPECT_EQ(error->StringOr("code", ""), code);
    }
    return v;
  }

  std::optional<AuditSession> session_;
  std::optional<JsonlService> service_;
  std::string last_response_;
};

TEST_F(JsonlServiceTest, DetectUsesDefaultsAndReportsSchema) {
  JsonValue v = ExpectOk(R"({"op":"detect","id":"q1"})");
  EXPECT_EQ(v.Find("id")->string_value(), "q1");
  const JsonValue* data = v.Find("data");
  EXPECT_FALSE(data->BoolOr("cached", true));
  const JsonValue* report = data->Find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->StringOr("dataset", ""), "unit-fixture");
  EXPECT_EQ(report->StringOr("algorithm", ""), "PropBounds");
  EXPECT_DOUBLE_EQ(report->NumberOr("k_min", 0), 5.0);
  EXPECT_DOUBLE_EQ(report->NumberOr("k_max", 0), 30.0);
  ASSERT_NE(report->Find("results"), nullptr);
  EXPECT_EQ(report->Find("results")->array_items().size(), 26u);
}

TEST_F(JsonlServiceTest, SecondIdenticalDetectIsCached) {
  ExpectOk(R"({"op":"detect","id":1})");
  JsonValue v = ExpectOk(R"({"op":"detect","id":2})");
  EXPECT_TRUE(v.Find("data")->BoolOr("cached", false));
}

TEST_F(JsonlServiceTest, DetectSelectsDetector) {
  JsonValue v = ExpectOk(
      R"({"op":"detect","measure":"global","algo":"itertd","lower":0.3})");
  EXPECT_EQ(v.Find("data")->Find("report")->StringOr("algorithm", ""),
            "GlobalIterTD");
  ExpectError(R"({"op":"detect","measure":"nope"})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect","algo":"nope"})", "INVALID_ARGUMENT");
}

TEST_F(JsonlServiceTest, DetectSelectsDetectorByRegistryName) {
  JsonValue v = ExpectOk(R"({"op":"detect","detector":"GlobalIterTD"})");
  EXPECT_EQ(v.Find("data")->Find("report")->StringOr("algorithm", ""),
            "GlobalIterTD");
  ExpectError(R"({"op":"detect","detector":"NoSuchDetector"})",
              "NOT_FOUND");
  ExpectError(R"({"op":"detect","detector":7})", "INVALID_ARGUMENT");
}

TEST_F(JsonlServiceTest, CapabilitiesListsAllRegisteredDetectors) {
  JsonValue v = ExpectOk(R"({"op":"capabilities","id":"c1"})");
  const JsonValue* detectors = v.Find("data")->Find("detectors");
  ASSERT_NE(detectors, nullptr);
  ASSERT_TRUE(detectors->is_array());
  ASSERT_EQ(detectors->array_items().size(), 6u);
  std::vector<std::string> names;
  for (const JsonValue& d : detectors->array_items()) {
    names.push_back(d.StringOr("name", ""));
    // Every entry carries its wire identity and a parameter schema
    // whose bound fields match the declared kind.
    EXPECT_FALSE(d.StringOr("measure", "").empty());
    EXPECT_FALSE(d.StringOr("algo", "").empty());
    EXPECT_FALSE(d.StringOr("summary", "").empty());
    const JsonValue* params = d.Find("params");
    ASSERT_NE(params, nullptr);
    EXPECT_NE(params->Find("k_min"), nullptr);
    EXPECT_NE(params->Find("tau"), nullptr);
    // Every search runs on one thread: there is no thread knob.
    EXPECT_EQ(params->Find("threads"), nullptr);
    if (d.StringOr("bounds", "") == "global") {
      EXPECT_NE(params->Find("lower_steps"), nullptr);
      EXPECT_EQ(params->Find("alpha"), nullptr);
    } else {
      EXPECT_NE(params->Find("alpha"), nullptr);
      EXPECT_EQ(params->Find("lower_steps"), nullptr);
    }
  }
  const std::vector<std::string> expected = {
      "GlobalIterTD", "PropIterTD",        "GlobalBounds",
      "PropBounds",   "GlobalUpperBounds", "PropUpperBounds"};
  EXPECT_EQ(names, expected);

  // The startup-selected bitset kernel is part of the capability
  // surface: a named variant that appears in the available list.
  const std::string kernel = v.Find("data")->StringOr("kernel", "");
  EXPECT_FALSE(kernel.empty());
  const JsonValue* available = v.Find("data")->Find("kernels_available");
  ASSERT_NE(available, nullptr);
  ASSERT_TRUE(available->is_array());
  bool kernel_listed = false;
  for (const JsonValue& name : available->array_items()) {
    if (name.string_value() == kernel) kernel_listed = true;
  }
  EXPECT_TRUE(kernel_listed);
  EXPECT_EQ(available->array_items().back().string_value(), "scalar");
}

TEST_F(JsonlServiceTest, DetectBatchDedupesAndAlignsResults) {
  JsonValue v = ExpectOk(
      R"({"op":"detect_batch","queries":[)"
      R"({"measure":"prop","algo":"bounds"},)"
      R"({"detector":"GlobalIterTD","lower":0.3},)"
      R"({"measure":"prop","algo":"bounds"}]})");
  const JsonValue* results = v.Find("data")->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array_items().size(), 3u);
  const JsonValue& first = results->array_items()[0];
  const JsonValue& second = results->array_items()[1];
  const JsonValue& third = results->array_items()[2];
  EXPECT_FALSE(first.BoolOr("cached", true));
  EXPECT_FALSE(second.BoolOr("cached", true));
  EXPECT_TRUE(third.BoolOr("cached", false));
  EXPECT_EQ(first.Find("report")->StringOr("algorithm", ""), "PropBounds");
  EXPECT_EQ(second.Find("report")->StringOr("algorithm", ""),
            "GlobalIterTD");

  ExpectError(R"({"op":"detect_batch"})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect_batch","queries":[]})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect_batch","queries":[{"measure":"nope"}]})",
              "INVALID_ARGUMENT");
}

TEST_F(JsonlServiceTest, DetectAcceptsExplicitSteps) {
  JsonValue v = ExpectOk(
      R"({"op":"detect","measure":"global","algo":"bounds",)"
      R"("lower_steps":[[5,2],[15,5]]})");
  EXPECT_EQ(v.Find("data")->Find("report")->StringOr("measure", ""),
            "global");
  ExpectError(
      R"({"op":"detect","measure":"global","lower_steps":[[15,5],[5,2]]})",
      "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect","k_min":2.5})", "INVALID_ARGUMENT");
}

TEST_F(JsonlServiceTest, UpdateThenDetectIsNotCached) {
  ExpectOk(R"({"op":"detect"})");
  JsonValue update = ExpectOk(R"({"op":"update","scores":[[0,999.0]]})");
  const JsonValue* data = update.Find("data");
  EXPECT_DOUBLE_EQ(data->NumberOr("rows_updated", 0), 1.0);
  const std::string kind = data->StringOr("maintenance", "");
  EXPECT_TRUE(kind == "patched" || kind == "rebuilt") << kind;
  JsonValue v = ExpectOk(R"({"op":"detect"})");
  EXPECT_FALSE(v.Find("data")->BoolOr("cached", true));
}

TEST_F(JsonlServiceTest, UpdateValidation) {
  ExpectError(R"({"op":"update"})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"update","scores":[[0]]})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"update","scores":[[-1,5]]})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"update","scores":[[100000,5]]})", "OUT_OF_RANGE");
  // Row ids beyond uint32 must be rejected, not wrapped onto row 0.
  const double score_before = session_->scores()[0];
  ExpectError(R"({"op":"update","scores":[[4294967296,5]]})",
              "INVALID_ARGUMENT");
  EXPECT_DOUBLE_EQ(session_->scores()[0], score_before);
}

TEST_F(JsonlServiceTest, MistypedParametersErrorInsteadOfDefaulting) {
  // A present-but-wrong-typed parameter must fail loudly — silently
  // substituting the default would yield confidently wrong results.
  ExpectError(R"({"op":"detect","alpha":"0.99"})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect","measure":"prop","beta":"2"})",
              "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect","measure":"global","lower":"0.5"})",
              "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect","k_min":"5"})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect","k_min":99999999999999})",
              "INVALID_ARGUMENT");
  ExpectError(
      R"({"op":"detect","measure":"global","lower_steps":[[5.5,2]]})",
      "INVALID_ARGUMENT");
  // Bound fields of the other family are refused, typed or not: the
  // detector would never read them.
  ExpectError(R"({"op":"detect","measure":"global","alpha":"0.9"})",
              "INVALID_ARGUMENT");
  ExpectError(
      R"({"op":"detect","measure":"prop","lower_steps":[[5,2],[1,1]]})",
      "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect","measure":"prop","upper":"9"})",
              "INVALID_ARGUMENT");
  // So are mistyped detector selectors.
  ExpectError(R"({"op":"detect","measure":1,"algo":2})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"detect","measure":"global","algo":true})",
              "INVALID_ARGUMENT");
}

/// The error message of a refused request.
std::string ErrorMessage(const JsonValue& response) {
  const JsonValue* error = response.Find("error");
  return error == nullptr ? "" : error->StringOr("message", "");
}

TEST_F(JsonlServiceTest, UndeclaredFieldsAreRefusedByName) {
  // Each of these was answered ok with the field ignored: the CLI
  // spelling of k_min/k_max fell back to the session default.
  const std::pair<std::string, std::string> cases[] = {
      {R"({"op":"detect","measure":"global","algo":"itertd","kmin":5})",
       "'kmin'"},
      {R"({"op":"detect","detector":"GlobalIterTD","alpha":0.8})",
       "'alpha'"},
      {R"({"op":"detect","detector":"PropBounds","lower_steps":[[5,2]]})",
       "'lower_steps'"},
      {R"({"op":"suggest","tau":3})", "'tau'"},
      {R"({"op":"detect_batch","queries":[{"detector":"GlobalIterTD"},)"
       R"({"session":"nope","detector":"GlobalIterTD"}]})",
       "'session'"},
      {R"({"op":"detect_batch","queries":[{"op":"detect"}]})", "'op'"},
      {R"({"op":"save","pth":"/nonexistent/x.ftk"})", "'pth'"},
      {R"({"op":"stats","verbose":true})", "'verbose'"},
  };
  for (const auto& [line, field] : cases) {
    JsonValue v = ExpectError(line, "INVALID_ARGUMENT");
    EXPECT_NE(ErrorMessage(v).find(field), std::string::npos)
        << line << " -> " << last_response_;
  }
  // An undeclared field's message lists the declared ones, so the
  // CLI spelling points to the wire spelling.
  JsonValue v = ExpectError(R"({"op":"detect","kmin":5})", "INVALID_ARGUMENT");
  EXPECT_NE(ErrorMessage(v).find("'detect'"), std::string::npos);
  EXPECT_NE(ErrorMessage(v).find("k_min"), std::string::npos);
  // A wrong type and a value below the declared minimum name the field.
  v = ExpectError(R"({"op":"detect","k_max":[20]})", "INVALID_ARGUMENT");
  EXPECT_NE(ErrorMessage(v).find("'k_max'"), std::string::npos);
  v = ExpectError(R"({"op":"detect_batch","queries":[7]})",
                  "INVALID_ARGUMENT");
  EXPECT_NE(ErrorMessage(v).find("'queries'"), std::string::npos);
  // Nothing ran: the refused detects filled no cache entry.
  EXPECT_EQ(session_->cache_size(), 0u);
}

TEST_F(JsonlServiceTest, AppendByLabelsGrowsSession) {
  JsonValue v = ExpectOk(
      R"({"op":"append","rows":[)"
      R"({"gender":"F","region":"north","score":200.0},)"
      R"({"gender":"M","region":"south","score":-5.0}]})");
  const JsonValue* data = v.Find("data");
  EXPECT_DOUBLE_EQ(data->NumberOr("rows_appended", 0), 2.0);
  EXPECT_DOUBLE_EQ(data->NumberOr("num_rows", 0), 102.0);
  EXPECT_EQ(session_->ranking().front(), 100u);  // the 200.0 row

  ExpectError(R"({"op":"append","rows":[{"gender":"F"}]})",
              "INVALID_ARGUMENT");
  ExpectError(
      R"({"op":"append","rows":[)"
      R"({"gender":"alien","region":"north","score":1.0}]})",
      "NOT_FOUND");
  ExpectError(
      R"({"op":"append","rows":[)"
      R"({"gender":"F","region":"north","score":"high"}]})",
      "INVALID_ARGUMENT");
  // A member that names no column is refused before any row lands: a
  // misspelled column must not be dropped while the row is appended.
  JsonValue v2 = ExpectError(
      R"({"op":"append","rows":[)"
      R"({"gender":"F","region":"north","score":1.0},)"
      R"({"gender":"F","region":"north","score":99.0,"regoin":"south"}]})",
      "INVALID_ARGUMENT");
  EXPECT_NE(ErrorMessage(v2).find("'regoin'"), std::string::npos)
      << last_response_;
  EXPECT_NE(ErrorMessage(v2).find("row 1"), std::string::npos)
      << last_response_;
  EXPECT_EQ(session_->num_rows(), 102u);
}

TEST_F(JsonlServiceTest, VerifyReportsViolations) {
  JsonValue v = ExpectOk(
      R"({"op":"verify","measure":"global","lower":0.4,)"
      R"("group":{"gender":"F"}})");
  const JsonValue* data = v.Find("data");
  EXPECT_GT(data->NumberOr("size", 0), 0.0);
  ASSERT_NE(data->Find("violations"), nullptr);
  // The fixture penalizes F heavily; a 0.4k floor must be violated.
  EXPECT_FALSE(data->BoolOr("fair", true));
  EXPECT_FALSE(data->Find("violations")->array_items().empty());

  ExpectError(R"({"op":"verify"})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"verify","group":{"gender":"X"}})", "NOT_FOUND");
  ExpectError(R"({"op":"verify","group":{"height":"F"}})", "NOT_FOUND");
  ExpectError(R"({"op":"verify","group":{}})", "INVALID_ARGUMENT");
}

TEST_F(JsonlServiceTest, SuggestReturnsCalibration) {
  JsonValue v = ExpectOk(R"({"op":"suggest","max_groups":10})");
  const JsonValue* data = v.Find("data");
  EXPECT_GT(data->NumberOr("tau", 0), 0.0);
  EXPECT_NE(data->Find("lower_steps"), nullptr);
  EXPECT_NE(data->Find("alpha"), nullptr);
  ExpectError(R"({"op":"suggest","max_groups":0})", "INVALID_ARGUMENT");
}

TEST_F(JsonlServiceTest, RerankReportsRepairOutcome) {
  JsonValue v = ExpectOk(
      R"({"op":"rerank","measure":"global","algo":"bounds","lower":0.3})");
  const JsonValue* data = v.Find("data");
  ASSERT_NE(data->Find("feasible"), nullptr);
  ASSERT_NE(data->Find("tuples_moved"), nullptr);
  ASSERT_NE(data->Find("unsatisfied"), nullptr);
  // Upper-bound detections must never feed the repair (their groups
  // would become representation floors, amplifying the violation).
  ExpectError(
      R"({"op":"rerank","measure":"global","algo":"upper","upper":5})",
      "INVALID_ARGUMENT");
}

TEST_F(JsonlServiceTest, StatsAndInvalidate) {
  ExpectOk(R"({"op":"detect"})");
  ExpectOk(R"({"op":"detect"})");
  JsonValue stats = ExpectOk(R"({"op":"stats"})");
  const JsonValue* data = stats.Find("data");
  EXPECT_DOUBLE_EQ(data->NumberOr("num_rows", 0), 100.0);
  EXPECT_DOUBLE_EQ(data->NumberOr("detect_queries", 0), 2.0);
  EXPECT_DOUBLE_EQ(data->NumberOr("cache_hits", 0), 1.0);
  EXPECT_DOUBLE_EQ(data->NumberOr("cache_entries", 0), 1.0);
  // The serving stats surface which bitset kernel this process
  // dispatches through (matches the capabilities op).
  EXPECT_FALSE(data->StringOr("kernel", "").empty());

  JsonValue inv = ExpectOk(R"({"op":"invalidate"})");
  EXPECT_DOUBLE_EQ(inv.Find("data")->NumberOr("cache_entries", -1), 0.0);
  JsonValue after = ExpectOk(R"({"op":"detect"})");
  EXPECT_FALSE(after.Find("data")->BoolOr("cached", true));
}

TEST_F(JsonlServiceTest, StatsReportsServerBlock) {
  JsonlService configured(&session_.value(), ServeDefaults{});
  configured.set_server_workers(4);
  auto parsed = ParseJson(configured.HandleLine(R"({"op":"stats"})"));
  ASSERT_TRUE(parsed.ok());
  const JsonValue* server = parsed->Find("data")->Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->NumberOr("uptime_seconds", -1), 0.0);
  EXPECT_FALSE(server->StringOr("kernel", "").empty());
  EXPECT_DOUBLE_EQ(server->NumberOr("workers", 0), 4.0);
  // Single-session services report their one session.
  EXPECT_DOUBLE_EQ(server->NumberOr("sessions", 0), 1.0);
}

TEST_F(JsonlServiceTest, MetricsOpDumpsRegistry) {
  ExpectOk(R"({"op":"detect"})");
  JsonValue v = ExpectOk(R"({"op":"metrics"})");
  const JsonValue* families = v.Find("data")->Find("families");
  ASSERT_NE(families, nullptr);
  ASSERT_TRUE(families->is_array());
  // The detect above must be visible in the wire-layer request
  // counters (other suites may have added more — assert at-least).
  double detect_requests = -1;
  for (const JsonValue& family : families->array_items()) {
    if (family.StringOr("name", "") != "fairtopk_requests_total") continue;
    for (const JsonValue& series : family.Find("series")->array_items()) {
      if (series.Find("labels")->StringOr("op", "") == "detect") {
        detect_requests = series.NumberOr("value", -1);
      }
    }
  }
  EXPECT_GE(detect_requests, 1.0);
  EXPECT_GE(v.Find("data")->NumberOr("uptime_seconds", -1), 0.0);
}

TEST_F(JsonlServiceTest, SlowQueryLogWritesTraceLines) {
  std::ostringstream log;
  ObservabilityOptions observability;
  observability.slow_query_log_micros = 1;  // everything is "slow"
  observability.slow_query_stream = &log;
  service_->set_observability(observability);
  ExpectOk(R"({"op":"detect","id":"slow-1"})");

  std::istringstream lines(log.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line)) << "no slow-query line written";
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_TRUE(parsed->BoolOr("slow_query", false));
  EXPECT_EQ(parsed->StringOr("op", ""), "detect");
  EXPECT_EQ(parsed->Find("id")->string_value(), "slow-1");
  EXPECT_GE(parsed->NumberOr("micros", -1), 1.0);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("threshold_micros", 0), 1.0);
  // A traced detect reports the full span chain and the engine's work
  // counters.
  const JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  for (const char* span : {"parse", "session_acquire", "search", "serialize"}) {
    EXPECT_NE(spans->Find(span), nullptr) << span << " missing: " << line;
  }
  EXPECT_GE(parsed->Find("counters")->NumberOr("nodes_visited", -1), 0.0);

  // Turning the log off again must stop tracing entirely.
  const std::string before = log.str();
  service_->set_observability(ObservabilityOptions{});
  ExpectOk(R"({"op":"detect","id":"fast"})");
  EXPECT_EQ(log.str(), before);
}

TEST_F(JsonlServiceTest, ProtocolErrors) {
  ExpectError("not json", "INVALID_ARGUMENT");
  ExpectError("[1,2,3]", "INVALID_ARGUMENT");
  ExpectError(R"({"no_op":true})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"fly"})", "INVALID_ARGUMENT");
  // A missing op and an op of the wrong type are different mistakes.
  JsonValue missing = ExpectError(R"({"no_op":true})", "INVALID_ARGUMENT");
  EXPECT_EQ(missing.Find("error")->StringOr("message", ""),
            "request misses 'op'");
  JsonValue mistyped = ExpectError(R"({"op":1})", "INVALID_ARGUMENT");
  EXPECT_EQ(mistyped.Find("error")->StringOr("message", ""),
            "'op' must be a string");
}

TEST_F(JsonlServiceTest, ResponsesSpliceOneReportAndLeaveRoomForTheNewline) {
  const std::string head =
      R"({"id":1,"ok":true,"data":{"cached":false,"coalesced":false,)"
      R"("report":)";
  const std::string first = service_->HandleLine(R"({"op":"detect","id":1})");
  ASSERT_EQ(first.compare(0, head.size(), head), 0) << first;
  ASSERT_EQ(first.substr(first.size() - 2), "}}");
  const std::string report =
      first.substr(head.size(), first.size() - head.size() - 2);
  ASSERT_TRUE(ParseJson(report).ok()) << report;
  // A cache hit and both members of a batch carry the same bytes.
  const std::string hit = R"({"cached":true,"coalesced":false,"report":)";
  EXPECT_EQ(service_->HandleLine(R"({"op":"detect","id":2})"),
            R"({"id":2,"ok":true,"data":)" + hit + report + "}}");
  EXPECT_EQ(service_->HandleLine(
                R"({"op":"detect_batch","id":3,"queries":[{},{}]})"),
            R"({"id":3,"ok":true,"data":{"results":[)" + hit + report +
                "}," + hit + report + "}]}}");
  // Every response leaves the front end room for its newline.
  for (const std::string line :
       {R"({"op":"detect","id":4})", R"({"op":"stats"})",
        R"({"op":"detect","k_min":"x"})", "not json"}) {
    const std::string response = service_->HandleLine(line);
    EXPECT_GT(response.capacity(), response.size()) << response;
  }
}

TEST_F(JsonlServiceTest, IdEchoCoversScalarTypes) {
  EXPECT_EQ(Roundtrip(R"({"op":"stats","id":"abc"})")
                .Find("id")
                ->string_value(),
            "abc");
  EXPECT_DOUBLE_EQ(
      Roundtrip(R"({"op":"stats","id":7})").Find("id")->number_value(),
      7.0);
  EXPECT_TRUE(Roundtrip(R"({"op":"stats"})").Find("id")->is_null());
  EXPECT_TRUE(
      Roundtrip(R"({"op":"stats","id":[1]})").Find("id")->is_null());
  EXPECT_TRUE(
      Roundtrip(R"({"op":"stats","id":true})").Find("id")->bool_value());
  // Fractional ids echo in the shortest form that reads back as the
  // same double; %.10g would answer 0.123456789 and 12345.6789.
  for (const std::string id : {"0.1234567890123", "12345.678901234", "-2.5",
                               "1e+300", "5e-324", "0.1"}) {
    const JsonValue v = Roundtrip(R"({"op":"stats","id":)" + id + "}");
    EXPECT_EQ(last_response_.compare(0, 6 + id.size() + 1,
                                     "{\"id\":" + id + ","),
              0)
        << last_response_;
    EXPECT_EQ(v.Find("id")->number_value(), std::strtod(id.c_str(), nullptr))
        << id;
  }
}

TEST_F(JsonlServiceTest, LargeIntegerIdsEchoExactly) {
  // Epoch-millis-sized ids exceed Double()'s %.10g precision; the echo
  // must render them exactly or clients cannot correlate responses.
  Roundtrip(R"({"op":"stats","id":1722400000123})");
  EXPECT_NE(last_response_.find("\"id\":1722400000123"),
            std::string::npos)
      << last_response_;
  EXPECT_DOUBLE_EQ(Roundtrip(R"({"op":"stats","id":-42})")
                       .Find("id")
                       ->number_value(),
                   -42.0);
}

TEST_F(JsonlServiceTest, Uint64IdsEchoExactly) {
  // Ids in [2^63, 2^64) — uint64 snowflake ids — previously fell
  // through to the %.10g double path and came back corrupted.
  Roundtrip(R"({"op":"stats","id":9223372036854775808})");
  EXPECT_NE(last_response_.find("\"id\":9223372036854775808"),
            std::string::npos)
      << last_response_;
  // The largest integral double below 2^64.
  Roundtrip(R"({"op":"stats","id":18446744073709549568})");
  EXPECT_NE(last_response_.find("\"id\":18446744073709549568"),
            std::string::npos)
      << last_response_;
  // At 2^64 and beyond no integer type fits: the echo is the shortest
  // form that reads back as the request's double, here all its digits.
  Roundtrip(R"({"op":"stats","id":18446744073709551616})");
  EXPECT_NE(last_response_.find("\"id\":18446744073709551616,"),
            std::string::npos)
      << last_response_;
  Roundtrip(R"({"op":"stats","id":1e20})");
  EXPECT_NE(last_response_.find("\"id\":1e+20,"), std::string::npos)
      << last_response_;
}

TEST_F(JsonlServiceTest, DuplicateObjectKeysAreRejected) {
  // {"gender":"M","gender":"F"} must not silently audit F: the parser
  // rejects the duplicate before any handler sees the request, so the
  // line answers with the malformed-line envelope and the stream
  // stays alive.
  JsonValue v = ExpectError(
      R"({"op":"verify","group":{"gender":"M","gender":"F"}})",
      "INVALID_ARGUMENT");
  EXPECT_TRUE(v.Find("id")->is_null());
  const JsonValue* error = v.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->StringOr("message", "").find("duplicate object key"),
            std::string::npos)
      << last_response_;
  // Top-level duplicates (a re-sent op/id smuggling past validation)
  // are equally rejected.
  ExpectError(R"({"op":"stats","id":1,"op":"detect"})",
              "INVALID_ARGUMENT");
  // The service keeps serving afterwards.
  ExpectOk(R"({"op":"stats","id":2})");
}

TEST_F(JsonlServiceTest, UpdateDuplicateRowsAreLastWriteWins) {
  // The wire contract: duplicate rows inside one batch collapse to
  // the LAST entry, independent of the session's re-rank strategy.
  JsonValue v = ExpectOk(
      R"({"op":"update","scores":[[0,111.0],[1,222.0],[0,333.0]]})");
  // rows_updated counts distinct rows, not wire entries.
  EXPECT_DOUBLE_EQ(v.Find("data")->NumberOr("rows_updated", 0), 2.0);
  EXPECT_DOUBLE_EQ(session_->scores()[0], 333.0);
  EXPECT_DOUBLE_EQ(session_->scores()[1], 222.0);
}

TEST_F(JsonlServiceTest, SingleSessionServiceRejectsCatalogOps) {
  ExpectError(R"({"op":"open","name":"x","csv":"a.csv","rank_by":"s"})",
              "FAILED_PRECONDITION");
  ExpectError(R"({"op":"close","name":"x"})", "FAILED_PRECONDITION");
  ExpectError(R"({"op":"list"})", "FAILED_PRECONDITION");
  ExpectError(R"({"op":"use","name":"x"})", "FAILED_PRECONDITION");
  ExpectError(R"({"op":"stats","session":"x"})", "FAILED_PRECONDITION");
}

// ---------------------------------------------------------------------------
// ServeStream (service/request_pipeline.h): responses must equal the
// serial stream whatever the worker count or completion order, framing
// must skip blanks and serve CRLF and a trailing unterminated line,
// malformed lines must keep the stream alive, the admission window
// must throttle reading, latency must include the queue wait, and an
// overlong line must be answered and skipped.

namespace {

/// Canonical recursive serialization of a JsonValue with volatile
/// subtrees removed (report.stats carries wall-clock seconds, which
/// differ between any two runs). Object members serialize in map
/// order, so two semantically equal responses compare byte-equal.
std::string Canonical(const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return v.bool_value() ? "true" : "false";
    case JsonValue::Type::kNumber: {
      JsonWriter w;
      w.Double(v.number_value());
      return w.str();
    }
    case JsonValue::Type::kString:
      return "\"" + JsonEscape(v.string_value()) + "\"";
    case JsonValue::Type::kArray: {
      std::string out = "[";
      for (const JsonValue& item : v.array_items()) {
        if (out.size() > 1) out += ",";
        out += Canonical(item);
      }
      return out + "]";
    }
    case JsonValue::Type::kObject: {
      std::string out = "{";
      for (const auto& [key, value] : v.object_members()) {
        if (key == "stats" || key == "seconds" || key == "cpu_seconds") {
          continue;
        }
        if (out.size() > 1) out += ",";
        out += "\"" + JsonEscape(key) + "\":" + Canonical(value);
      }
      return out + "}";
    }
  }
  return "";
}

/// Parses a response stream into (id, canonical response) pairs in
/// emission order.
std::vector<std::pair<std::string, std::string>> ParseResponses(
    const std::string& stream) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream lines(stream);
  std::string line;
  while (std::getline(lines, line)) {
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (!parsed.ok()) continue;
    const JsonValue* id = parsed->Find("id");
    EXPECT_NE(id, nullptr) << line;
    out.emplace_back(id == nullptr ? "?" : Canonical(*id),
                     Canonical(*parsed));
  }
  return out;
}

/// A read-only request script of distinct detection queries (distinct
/// cache keys, so every response's content is execution-order
/// invariant) plus stray valid ops.
std::string WorkerScript() {
  std::string script;
  for (int tau = 5; tau < 17; ++tau) {
    script += "{\"op\":\"detect\",\"id\":\"d" + std::to_string(tau) +
              "\",\"measure\":\"prop\",\"algo\":\"bounds\",\"tau\":" +
              std::to_string(tau) + "}\n";
    script += "{\"op\":\"verify\",\"id\":\"v" + std::to_string(tau) +
              "\",\"measure\":\"global\",\"lower\":0.3,\"tau\":" +
              std::to_string(tau) + ",\"group\":{\"gender\":\"F\"}}\n";
  }
  script += "{\"op\":\"capabilities\",\"id\":\"caps\"}\n";
  return script;
}

std::atomic<bool> g_slow_release{false};

Result<DetectionResult> SlowDetectorRun(const DetectionInput& input,
                                        const api::BoundsSpec&,
                                        const DetectionConfig& config) {
  // Deadline-guarded: a backpressure regression fails the admission
  // assertions instead of hanging the suite.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!g_slow_release.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  DetectionResult result(config.k_min, config.k_max);
  result.CountGroups(input);
  return result;
}

void RegisterSlowDetector() {
  static const bool registered = [] {
    api::DetectorDescriptor d;
    d.name = "TestSlowDetector";
    d.measure = "test";
    d.algo = "slow";
    d.bounds_kind = api::BoundsKind::kGlobal;
    d.summary = "test-only: blocks until the test releases it";
    d.run = SlowDetectorRun;
    EXPECT_TRUE(api::DetectorRegistry::Global().Register(d).ok());
    return true;
  }();
  (void)registered;
}

/// An istream source that hands out one character per underflow and
/// counts delivered newlines — i.e. how many input lines Serve's
/// admission loop has consumed so far — observable from another
/// thread while Serve blocks.
class CountingLineBuf : public std::streambuf {
 public:
  explicit CountingLineBuf(std::string data) : data_(std::move(data)) {}
  size_t lines_delivered() const {
    return lines_.load(std::memory_order_acquire);
  }

 protected:
  int_type underflow() override {
    if (pos_ >= data_.size()) return traits_type::eof();
    ch_ = data_[pos_++];
    if (ch_ == '\n') lines_.fetch_add(1, std::memory_order_acq_rel);
    setg(&ch_, &ch_, &ch_ + 1);
    return traits_type::to_int_type(ch_);
  }

 private:
  std::string data_;
  size_t pos_ = 0;
  char ch_ = 0;
  std::atomic<size_t> lines_{0};
};


/// An istream source of one `size`-byte line of 'x' followed by
/// `tail` (non-empty), generated chunk by chunk so the test never
/// holds the long line itself.
class LongLineBuf : public std::streambuf {
 public:
  LongLineBuf(size_t size, std::string tail)
      : chunk_(size_t{1} << 16, 'x'), left_(size), tail_(std::move(tail)) {}

 protected:
  int_type underflow() override {
    if (left_ > 0) {
      const size_t n = std::min(left_, chunk_.size());
      left_ -= n;
      setg(chunk_.data(), chunk_.data(), chunk_.data() + n);
    } else if (!tail_served_) {
      tail_served_ = true;
      setg(tail_.data(), tail_.data(), tail_.data() + tail_.size());
    } else {
      return traits_type::eof();
    }
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string chunk_;
  size_t left_;
  std::string tail_;
  bool tail_served_ = false;
};

/// A service over a fresh session on the fixture's data, so one run's
/// result cache cannot leak into another's `cached` flags.
class FreshService {
 public:
  FreshService() {
    auto session = AuditSession::Create(ServiceTable(100, 99), "score");
    EXPECT_TRUE(session.ok());
    session_.emplace(std::move(session).value());
    ServeDefaults defaults;
    defaults.dataset = "unit-fixture";
    defaults.config = DetectionConfig{5, 30, 10};
    service_.emplace(&session_.value(), defaults);
  }
  JsonlService* get() { return &service_.value(); }

 private:
  std::optional<AuditSession> session_;
  std::optional<JsonlService> service_;
};

/// The reference: every non-blank line of `script` handled one after
/// another on the calling thread, through one Context.
std::string SerialStream(JsonlService* service, const std::string& script) {
  JsonlService::Context context;
  std::istringstream lines(script);
  std::string line;
  std::string out;
  while (std::getline(lines, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    out += service->HandleLine(line, context) + "\n";
  }
  return out;
}

std::string Stream(JsonlService* service, const std::string& script,
                   int workers) {
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(service, in, out, workers);
  return out.str();
}

}  // namespace

TEST_F(JsonlServiceTest, ServeProcessesLinesAndSkipsBlanks) {
  // CRLF, an empty line, a whitespace-only line, a malformed line and
  // a final request with no newline: four responses, in input order.
  const std::string script =
      "{\"op\":\"stats\",\"id\":1}\r\n"
      "\n"
      "   \t\r\n"
      "{\"op\":\"detect\",\"id\":2}\n"
      "garbage\n"
      "{\"op\":\"stats\",\"id\":3}";
  const std::string out = Stream(&service_.value(), script, 1);
  auto responses = ParseResponses(out);
  ASSERT_EQ(responses.size(), 4u) << out;
  EXPECT_EQ(responses[0].first, "1");
  EXPECT_EQ(responses[1].first, "2");
  EXPECT_EQ(responses[2].first, "null");
  EXPECT_EQ(responses[3].first, "3");
  EXPECT_NE(responses[3].second.find("\"ok\":true"), std::string::npos);

  // The same bytes fed one at a time, as a socket may deliver them:
  // every line, CRLF included, is split across Feed() calls.
  std::string bytewise;
  {
    ThreadPool pool(2);
    RequestPipeline pipeline(&service_.value(), &pool,
                             [&bytewise](const std::string& line) {
                               bytewise += line;
                               return true;
                             });
    for (char c : script) pipeline.Feed(&c, 1);
    pipeline.Finish();
  }
  auto bytewise_responses = ParseResponses(bytewise);
  ASSERT_EQ(bytewise_responses.size(), 4u) << bytewise;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bytewise_responses[i].first, responses[i].first) << i;
  }
}

TEST_F(JsonlServiceTest, WorkersEmitTheSerialStream) {
  RegisterSlowDetector();
  g_slow_release.store(true, std::memory_order_release);
  const std::string script = WorkerScript();
  const std::string held_script =
      "{\"op\":\"detect\",\"detector\":\"TestSlowDetector\","
      "\"id\":\"held\"}\n" +
      script;
  FreshService serial;
  FreshService serial_held;
  FreshService workers;
  FreshService workers_held;
  const auto expected = ParseResponses(SerialStream(serial.get(), script));
  const auto expected_held =
      ParseResponses(SerialStream(serial_held.get(), held_script));
  ASSERT_EQ(expected.size(), 25u);

  // Same responses in the same (input) order, id by id and payload by
  // payload.
  EXPECT_EQ(ParseResponses(Stream(workers.get(), script, 4)), expected);

  // Line 0 holds its worker while the lines behind it finish first.
  // With 4 workers the window is 16 lines, so 15 finished followers
  // wait in the reorder buffer until line 0 is released.
  metrics::Gauge& reorder_depth =
      metrics::MetricsRegistry::Global()
          .GaugeFamily("fairtopk_reorder_buffer_depth", "")
          .With({});
  const int64_t depth_before = reorder_depth.value();
  g_slow_release.store(false, std::memory_order_release);
  std::string out;
  std::thread serve(
      [&] { out = Stream(workers_held.get(), held_script, 4); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (reorder_depth.value() < depth_before + 15 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(reorder_depth.value(), depth_before + 15);
  g_slow_release.store(true, std::memory_order_release);
  serve.join();
  EXPECT_EQ(ParseResponses(out), expected_held);
  EXPECT_EQ(reorder_depth.value(), depth_before);
}

TEST_F(JsonlServiceTest, WorkersSurviveMalformedLinesMidStream) {
  const std::string script =
      "{\"op\":\"stats\",\"id\":\"a\"}\n"
      "utter garbage {{{\n"
      "{\"op\":\"stats\",\"id\":\"b\"}\n"
      "42\n"
      "{\"op\":\"stats\",\"id\":\"c\"}\n";
  for (int workers : {1, 4}) {
    auto responses = ParseResponses(Stream(&service_.value(), script, workers));
    ASSERT_EQ(responses.size(), 5u) << "workers=" << workers;
    // The two malformed lines answer {"id":null,"ok":false,...} and
    // the stream continues to the last stats op.
    EXPECT_EQ(responses[1].first, "null");
    EXPECT_NE(responses[1].second.find("\"ok\":false"), std::string::npos);
    EXPECT_EQ(responses[3].first, "null");
    EXPECT_NE(responses[3].second.find("\"ok\":false"), std::string::npos);
    EXPECT_EQ(responses[0].first, "\"a\"");
    EXPECT_EQ(responses[2].first, "\"b\"");
    EXPECT_EQ(responses[4].first, "\"c\"");
  }
}

TEST_F(JsonlServiceTest, BackpressureThrottlesAdmission) {
  RegisterSlowDetector();
  // One worker: a window of 4 lines.
  constexpr size_t kWindow = RequestPipeline::kWindowPerWorker;
  constexpr size_t kLines = 20;
  std::string script =
      "{\"op\":\"detect\",\"detector\":\"TestSlowDetector\",\"id\":0}\n";
  for (size_t i = 1; i < kLines; ++i) {
    script += "{\"op\":\"stats\",\"id\":" + std::to_string(i) + "}\n";
  }

  g_slow_release.store(false, std::memory_order_release);
  CountingLineBuf buf(script);
  std::istream in(&buf);
  std::ostringstream out;
  std::thread serve([&] { ServeStream(&service_.value(), in, out, 1); });

  // With request 0 stuck, the window `admitted - answered < window`
  // admits exactly kWindow lines; the loop reads one more line before
  // blocking on admission, so consumption plateaus at kWindow + 1 —
  // NOT the whole script. (The window counts the reorder buffer: a
  // predicate on running lines alone would let the finished stats
  // responses pile up behind request 0 and admission race to EOF.)
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (buf.lines_delivered() < kWindow + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(buf.lines_delivered(), kWindow + 1);
  // The plateau must hold (one-sided check: if backpressure were
  // broken, admission would blow past the window within the sleep).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(buf.lines_delivered(), kWindow + 1);

  g_slow_release.store(true, std::memory_order_release);
  serve.join();

  // Every line answered, in input order.
  auto responses = ParseResponses(out.str());
  ASSERT_EQ(responses.size(), kLines);
  for (size_t i = 0; i < kLines; ++i) {
    EXPECT_EQ(responses[i].first, std::to_string(i)) << i;
    EXPECT_NE(responses[i].second.find("\"ok\":true"), std::string::npos)
        << responses[i].second;
  }
}

TEST_F(JsonlServiceTest, LatencyIncludesQueueWait) {
  RegisterSlowDetector();
  std::ostringstream log;
  ObservabilityOptions observability;
  observability.slow_query_log_micros = 1;  // log every line
  observability.slow_query_stream = &log;
  service_->set_observability(observability);

  g_slow_release.store(false, std::memory_order_release);
  CountingLineBuf buf(
      "{\"op\":\"detect\",\"detector\":\"TestSlowDetector\",\"id\":\"hold\"}\n"
      "{\"op\":\"stats\",\"id\":\"queued\"}\n"
      "{\"op\":\"stats\",\"id\":\"last\"}\n");
  std::istream in(&buf);
  std::ostringstream out;
  std::thread serve([&] { ServeStream(&service_.value(), in, out, 1); });
  // Reading the third line starts after the second was admitted, so
  // from here on "queued" waits behind the one held worker.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (buf.lines_delivered() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(buf.lines_delivered(), 3u);
  WallTimer hold;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double hold_micros = static_cast<double>(hold.ElapsedMicros());
  g_slow_release.store(true, std::memory_order_release);
  serve.join();
  ASSERT_EQ(ParseResponses(out.str()).size(), 3u);

  std::istringstream lines(log.str());
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    auto entry = ParseJson(line);
    ASSERT_TRUE(entry.ok()) << line;
    const JsonValue* id = entry->Find("id");
    if (id == nullptr || !id->is_string() || id->string_value() != "queued") {
      continue;
    }
    found = true;
    EXPECT_GE(entry->NumberOr("micros", -1), hold_micros) << line;
    const JsonValue* spans = entry->Find("spans");
    ASSERT_NE(spans, nullptr) << line;
    EXPECT_GE(spans->NumberOr("queue", -1), hold_micros) << line;
  }
  EXPECT_TRUE(found) << log.str();
}

TEST_F(JsonlServiceTest, OverlongLineIsAnsweredAndSkipped) {
  // A line of exactly kMaxLineBytes is still parsed (and is not JSON);
  // one byte more is refused unread. Either way the next line is
  // served.
  for (const auto& [size, code] :
       {std::pair<size_t, std::string>{RequestPipeline::kMaxLineBytes,
                                       "INVALID_ARGUMENT"},
        std::pair<size_t, std::string>{RequestPipeline::kMaxLineBytes + 1,
                                       "RESOURCE_EXHAUSTED"}}) {
    LongLineBuf buf(size, "\n{\"op\":\"stats\",\"id\":\"after\"}\n");
    std::istream in(&buf);
    std::ostringstream out;
    ServeStream(&service_.value(), in, out, 1);
    auto responses = ParseResponses(out.str());
    ASSERT_EQ(responses.size(), 2u) << "size=" << size;
    EXPECT_EQ(responses[0].first, "null");
    EXPECT_NE(responses[0].second.find("\"code\":\"" + code + "\""),
              std::string::npos)
        << responses[0].second;
    EXPECT_EQ(responses[1].first, "\"after\"");
    EXPECT_NE(responses[1].second.find("\"ok\":true"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Catalog-backed services: open/close/list/use and per-request
// "session" routing over a SessionCatalog.

ServeDefaults TestDefaults(const std::string& dataset) {
  ServeDefaults defaults;
  defaults.dataset = dataset;
  defaults.config = DetectionConfig{5, 30, 10};
  return defaults;
}

class CatalogJsonlServiceTest : public ::testing::Test {
 protected:
  CatalogJsonlServiceTest() {
    auto alpha = AuditSession::Create(ServiceTable(100, 99), "score");
    auto beta = AuditSession::Create(ServiceTable(80, 7), "score");
    EXPECT_TRUE(alpha.ok());
    EXPECT_TRUE(beta.ok());
    EXPECT_TRUE(catalog_
                    .Adopt("alpha", std::move(alpha).value(),
                           TestDefaults("alpha-data"))
                    .ok());
    EXPECT_TRUE(catalog_
                    .Adopt("beta", std::move(beta).value(),
                           TestDefaults("beta-data"))
                    .ok());
    service_.emplace(&catalog_, "alpha");
  }

  JsonValue Roundtrip(const std::string& line) {
    last_response_ = service_->HandleLine(line, context_);
    auto parsed = ParseJson(last_response_);
    EXPECT_TRUE(parsed.ok()) << last_response_;
    return std::move(parsed).value();
  }

  JsonValue ExpectOk(const std::string& line) {
    JsonValue v = Roundtrip(line);
    EXPECT_TRUE(v.BoolOr("ok", false)) << last_response_;
    return v;
  }

  JsonValue ExpectError(const std::string& line, const std::string& code) {
    JsonValue v = Roundtrip(line);
    EXPECT_FALSE(v.BoolOr("ok", true)) << last_response_;
    const JsonValue* error = v.Find("error");
    EXPECT_NE(error, nullptr);
    if (error != nullptr) {
      EXPECT_EQ(error->StringOr("code", ""), code);
    }
    return v;
  }

  SessionCatalog catalog_;
  std::optional<JsonlService> service_;
  JsonlService::Context context_;
  std::string last_response_;
};

TEST_F(CatalogJsonlServiceTest, RoutesBySessionFieldAndDefault) {
  // No "session": the default session ("alpha", 100 rows).
  JsonValue v = ExpectOk(R"({"op":"stats"})");
  EXPECT_DOUBLE_EQ(v.Find("data")->NumberOr("num_rows", 0), 100.0);
  // Explicit per-request routing.
  v = ExpectOk(R"({"op":"stats","session":"beta"})");
  EXPECT_DOUBLE_EQ(v.Find("data")->NumberOr("num_rows", 0), 80.0);
  // The per-session defaults travel with the route.
  v = ExpectOk(R"({"op":"detect","session":"beta"})");
  EXPECT_EQ(v.Find("data")->Find("report")->StringOr("dataset", ""),
            "beta-data");
  ExpectError(R"({"op":"stats","session":"gamma"})", "NOT_FOUND");
  ExpectError(R"({"op":"stats","session":7})", "INVALID_ARGUMENT");
}

TEST_F(CatalogJsonlServiceTest, UseSwitchesTheContextDefault) {
  ExpectOk(R"({"op":"use","name":"beta"})");
  JsonValue v = ExpectOk(R"({"op":"stats"})");
  EXPECT_DOUBLE_EQ(v.Find("data")->NumberOr("num_rows", 0), 80.0);
  // Explicit routing still wins over the context default.
  v = ExpectOk(R"({"op":"stats","session":"alpha"})");
  EXPECT_DOUBLE_EQ(v.Find("data")->NumberOr("num_rows", 0), 100.0);
  // list reports the context's current session.
  v = ExpectOk(R"({"op":"list"})");
  EXPECT_EQ(v.Find("data")->StringOr("current", ""), "beta");
  ExpectError(R"({"op":"use","name":"gamma"})", "NOT_FOUND");
  // A fresh context (the single-shot HandleLine) starts back on the
  // service default.
  last_response_ = service_->HandleLine(R"({"op":"stats"})");
  auto parsed = ParseJson(last_response_);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Find("data")->NumberOr("num_rows", 0), 100.0);
}

TEST_F(CatalogJsonlServiceTest, DefaultSessionCannotBeClosed) {
  // Every client without a `use` choice runs on the default session, so
  // closing it would strand them all.
  JsonValue v = ExpectError(R"({"op":"close","name":"alpha"})",
                            "FAILED_PRECONDITION");
  EXPECT_NE(v.Find("error")->StringOr("message", "").find("'alpha'"),
            std::string::npos)
      << last_response_;
  EXPECT_EQ(catalog_.size(), 2u);
  // It still serves this client, and a fresh one.
  v = ExpectOk(R"({"op":"stats"})");
  EXPECT_DOUBLE_EQ(v.Find("data")->NumberOr("num_rows", 0), 100.0);
  auto fresh = ParseJson(service_->HandleLine(R"({"op":"detect"})"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->BoolOr("ok", false));
  // Any other session closes, also the one this client has chosen.
  ExpectOk(R"({"op":"use","name":"beta"})");
  ExpectOk(R"({"op":"close","name":"beta"})");
  EXPECT_EQ(catalog_.size(), 1u);
}

TEST_F(CatalogJsonlServiceTest, ListEnumeratesSessions) {
  JsonValue v = ExpectOk(R"({"op":"list"})");
  const JsonValue* sessions = v.Find("data")->Find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->array_items().size(), 2u);
  EXPECT_EQ(sessions->array_items()[0].StringOr("name", ""), "alpha");
  EXPECT_EQ(sessions->array_items()[1].StringOr("name", ""), "beta");
  EXPECT_DOUBLE_EQ(sessions->array_items()[1].NumberOr("num_rows", 0),
                   80.0);
}

TEST_F(CatalogJsonlServiceTest, OpenCloseLifecycle) {
  // A real CSV on disk: `open` goes through the same loader as the
  // tool startup (validation, bucketization, index build).
  const std::string csv_path =
      ::testing::TempDir() + "/jsonl_service_open_test.csv";
  {
    std::ofstream csv(csv_path);
    csv << "gender,region,score\n";
    for (int i = 0; i < 24; ++i) {
      csv << (i % 2 == 0 ? "F" : "M") << ','
          << (i % 3 == 0 ? "north" : "south") << ',' << (100 - i) << '\n';
    }
  }
  JsonValue v = ExpectOk(R"({"op":"open","name":"disk","csv":")" +
                         csv_path + R"(","rank_by":"score"})");
  EXPECT_DOUBLE_EQ(v.Find("data")->NumberOr("num_rows", 0), 24.0);
  v = ExpectOk(R"({"op":"stats","session":"disk"})");
  EXPECT_DOUBLE_EQ(v.Find("data")->NumberOr("num_rows", 0), 24.0);
  // Duplicate names are refused; the original session is untouched.
  ExpectError(R"({"op":"open","name":"disk","csv":")" + csv_path +
                  R"(","rank_by":"score"})",
              "INVALID_ARGUMENT");
  ExpectOk(R"({"op":"close","name":"disk"})");
  ExpectError(R"({"op":"stats","session":"disk"})", "NOT_FOUND");
  ExpectError(R"({"op":"close","name":"disk"})", "NOT_FOUND");
  // Validation: missing fields, unreadable file, unknown rank column.
  ExpectError(R"({"op":"open","name":"x"})", "INVALID_ARGUMENT");
  ExpectError(R"({"op":"open","name":"x","csv":"/no/such/file.csv",)"
              R"("rank_by":"score"})",
              "IO_ERROR");
  ExpectError(R"({"op":"open","name":"x","csv":")" + csv_path +
                  R"(","rank_by":"nope"})",
              "INVALID_ARGUMENT");
  // A present field of the wrong type is refused, not read as its
  // default.
  for (const std::string field :
       {R"("ascending":"true")", R"("alpha":"0.5")",
        R"("rebuild_threshold":"7")", R"("lower":"0.5")",
        R"("fsync_always":1)", R"("data_dir":7)", R"("snapshot":[])"}) {
    ExpectError(R"({"op":"open","name":"x","csv":")" + csv_path +
                    R"(","rank_by":"score",)" + field + "}",
                "INVALID_ARGUMENT");
  }
  // A snapshot restore and a data dir are two ways to open; naming both
  // is refused.
  const std::string data_dir =
      ::testing::TempDir() + "/jsonl_service_open_both";
  ExpectError(R"({"op":"open","name":"x","csv":")" + csv_path +
                  R"(","rank_by":"score","snapshot":"s.ftk","data_dir":")" +
                  data_dir + R"("})",
              "INVALID_ARGUMENT");
  EXPECT_EQ(catalog_.size(), 2u);
  // An undeclared knob is refused, not opened with the default, and a
  // value below a declared minimum names the field.
  JsonValue v2 = ExpectError(R"({"op":"open","name":"x","csv":")" +
                                 csv_path + R"(","rank_by":"score","kmin":3})",
                             "INVALID_ARGUMENT");
  EXPECT_NE(ErrorMessage(v2).find("'kmin'"), std::string::npos);
  v2 = ExpectError(R"({"op":"open","name":"x","csv":")" + csv_path +
                       R"(","rank_by":"score","bins":1})",
                   "INVALID_ARGUMENT");
  EXPECT_NE(ErrorMessage(v2).find("'bins'"), std::string::npos);
  // Defaults that no detect could use are refused at open: a k range
  // starting below 1, and a negative tau (0 means 5% of the rows). So
  // are more buckets than the old --bins flag allowed.
  const std::pair<const char*, const char*> out_of_range[] = {
      {"k_min", "0"}, {"k_max", "0"}, {"tau", "-3"}, {"bins", "2000000000"}};
  for (const auto& [field, value] : out_of_range) {
    v2 = ExpectError(R"({"op":"open","name":"x","csv":")" + csv_path +
                         R"(","rank_by":"score",")" + field + "\":" +
                         value + "}",
                     "INVALID_ARGUMENT");
    EXPECT_NE(ErrorMessage(v2).find("'" + std::string(field) + "'"),
              std::string::npos)
        << ErrorMessage(v2);
  }
  EXPECT_EQ(catalog_.size(), 2u);
  ExpectOk(R"({"op":"open","name":"tau0","csv":")" + csv_path +
           R"(","rank_by":"score","tau":0})");
  EXPECT_EQ(catalog_.Find("tau0")->defaults.config.size_threshold, 2);
  ExpectOk(R"({"op":"close","name":"tau0"})");
  // Catalog ops declare no "session".
  v2 = ExpectError(R"({"op":"list","session":"zzz"})", "INVALID_ARGUMENT");
  EXPECT_NE(ErrorMessage(v2).find("'session'"), std::string::npos);
}

TEST_F(CatalogJsonlServiceTest, OpenAppliesEveryDeclaredKnob) {
  const std::string csv_path =
      ::testing::TempDir() + "/jsonl_service_open_knobs.csv";
  {
    std::ofstream csv(csv_path);
    csv << "id,gender,region,age,score\n";
    for (int i = 0; i < 40; ++i) {
      csv << i << ',' << (i % 2 == 0 ? "F" : "M") << ','
          << (i % 3 == 0 ? "north" : "south") << ',' << (20 + i) << ','
          << (100 - i) << '\n';
    }
  }
  ExpectOk(R"({"op":"open","name":"knobs","csv":")" + csv_path +
           R"(","rank_by":"score","ascending":true,"bins":3,)"
           R"("drop":["id"],"k_min":3,"k_max":12,"tau":4,"lower":0.3,)"
           R"("alpha":0.7,"cache_capacity":0,"rebuild_threshold":0.25})");
  std::shared_ptr<SessionCatalog::Entry> entry = catalog_.Find("knobs");
  ASSERT_NE(entry, nullptr);
  // gender, region, and age in 3 buckets; id dropped, score ranks.
  EXPECT_EQ(entry->session.space().num_attributes(), 3u);
  EXPECT_EQ(entry->session.ranking().front(), 39u);  // ascending
  EXPECT_EQ(entry->defaults.config.k_min, 3);
  EXPECT_EQ(entry->defaults.config.k_max, 12);
  EXPECT_EQ(entry->defaults.config.size_threshold, 4);
  EXPECT_DOUBLE_EQ(entry->defaults.bounds.lower_fraction, 0.3);
  EXPECT_DOUBLE_EQ(entry->defaults.bounds.alpha, 0.7);
  // cache_capacity 0 disables the cache.
  ExpectOk(R"({"op":"detect","session":"knobs"})");
  EXPECT_EQ(entry->session.cache_size(), 0u);
}

}  // namespace
}  // namespace fairtopk
