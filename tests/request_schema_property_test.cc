// Property test for the declared request schema of the JSONL protocol
// (service/jsonl_service.h): seeded random requests to every declared
// op, carrying declared fields with random values and types and random
// undeclared names. Every line gets exactly one response; an undeclared
// name or a value of the wrong type is INVALID_ARGUMENT naming that
// field; an accepted detect reports the k range it was sent, never the
// session default; and a refused update, append, open, close, use or
// save changes no session state. The same declarations are the tools'
// flags (api::ReadFlags): random `open` members read as flags give the
// object the request holds, and where one side refuses, so does the
// other, naming the same field.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <stdlib.h>

#include <gtest/gtest.h>

#include "api/detector_registry.h"
#include "api/canonical.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "relation/table.h"
#include "service/jsonl_service.h"
#include "service/request_pipeline.h"
#include "service/session_catalog.h"

namespace fairtopk {
namespace {

using api::FieldSpec;
using api::FieldType;

Table DemoTable(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("gender", {"F", "M"}).ok());
  EXPECT_TRUE(schema.AddCategorical("region", {"north", "south"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const int16_t gender = static_cast<int16_t>(rng.UniformUint64(2));
    const int16_t region = static_cast<int16_t>(rng.UniformUint64(2));
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(gender), Cell::Code(region),
                                 Cell::Value(50.0 + 10.0 * gender +
                                             rng.Gaussian() * 5.0)})
                    .ok());
  }
  return std::move(table).value();
}

/// The one injected mistake of a request, if any: the field an error
/// must name.
struct Fault {
  std::string field;
};

/// Draws requests for the declared ops. Values of declared fields are
/// of the declared type and at least the declared minimum, so the only
/// schema error a request can carry is its one Fault.
class RequestGenerator {
 public:
  RequestGenerator(uint64_t seed, std::string dir)
      : rng_(seed), dir_(std::move(dir)) {}

  void WriteCsv() {
    csv_path_ = dir_ + "/demo.csv";
    std::ofstream csv(csv_path_);
    csv << "gender,region,score\n";
    for (int i = 0; i < 40; ++i) {
      csv << (i % 2 == 0 ? "F" : "M") << ','
          << (i % 3 == 0 ? "north" : "south") << ',' << (100 - i) << '\n';
    }
  }

  /// One request line for `op`; `fault` receives the injected mistake.
  std::string Line(const JsonlService::Op& op, std::optional<Fault>& fault) {
    fault.reset();
    std::map<std::string, std::string> members;
    members["op"] = Quoted(op.name);
    // Sparse and dense requests: a sparse one is more often accepted.
    const double density = 0.05 + 0.45 * rng_.UniformDouble();
    for (const FieldSpec& field : op.fields) {
      if (field.name == "op") continue;
      if (field.required ? Chance(0.95) : Chance(density)) {
        members[std::string(field.name)] = ValidValue(field);
      }
    }
    const uint64_t kind = rng_.UniformUint64(10);
    if (kind < 3) {
      const std::string name = UndeclaredName(op.fields);
      members[name] = AnyValue();
      fault = Fault{name};
    } else if (kind < 6) {
      const FieldSpec& field = op.fields[rng_.UniformUint64(op.fields.size())];
      if (field.type != FieldType::kAny) {
        members[std::string(field.name)] = WrongValue(field.type);
        fault = Fault{std::string(field.name)};
      }
    }
    // A fault inside a detect_batch query, among valid ones.
    if (!fault.has_value() && members.count("queries") > 0 && Chance(0.3)) {
      const FieldSpec* queries = api::FindField(op.fields, "queries");
      members["queries"] = BatchWithFault(queries->items, fault);
    }
    std::string line = "{";
    for (const auto& [name, value] : members) {
      if (line.size() > 1) line += ',';
      line += Quoted(name) + ':' + value;
    }
    return line + "}";
  }

  bool Chance(double p) { return rng_.UniformDouble() < p; }
  uint64_t Uniform(uint64_t n) { return rng_.UniformUint64(n); }

 private:
  static std::string Quoted(std::string_view s) {
    return "\"" + JsonEscape(std::string(s)) + "\"";
  }

  std::string Pick(std::initializer_list<const char*> options) {
    const size_t i = rng_.UniformUint64(options.size());
    return options.begin()[i];
  }

  std::string Int(int lo, int span) {
    return std::to_string(lo + static_cast<int>(rng_.UniformUint64(span)));
  }

  /// A string for `name`: paths stay inside the test's directory.
  std::string StringFor(std::string_view name, bool nonempty) {
    std::string s;
    if (name == "csv" || name == "snapshot" || name == "data_dir" ||
        name == "path") {
      s = Pick({"demo.csv", "snap0.ftk", "snap1.ftk", "dir0", "missing"});
      s = s == "demo.csv" ? csv_path_ : dir_ + "/" + s;
    } else if (name == "detector") {
      const auto& detectors = api::DetectorRegistry::Global().detectors();
      s = Chance(0.9)
              ? detectors[rng_.UniformUint64(detectors.size())].name
              : "NoSuchDetector";
    } else if (name == "measure") {
      s = Pick({"global", "prop", "prop", "nope"});
    } else if (name == "algo") {
      s = Pick({"itertd", "bounds", "bounds", "upper", "nope"});
    } else if (name == "session" || name == "name") {
      s = Pick({"default", "default", "other", "spare"});
    } else if (name == "rank_by") {
      s = Pick({"score", "score", "gender", "nope"});
    } else {
      s = Pick({"x", "default", ""});
    }
    if (nonempty && s.empty()) s = "x";
    return Quoted(s);
  }

  std::string Steps() {
    if (Chance(0.2)) return "[]";
    const int first = 1 + static_cast<int>(rng_.UniformUint64(10));
    return "[[" + std::to_string(first) + "," + Int(1, 3) + "],[" +
           std::to_string(first + 10) + "," + Int(3, 5) + "]]";
  }

  /// A query object of valid fields from `items`, leaving out `skip`.
  std::string Query(std::span<const FieldSpec> items,
                    std::string_view skip = {}) {
    std::string q = "{";
    for (const FieldSpec& field : items) {
      if (field.name == skip || !Chance(0.3)) continue;
      if (q.size() > 1) q += ',';
      q += Quoted(field.name) + ':' + ValidValue(field);
    }
    return q + "}";
  }

  std::string BatchWithFault(std::span<const FieldSpec> items,
                             std::optional<Fault>& fault) {
    std::string name, value;
    if (Chance(0.5)) {
      // op, id and session belong to the request, not to a query.
      name = Pick({"session", "op", "id", "kmin", "k_mni"});
      value = AnyValue();
    } else {
      const FieldSpec& field = items[rng_.UniformUint64(items.size())];
      name = field.name;
      value = WrongValue(field.type);
    }
    fault = Fault{name};
    std::string bad = Query(items, name);
    bad.pop_back();
    if (bad.size() > 1) bad += ',';
    return "[" + Query(items) + "," + bad + Quoted(name) + ':' + value + "}]";
  }

  std::string ValidValue(const FieldSpec& field) {
    const bool has_min = field.min != std::numeric_limits<int>::min();
    switch (field.type) {
      case FieldType::kAny:
        return AnyValue();
      case FieldType::kBool:
        return Chance(0.5) ? "true" : "false";
      case FieldType::kInt:
        if (field.name == "k_max") return Int(10, 40);
        return Int(has_min ? field.min : 1, 20);
      case FieldType::kNumber:
        return std::to_string(0.1 + 1.4 * rng_.UniformDouble());
      case FieldType::kString:
        return StringFor(field.name, field.min > 0);
      case FieldType::kStrings:
        return Chance(0.5) ? "[]" : "[" + StringFor("drop", true) + "]";
      case FieldType::kSteps:
        return Steps();
      case FieldType::kArray:
        if (!field.items.empty()) {
          std::string queries = "[" + Query(field.items);
          for (uint64_t n = rng_.UniformUint64(3); n > 0; --n) {
            queries += "," + Query(field.items);
          }
          return queries + "]";
        }
        if (field.name == "scores") {
          return "[[" + Int(0, 70) + "," + Int(0, 100) + "],[" + Int(0, 45) +
                 ",12.5]]";
        }
        if (field.name == "rows") {
          return R"([{"gender":")" + Pick({"F", "M", "X"}) +
                 R"(","region":"south","score":)" + Int(0, 100) + "}]";
        }
        return "[]";
      case FieldType::kObject:
        return Pick({R"({"gender":"F"})", R"({"region":"south"})",
                     R"({"gender":"X"})"});
    }
    return "null";
  }

  /// A value no field of `type` accepts.
  std::string WrongValue(FieldType type) {
    std::vector<std::string> options;
    if (type != FieldType::kBool) options.push_back("true");
    if (type != FieldType::kNumber) options.push_back("2.5");
    if (type != FieldType::kString) options.push_back("\"7\"");
    if (type != FieldType::kObject) options.push_back("{}");
    if (type == FieldType::kBool || type == FieldType::kInt ||
        type == FieldType::kNumber || type == FieldType::kString ||
        type == FieldType::kObject) {
      options.push_back("[1]");
    }
    if (type == FieldType::kStrings) options.push_back("[\"a\",3]");
    options.push_back("null");
    return options[rng_.UniformUint64(options.size())];
  }

  std::string AnyValue() {
    return Pick({"1", "\"x\"", "true", "null", "[]", "{}", "5.5"});
  }

  std::string UndeclaredName(std::span<const FieldSpec> fields) {
    for (;;) {
      std::string name = Pick({"kmin", "kmax", "k_mni", "regoin", "sesion",
                               "Op", "threads", "verbose", "lower ", "",
                               "session", "queries", "alpha", "name"});
      if (Chance(0.2)) {
        name = "f";
        for (uint64_t n = rng_.UniformUint64(6); n > 0; --n) {
          name += static_cast<char>('a' + rng_.UniformUint64(26));
        }
      }
      if (api::FindField(fields, name) == nullptr) return name;
    }
  }

  Rng rng_;
  std::string dir_;
  std::string csv_path_;
};

/// The state a refused op must leave alone: the context's list and
/// every listed session's stats, minus the uptime.
std::string ObserveState(JsonlService& service,
                         JsonlService::Context& context) {
  std::string state = service.HandleLine(R"({"op":"list"})", context);
  auto list = ParseJson(state);
  if (!list.ok() || list->Find("data") == nullptr) return state;
  for (const JsonValue& session :
       list->Find("data")->Find("sessions")->array_items()) {
    std::string stats = service.HandleLine(
        R"({"op":"stats","session":")" + session.StringOr("name", "") + "\"}",
        context);
    const size_t at = stats.find("\"uptime_seconds\":");
    if (at != std::string::npos) {
      stats.erase(at, stats.find(',', at) - at);
    }
    state += "\n" + stats;
  }
  return state;
}

bool Mutates(std::string_view op) {
  return op == "update" || op == "append" || op == "open" || op == "close" ||
         op == "use" || op == "save";
}

class RequestSchemaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RequestSchemaPropertyTest, EveryOpChecksItsDeclaredFields) {
  const uint64_t seed = GetParam();
  std::string dir = ::testing::TempDir() + "/request_schema_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  RequestGenerator generator(seed, dir);
  generator.WriteCsv();

  SessionCatalog catalog;
  {
    ServeDefaults defaults;
    defaults.dataset = "schema-fixture";
    defaults.config = DetectionConfig{5, 30, 6};
    auto session = AuditSession::Create(DemoTable(60, seed), "score");
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        catalog.Adopt("default", std::move(session).value(), defaults).ok());
  }
  JsonlService service(&catalog, "default");
  JsonlService::Context context;

  const std::span<const JsonlService::Op> ops = JsonlService::Ops();
  std::vector<std::string> lines;
  size_t faults = 0, accepted_detects = 0, refused_mutations = 0;
  for (int i = 0; i < 4000; ++i) {
    // Drift back to the default session now and then: the session ops
    // need a session to run on.
    if (i % 40 == 0) {
      service.HandleLine(R"({"op":"use","name":"default"})", context);
    }
    const JsonlService::Op& op = ops[generator.Uniform(ops.size())];
    std::optional<Fault> fault;
    const std::string line = generator.Line(op, fault);
    lines.push_back(line);
    const bool mutates = Mutates(op.name);
    const std::string before =
        mutates ? ObserveState(service, context) : std::string();

    const std::string response = service.HandleLine(line, context);
    ASSERT_EQ(response.find('\n'), std::string::npos) << response;
    // The service never closes its default session.
    ASSERT_NE(catalog.Find("default"), nullptr) << line << " -> " << response;
    auto parsed = ParseJson(response);
    ASSERT_TRUE(parsed.ok()) << line << " -> " << response;
    const bool ok = parsed->BoolOr("ok", false);
    const JsonValue* error = parsed->Find("error");
    ASSERT_EQ(ok, error == nullptr) << response;

    if (fault.has_value()) {
      ++faults;
      ASSERT_FALSE(ok) << line << " -> " << response;
      EXPECT_EQ(error->StringOr("code", ""), "INVALID_ARGUMENT")
          << line << " -> " << response;
      EXPECT_NE(error->StringOr("message", "").find("'" + fault->field + "'"),
                std::string::npos)
          << line << " -> " << response;
    }
    if (ok && op.name == std::string_view("detect")) {
      ++accepted_detects;
      auto request = ParseJson(line);
      const JsonValue* report = parsed->Find("data")->Find("report");
      for (const char* k : {"k_min", "k_max"}) {
        if (const JsonValue* sent = request->Find(k)) {
          EXPECT_EQ(report->NumberOr(k, -1), sent->number_value())
              << line << " -> " << response;
        }
      }
    }
    if (mutates && !ok) {
      ++refused_mutations;
      EXPECT_EQ(ObserveState(service, context), before)
          << line << " -> " << response;
    }
  }
  // The draw reached every kind of case.
  EXPECT_GT(faults, 1000u);
  EXPECT_GT(accepted_detects, 10u);
  EXPECT_GT(refused_mutations, 200u);

  // Through the request pipeline, the same lines get one response line
  // each, in order.
  std::string script;
  for (const std::string& line : lines) script += line + "\n";
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(&service, in, out, /*workers=*/1);
  std::istringstream responses(out.str());
  size_t count = 0;
  for (std::string response; std::getline(responses, response); ++count) {
    ASSERT_TRUE(ParseJson(response).ok()) << response;
  }
  EXPECT_EQ(count, lines.size());
  std::string cleanup = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
}

/// One member of a random `open` request: its name, its JSON text, and
/// its text as a flag value (none for a bool flag, which reads true).
struct Member {
  std::string name;
  std::string json;
  std::optional<std::string> flag;
};

/// A member for `field`: a value its type reads, or with `fault` one
/// CheckFields or the flag reader refuses — outside the field's range,
/// not an integer, or not a number — in a form that is also a flag.
Member DrawMember(Rng& rng, const FieldSpec& field, bool fault) {
  const auto pick = [&rng](std::initializer_list<const char*> options) {
    return std::string(options.begin()[rng.UniformUint64(options.size())]);
  };
  const bool has_min = field.min != std::numeric_limits<int>::min();
  const std::string name(field.name);
  switch (field.type) {
    case FieldType::kBool:
      return {name, "true", std::nullopt};
    case FieldType::kInt: {
      if (fault) {
        std::string text =
            pick({"2.5", "3000000000", "\"x\"", "below", "above"});
        if (text == "below" && has_min) {
          text = std::to_string(field.min - 1 -
                                static_cast<int>(rng.UniformUint64(3)));
        } else if (text == "above" &&
                   field.max != std::numeric_limits<int>::max()) {
          text = std::to_string(static_cast<long long>(field.max) + 1 +
                                static_cast<long long>(rng.UniformUint64(3)));
        } else if (text == "below" || text == "above") {
          text = "\"x\"";
        }
        const std::string flag = text == "\"x\"" ? "x" : text;
        return {name, text, flag};
      }
      const int lo = has_min ? field.min : 1;
      const int span =
          std::min<long long>(20, static_cast<long long>(field.max) - lo + 1);
      const std::string text =
          std::to_string(lo + static_cast<int>(rng.UniformUint64(span)));
      return {name, text, text};
    }
    case FieldType::kNumber: {
      if (fault) return {name, "\"abc\"", "abc"};
      const std::string text = std::to_string(-0.5 + 2.0 * rng.UniformDouble());
      return {name, text, text};
    }
    case FieldType::kString: {
      const std::string text = pick({"demo.csv", "score", "dir0", "x", ""});
      return {name, "\"" + text + "\"", text};
    }
    case FieldType::kStrings: {
      const std::string text = pick({"", "id", "id,age"});
      std::string json = "[";
      for (const std::string& item : Split(text, ',')) {
        if (item.empty()) continue;
        json += (json.size() > 1 ? ",\"" : "\"") + item + "\"";
      }
      return {name, json + "]", text};
    }
    default:
      ADD_FAILURE() << "open declares no " << api::FieldTypeName(field.type)
                    << " field";
      return {name, "null", "null"};
  }
}

/// `v` as JSON text, members in name order and numbers in full
/// precision, so two values are equal iff their texts are.
std::string Canonical(const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return v.bool_value() ? "true" : "false";
    case JsonValue::Type::kNumber: {
      char buffer[40];
      std::snprintf(buffer, sizeof(buffer), "%.17g", v.number_value());
      return buffer;
    }
    case JsonValue::Type::kString:
      return "\"" + JsonEscape(v.string_value()) + "\"";
    case JsonValue::Type::kArray: {
      std::string out = "[";
      for (const JsonValue& item : v.array_items()) {
        out += (out.size() > 1 ? "," : "") + Canonical(item);
      }
      return out + "]";
    }
    case JsonValue::Type::kObject: {
      std::string out = "{";
      for (const auto& [name, member] : v.object_members()) {
        out += (out.size() > 1 ? ",\"" : "\"") + name + "\":" +
               Canonical(member);
      }
      return out + "}";
    }
  }
  return "";
}

/// The field a CheckFields error names: the first quoted name after
/// "field '".
std::string NamedField(const std::string& message) {
  const size_t at = message.find("field '");
  if (at == std::string::npos) return "";
  const size_t begin = at + 7;
  return message.substr(begin, message.find('\'', begin) - begin);
}

TEST_P(RequestSchemaPropertyTest, OpenFieldsReadTheSameAsFlags) {
  Rng rng(GetParam());
  const std::span<const FieldSpec> fields = kSessionSpecFields;
  size_t accepted = 0, refused = 0;
  for (int i = 0; i < 3000; ++i) {
    // At most one mistake per request, so both sides must name it.
    const uint64_t kind = rng.UniformUint64(6);
    const size_t faulty = kind == 0 ? rng.UniformUint64(fields.size())
                                    : fields.size();
    std::vector<Member> members;
    for (size_t f = 0; f < fields.size(); ++f) {
      if (f == faulty || rng.UniformDouble() < 0.3) {
        members.push_back(DrawMember(rng, fields[f], f == faulty));
      }
    }
    if (kind == 1) {
      const std::string name = rng.UniformDouble() < 0.5 ? "kmin" : "threads";
      members.push_back({name, "1", "1"});
    }
    std::string line = "{";
    std::vector<std::string> args;
    for (const Member& m : members) {
      line += (line.size() > 1 ? ",\"" : "\"") + m.name + "\":" + m.json;
      args.push_back(api::FlagName(m.name));
      if (m.flag.has_value()) args.push_back(*m.flag);
    }
    line += "}";
    std::string argv_text;
    for (const std::string& arg : args) argv_text += " '" + arg + "'";

    Result<JsonValue> request = ParseJson(line);
    ASSERT_TRUE(request.ok()) << line;
    const Status checked = api::CheckFields(*request, fields, "open");
    const Result<JsonValue> flags = api::ReadFlags(args, fields, "open");
    ASSERT_EQ(flags.ok(), checked.ok())
        << line << " as" << argv_text << ": "
        << (flags.ok() ? checked.message() : flags.status().message());
    if (checked.ok()) {
      ++accepted;
      EXPECT_EQ(Canonical(*flags), Canonical(*request))
          << line << " as" << argv_text;
      continue;
    }
    ++refused;
    const std::string field = NamedField(checked.message());
    ASSERT_FALSE(field.empty()) << checked.message();
    const std::string& message = flags.status().message();
    const std::string flag = api::FlagName(field);
    EXPECT_TRUE(message.find("'" + field + "'") != std::string::npos ||
                message.rfind(flag + " expects ", 0) == 0 ||
                message.rfind("unknown flag: " + flag + " ", 0) == 0)
        << line << " names '" << field << "', but" << argv_text
        << " answers: " << message;
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(refused, 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestSchemaPropertyTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace fairtopk
