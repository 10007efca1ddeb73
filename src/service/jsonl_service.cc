#include "service/jsonl_service.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <mutex>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/metrics/metrics.h"
#include "index/kernels/kernels.h"
#include "report/json_report.h"
#include "storage/snapshot_format.h"

namespace fairtopk {

namespace {

/// Wire-layer metric families (series resolved per request — the op
/// label is only known then). One instance per process.
struct ServiceMetrics {
  metrics::Family<metrics::Counter>& requests;
  metrics::Family<metrics::Counter>& errors;
  metrics::Family<metrics::Histogram>& latency;
  metrics::Family<metrics::Counter>& slow;

  static ServiceMetrics& Get() {
    static ServiceMetrics* m = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return new ServiceMetrics{
          registry.CounterFamily("fairtopk_requests_total",
                                 "JSONL requests handled, by op", {"op"}),
          registry.CounterFamily("fairtopk_request_errors_total",
                                 "JSONL error responses, by op and status "
                                 "code",
                                 {"op", "code"}),
          registry.HistogramFamily("fairtopk_request_latency_micros",
                                   "End-to-end request latency (admission "
                                   "to serialized response, queue wait "
                                   "included)",
                                   {"op"}),
          registry.CounterFamily("fairtopk_slow_queries_total",
                                 "Requests that crossed the slow-query-log "
                                 "threshold, by op",
                                 {"op"})};
    }();
    return *m;
  }
};

/// Whole microseconds from `start` to now.
uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// The request id (string, number, or bool) as it is echoed in the
/// response; anything else, including a missing id, becomes null.
/// Numbers echo in the shortest form that reads back as the same
/// double, integral ones in [-2^63, 2^64) digit for digit: %.10g, as
/// JsonWriter::Double prints report metrics, would lose digits of
/// epoch-millis, uint64 snowflake or fractional ids and orphan the
/// response for a client that matches responses by id.
std::string IdJson(const JsonValue& request) {
  const JsonValue* id = request.Find("id");
  if (id == nullptr) return "null";
  std::string out;
  switch (id->type()) {
    case JsonValue::Type::kString:
      out += '"';
      AppendJsonEscaped(out, id->string_value());
      out += '"';
      return out;
    case JsonValue::Type::kNumber: {
      const double v = id->number_value();
      if (v == std::floor(v) && v >= -9223372036854775808.0 &&
          v < 9223372036854775808.0) {
        AppendJsonInt(out, static_cast<long long>(v));
      } else if (v == std::floor(v) && v >= 9223372036854775808.0 &&
                 v < 18446744073709551616.0) {
        // Every integral double in [2^63, 2^64) is a uint64.
        AppendJsonUint(out, static_cast<unsigned long long>(v));
      } else {
        char buf[32];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
      }
      return out;
    }
    case JsonValue::Type::kBool:
      return id->bool_value() ? "true" : "false";
    default:
      return "null";
  }
}

/// The response line {"id": ..., "ok": ..., <member>: <body>}, `body`'s
/// reports spliced in. The line is one buffer, sized up front with room
/// for the newline the front end appends, so each report is copied
/// exactly once on its way out and nothing is reallocated after it.
std::string Respond(const JsonValue& request, bool ok,
                    const JsonlService::Data& body) {
  constexpr std::string_view kOpen = "{\"id\":";
  const std::string id = IdJson(request);
  const std::string_view head = ok ? ",\"ok\":true,\"data\":"
                                   : ",\"ok\":false,\"error\":";
  // The members, the closing brace and the newline.
  size_t size = kOpen.size() + id.size() + head.size() + body.json.size() + 2;
  for (const auto& [at, bytes] : body.reports) size += bytes->size();
  std::string out;
  out.reserve(size);
  out += kOpen;
  out += id;
  out += head;
  size_t done = 0;
  for (const auto& [at, bytes] : body.reports) {
    out.append(body.json, done, at - done);
    out += *bytes;
    done = at;
  }
  out.append(body.json, done);
  out += '}';
  return out;
}

std::string ErrorResponse(const JsonValue& request, const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("code").String(StatusCodeName(status.code()));
  w.Key("message").String(status.message());
  w.EndObject();
  return Respond(request, false, JsonlService::Data(w.Take()));
}

/// Decodes {"Attr": "label", ...} (an object, checked against the
/// op's fields) into a pattern over `space`.
Result<Pattern> PatternField(const JsonValue& group,
                             const PatternSpace& space) {
  std::vector<std::pair<std::string, std::string>> labels;
  for (const auto& [name, label] : group.object_members()) {
    if (!label.is_string()) {
      return Status::InvalidArgument("group value for '" + name +
                                     "' must be a string label");
    }
    labels.emplace_back(name, label.string_value());
  }
  return PatternOfLabels(space, labels);
}

/// Serializes a session's storage state — shared by op=snapshot_info,
/// op=save's response, and op=stats' "storage" block.
void WriteStorageInfo(JsonWriter& w, const SessionStorageInfo& info) {
  w.BeginObject();
  w.Key("persistent").Bool(info.log_attached);
  w.Key("snapshot_version").Uint(storage::kSnapshotVersion);
  w.Key("generation").Uint(info.generation);
  w.Key("snapshot_bytes").Uint(info.snapshot_bytes);
  w.Key("snapshot_path").String(info.snapshot_path);
  w.Key("log_records").Uint(info.log_records);
  w.Key("log_bytes").Uint(info.log_bytes);
  w.EndObject();
}

void WriteMaintenance(JsonWriter& w, const MaintenanceReport& report) {
  const char* kind = "noop";
  if (report.kind == DetectionInput::Maintenance::kRebuilt) {
    kind = "rebuilt";
  } else if (report.kind == DetectionInput::Maintenance::kPatched) {
    kind = "patched";
  }
  w.Key("maintenance").String(kind);
  w.Key("positions_patched").Uint(report.positions_patched);
}

/// The report-facing measure label of a registered detector, derived
/// from its bounds kind (not the free-form measure string, which
/// custom registrations may set to anything).
const char* MeasureLabel(const api::DetectorDescriptor& descriptor) {
  return descriptor.bounds_kind == api::BoundsKind::kGlobal
             ? "global"
             : "proportional";
}

using api::FieldSpec;
using enum api::FieldType;

/// Stores a checked field value into `out`, by out's type.
void Assign(const JsonValue& v, std::string& out) { out = v.string_value(); }
void Assign(const JsonValue& v, bool& out) { out = v.bool_value(); }
template <typename Number>
void Assign(const JsonValue& v, Number& out) {
  out = static_cast<Number>(v.number_value());
}
void Assign(const JsonValue& v, std::vector<std::string>& out) {
  for (const JsonValue& item : v.array_items()) {
    out.push_back(item.string_value());
  }
}

/// The setter of an open field: stores its value into the SessionSpec
/// member that `Path` names (a member of a member for the session
/// options).
template <auto... Path>
void Set(void* spec, const JsonValue& value) {
  Assign(value, (*static_cast<SessionSpec*>(spec) .* ... .* Path));
}

// The declared fields of every op, in groups; each op's list below is
// the whole of what its requests may carry.
constexpr FieldSpec kEnvelope[] = {
    {.name = "op", .type = kString, .description = "the op to run",
     .required = true},
    {"id", kAny, "echoed in the response if a string, number or bool"},
};
constexpr FieldSpec kRouting[] = {
    {"session", kString, "session to run on (default: see op=use)"},
};
constexpr FieldSpec kSelector[] = {
    {"detector", kString, "detector name; wins over measure and algo"},
    {"measure", kString, "global or prop (default prop)"},
    {"algo", kString, "itertd, bounds or upper (default bounds)"},
};
/// One detection query: its detector and that detector's parameters.
constexpr auto kQuery =
    api::JoinFields<kSelector, api::kConfigFields, api::kGlobalBoundFields,
                    api::kPropBoundFields>();
constexpr FieldSpec kSuggest[] = {
    {"k_min", kInt, "first rank of the calibrated range"},
    {"k_max", kInt, "last rank of the calibrated range"},
    {.name = "max_groups", .type = kInt,
     .description = "most groups a bound may report (default 20)", .min = 1},
};
constexpr FieldSpec kName[] = {
    {.name = "name", .type = kString, .description = "the session's name",
     .required = true, .min = 1},
};
/// open's knobs, as the fairtopk_serve flags.
constexpr FieldSpec kOpen[] = {
    {"csv", kString, "CSV to load (with rank_by)", Set<&SessionSpec::csv>},
    {"rank_by", kString, "numeric column to rank by",
     Set<&SessionSpec::rank_by>},
    {"snapshot", kString, "snapshot file to open read-only",
     Set<&SessionSpec::snapshot>},
    {"data_dir", kString, "durable directory to replay or cold-start",
     Set<&SessionSpec::data_dir>},
    {"fsync_always", kBool, "fsync the op log after each maintenance op",
     Set<&SessionSpec::fsync_always>},
    {"ascending", kBool, "rank ascending", Set<&SessionSpec::ascending>},
    {.name = "bins", .type = kInt,
     .description = "buckets per numeric attribute (default 4)",
     .set = Set<&SessionSpec::bins>, .min = 2},
    {"drop", kStrings, "columns to ignore", Set<&SessionSpec::drop>},
    {"k_min", kInt, "default first rank", Set<&SessionSpec::k_min>},
    {"k_max", kInt, "default last rank", Set<&SessionSpec::k_max>},
    {"tau", kInt, "default minimum group size (0: 5% of rows)",
     Set<&SessionSpec::tau>},
    {"lower", kNumber, "default global lower bound, a fraction of k",
     Set<&SessionSpec::lower_fraction>},
    {"alpha", kNumber, "default proportional multiplier",
     Set<&SessionSpec::alpha>},
    {.name = "cache_capacity", .type = kInt,
     .description = "cached detection results (0 disables)",
     .set = Set<&SessionSpec::session, &SessionOptions::cache_capacity>,
     .min = 0},
    {"rebuild_threshold", kNumber, "changed share of rank positions above "
     "which the index is rebuilt, not patched",
     Set<&SessionSpec::session, &SessionOptions::rebuild_threshold>},
};

constexpr auto kSessionOp = api::JoinFields<kEnvelope, kRouting>();
constexpr auto kQueryOp = api::JoinFields<kEnvelope, kRouting, kQuery>();
constexpr auto kBatchOp = api::JoinFields<kEnvelope, kRouting>(FieldSpec{
    .name = "queries", .type = kArray,
    .description = "detect queries, without op, id and session",
    .required = true, .min = 1, .items = kQuery});
constexpr auto kVerifyOp = api::JoinFields<kEnvelope, kRouting, kQuery>(
    FieldSpec{.name = "group", .type = kObject,
              .description = "{attribute: label, ...}", .required = true});
constexpr auto kSuggestOp = api::JoinFields<kEnvelope, kRouting, kSuggest>();
constexpr auto kUpdateOp = api::JoinFields<kEnvelope, kRouting>(FieldSpec{
    .name = "scores", .type = kArray, .description = "[[row, score], ...]",
    .required = true});
constexpr auto kAppendOp = api::JoinFields<kEnvelope, kRouting>(FieldSpec{
    .name = "rows", .type = kArray, .description = "[{column: value}, ...]",
    .required = true});
constexpr auto kSaveOp = api::JoinFields<kEnvelope, kRouting>(FieldSpec{
    .name = "path", .type = kString,
    .description = "write a snapshot copy here instead", .min = 1});
constexpr auto kNameOp = api::JoinFields<kEnvelope, kName>();
constexpr auto kOpenOp = api::JoinFields<kEnvelope, kName, kOpen>();

constexpr const char* kScopeNames[] = {"session", "catalog", "process"};

/// The declared op a request names.
Result<const JsonlService::Op*> FindOp(const JsonValue& request) {
  const JsonValue* op = request.Find("op");
  if (op != nullptr && !op->is_string()) {
    return Status::InvalidArgument("'op' must be a string");
  }
  if (op == nullptr || op->string_value().empty()) {
    return Status::InvalidArgument("request misses 'op'");
  }
  for (const JsonlService::Op& candidate : JsonlService::Ops()) {
    if (op->string_value() == candidate.name) return &candidate;
  }
  return Status::InvalidArgument("unknown op '" + op->string_value() +
                                 "' (see op=capabilities)");
}

}  // namespace

Result<JsonlService::Target> JsonlService::ResolveTarget(
    const JsonValue& request, Context& context) const {
  const JsonValue* selector = request.Find("session");
  if (catalog_ == nullptr) {
    if (selector != nullptr) {
      return Status::FailedPrecondition(
          "this service has no session catalog ('session' routing "
          "requires one)");
    }
    return Target{session_, &defaults_, nullptr};
  }
  std::string name;
  if (selector != nullptr) {
    name = selector->string_value();
  } else {
    name = context.current();
    if (name.empty()) name = default_session_;
  }
  std::shared_ptr<SessionCatalog::Entry> entry = catalog_->Find(name);
  if (entry == nullptr) {
    return Status::NotFound("no session named '" + name +
                            "' (see op=list)");
  }
  AuditSession* session = &entry->session;
  const ServeDefaults* defaults = &entry->defaults;
  return Target{session, defaults, std::move(entry)};
}

Result<api::AuditRequest> JsonlService::DecodeRequest(
    const Call& call, const JsonValue& request) const {
  const api::DetectorRegistry& registry = api::DetectorRegistry::Global();
  const api::DetectorDescriptor* descriptor = nullptr;
  // The registry name wins over the wire (measure, algo) pair.
  if (const JsonValue* name = request.Find("detector")) {
    descriptor = registry.Find(name->string_value());
    if (descriptor == nullptr) {
      return Status::NotFound("no detector named '" + name->string_value() +
                              "' is registered (see op=capabilities)");
    }
  } else {
    FAIRTOPK_ASSIGN_OR_RETURN(
        descriptor, registry.Resolve(request.StringOr("measure", "prop"),
                                     request.StringOr("algo", "bounds")));
  }
  // The detector reads only its own family's bound fields, so one of
  // the other family would be dropped unread.
  const api::BoundsKind other =
      descriptor->bounds_kind == api::BoundsKind::kGlobal
          ? api::BoundsKind::kProportional
          : api::BoundsKind::kGlobal;
  for (const auto& [key, value] : request.object_members()) {
    if (api::FindField(api::BoundFields(other), key) != nullptr) {
      return Status::InvalidArgument(
          "'" + std::string(call.op.name) + "' field '" + key +
          "' is no bound of detector '" + descriptor->name +
          "' (its bound fields: " +
          api::FieldNames(api::BoundFields(descriptor->bounds_kind)) + ")");
    }
  }
  api::AuditRequest query;
  query.detector = descriptor->name;
  const ServeDefaults& defaults = *call.target.defaults;
  FAIRTOPK_ASSIGN_OR_RETURN(query.config,
                            api::ConfigFromJson(request, defaults.config));
  FAIRTOPK_ASSIGN_OR_RETURN(
      query.bounds,
      api::BoundsFromJson(request, descriptor->bounds_kind, defaults.bounds,
                          query.config));
  return query;
}

void JsonlService::AppendDetection(const Target& target,
                                   const api::AuditResponse& response,
                                   Data& data) const {
  // The result carries its own counts, so formatting needs no session
  // lock. The bytes are built once per result, then shared by every
  // hit, coalesced waiter and batch duplicate of it: the labels are
  // fixed per result (the detector is part of the cache key, the
  // dataset a default of the session's service).
  std::shared_ptr<const std::string> report =
      response.result->ReportBytes([&] {
        const ReportContext context{target.defaults->dataset,
                                    MeasureLabel(*response.detector),
                                    response.detector->name};
        return DetectionResultToJson(*response.result,
                                     target.session->space(), context);
      });
  data.json += response.cached ? "{\"cached\":true" : "{\"cached\":false";
  data.json +=
      response.coalesced ? ",\"coalesced\":true" : ",\"coalesced\":false";
  data.json += ",\"report\":";
  data.reports.emplace_back(data.json.size(), std::move(report));
  data.json += '}';
}

Result<JsonlService::Data> JsonlService::HandleDetect(const Call& call) {
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditRequest query,
                            DecodeRequest(call, call.request));
  query.trace = call.trace;
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditResponse response,
                            call.target.session->Detect(query));
  metrics::SpanTimer span(call.trace, "serialize");
  Data data("");
  AppendDetection(call.target, response, data);
  return data;
}

Result<JsonlService::Data> JsonlService::HandleDetectBatch(const Call& call) {
  const std::vector<JsonValue>& queries =
      call.request.Find("queries")->array_items();
  std::vector<api::AuditRequest> batch;
  batch.reserve(queries.size());
  for (const JsonValue& q : queries) {
    FAIRTOPK_ASSIGN_OR_RETURN(api::AuditRequest query, DecodeRequest(call, q));
    batch.push_back(std::move(query));
  }
  // DetectMany takes no trace, so batch members are not traced one by
  // one — the batch still reports parse/serialize spans and per-op
  // latency.
  FAIRTOPK_ASSIGN_OR_RETURN(std::vector<api::AuditResponse> responses,
                            call.target.session->DetectMany(batch));
  metrics::SpanTimer span(call.trace, "serialize");
  Data data("{\"results\":[");
  for (size_t i = 0; i < responses.size(); ++i) {
    if (i > 0) data.json += ',';
    AppendDetection(call.target, responses[i], data);
  }
  data.json += "]}";
  return data;
}

Result<JsonlService::Data> JsonlService::HandleCapabilities(const Call&) {
  JsonWriter w;
  w.BeginObject();
  api::WriteCapabilities(w, api::DetectorRegistry::Global());
  w.Key("ops").BeginArray();
  for (const Op& op : Ops()) {
    w.BeginObject();
    w.Key("name").String(op.name);
    w.Key("scope").String(kScopeNames[static_cast<int>(op.scope)]);
    w.Key("summary").String(op.summary);
    w.Key("fields");
    api::WriteFieldsJson(w, op.fields);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleSuggest(const Call& call) {
  FAIRTOPK_ASSIGN_OR_RETURN(
      const DetectionConfig config,
      api::ConfigFromJson(call.request, call.target.defaults->config));
  SuggestOptions options;
  options.max_groups = static_cast<size_t>(call.request.NumberOr(
      "max_groups", static_cast<double>(options.max_groups)));
  FAIRTOPK_ASSIGN_OR_RETURN(SuggestedParameters params,
                            call.target.session->Suggest(config, options));
  JsonWriter w;
  w.BeginObject();
  w.Key("tau").Int(params.size_threshold);
  w.Key("global_level").Double(params.global_level);
  w.Key("alpha").Double(params.alpha);
  w.Key("lower_steps");
  api::WriteStepsJson(w, params.global_bounds.lower);
  w.Key("groups_at_kmax_global").Uint(params.groups_at_kmax_global);
  w.Key("groups_at_kmax_prop").Uint(params.groups_at_kmax_prop);
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleVerify(const Call& call) {
  const Target& target = call.target;
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditRequest query,
                            DecodeRequest(call, call.request));
  FAIRTOPK_ASSIGN_OR_RETURN(
      Pattern pattern,
      PatternField(*call.request.Find("group"), target.session->space()));
  FAIRTOPK_ASSIGN_OR_RETURN(
      FairnessReport report,
      std::holds_alternative<GlobalBoundSpec>(query.bounds)
          ? target.session->VerifyGlobal(
                pattern, std::get<GlobalBoundSpec>(query.bounds),
                query.config)
          : target.session->VerifyProp(pattern,
                                       std::get<PropBoundSpec>(query.bounds),
                                       query.config));
  JsonWriter w;
  w.BeginObject();
  w.Key("group").Raw(PatternToJson(report.group, target.session->space()));
  w.Key("size").Uint(report.size_in_d);
  w.Key("fair").Bool(report.fair());
  w.Key("violations").BeginArray();
  for (const FairnessViolation& v : report.violations) {
    w.BeginObject();
    w.Key("k").Int(v.k);
    w.Key("count").Uint(v.count);
    w.Key("lower").Double(v.lower);
    w.Key("upper").Double(v.upper);
    w.Key("below_lower").Bool(v.below_lower);
    w.Key("above_upper").Bool(v.above_upper);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleRerank(const Call& call) {
  const Target& target = call.target;
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditRequest query,
                            DecodeRequest(call, call.request));
  query.trace = call.trace;
  FAIRTOPK_ASSIGN_OR_RETURN(const api::DetectorDescriptor* descriptor,
                            api::ResolveRequest(query));
  if (!descriptor->lower_violations) {
    // Over-represented groups must never become representation floors:
    // the repair would guarantee MORE of exactly the groups detected
    // as exceeding their bound. Checked before the (expensive,
    // cache-filling) detection runs.
    return Status::InvalidArgument(
        "'rerank' requires a lower-bound detector ('" + descriptor->name +
        "' reports over-represented groups)");
  }
  FAIRTOPK_ASSIGN_OR_RETURN(api::AuditResponse detected,
                            target.session->Detect(query));
  // Detected groups become representation floors, as in
  // fairtopk_audit --rerank; proportional floors use the group sizes
  // stored with the result, from the ranking it was detected on.
  const std::vector<RepresentationConstraint> constraints = std::visit(
      [&](const auto& bounds) {
        return ConstraintsFromDetection(*detected.result, bounds);
      },
      query.bounds);
  FAIRTOPK_ASSIGN_OR_RETURN(RepairOutcome repair,
                            target.session->Repair(constraints, query.config));
  JsonWriter w;
  w.BeginObject();
  w.Key("constraints").Uint(constraints.size());
  w.Key("tuples_moved").Uint(repair.tuples_moved);
  w.Key("kendall_tau_distance").Uint(repair.kendall_tau_distance);
  w.Key("feasible").Bool(repair.feasible);
  w.Key("unsatisfied").BeginArray();
  for (const Pattern& p : repair.unsatisfied) {
    w.Raw(PatternToJson(p, target.session->space()));
  }
  w.EndArray();
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleUpdate(const Call& call) {
  const std::vector<JsonValue>& scores =
      call.request.Find("scores")->array_items();
  std::vector<ScoreUpdate> updates;
  updates.reserve(scores.size());
  for (const JsonValue& item : scores) {
    if (!item.is_array() || item.array_items().size() != 2 ||
        !item.array_items()[0].is_number() ||
        !item.array_items()[1].is_number()) {
      return Status::InvalidArgument("score updates must be [row, score]");
    }
    const double row = item.array_items()[0].number_value();
    if (row < 0 || row != std::floor(row) ||
        row > static_cast<double>(
                  std::numeric_limits<uint32_t>::max())) {
      return Status::InvalidArgument("row ids must be non-negative integers");
    }
    updates.push_back({static_cast<uint32_t>(row),
                       item.array_items()[1].number_value()});
  }
  // Wire contract: duplicate rows inside one batch are last-write-wins
  // (documented in README's protocol section). Collapsed here so the
  // session only ever sees one entry per row, independent of which
  // re-rank strategy it picks.
  {
    std::unordered_map<uint32_t, size_t> position;
    position.reserve(updates.size());
    size_t kept = 0;
    for (const ScoreUpdate& u : updates) {
      auto [it, inserted] = position.emplace(u.row, kept);
      if (inserted) {
        updates[kept++] = u;
      } else {
        updates[it->second].score = u.score;
      }
    }
    updates.resize(kept);
  }
  // Per-call report: with concurrent update/append requests in flight,
  // diffing the global counters would attribute another request's
  // maintenance to this one.
  MaintenanceReport report;
  FAIRTOPK_RETURN_IF_ERROR(
      call.target.session->ApplyScoreUpdates(updates, &report));
  JsonWriter w;
  w.BeginObject();
  w.Key("rows_updated").Uint(updates.size());
  WriteMaintenance(w, report);
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleAppend(const Call& call) {
  const std::vector<JsonValue>& rows =
      call.request.Find("rows")->array_items();
  const Schema& schema = call.target.session->table().schema();
  std::vector<std::vector<Cell>> cells;
  cells.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    const JsonValue& row = rows[r];
    if (!row.is_object()) {
      return Status::InvalidArgument("each appended row must be an object");
    }
    // A member that names no column would be dropped unread.
    for (const auto& [column, value] : row.object_members()) {
      if (!schema.IndexOf(column).has_value()) {
        return Status::InvalidArgument("appended row " + std::to_string(r) +
                                       " names '" + column +
                                       "', which is not a column of the "
                                       "table");
      }
    }
    std::vector<Cell> out(schema.size());
    for (size_t c = 0; c < schema.size(); ++c) {
      const AttributeSchema& attr = schema.attribute(c);
      const JsonValue* cell = row.Find(attr.name);
      if (cell == nullptr) {
        return Status::InvalidArgument("appended row misses column '" +
                                       attr.name + "'");
      }
      if (attr.type == AttributeType::kCategorical) {
        if (!cell->is_string()) {
          return Status::InvalidArgument("column '" + attr.name +
                                         "' takes a string label");
        }
        auto code = schema.CodeOf(c, cell->string_value());
        if (!code.has_value()) {
          return Status::NotFound("label '" + cell->string_value() +
                                  "' not in the domain of '" + attr.name +
                                  "'");
        }
        out[c] = Cell::Code(*code);
      } else {
        if (!cell->is_number()) {
          return Status::InvalidArgument("column '" + attr.name +
                                         "' takes a number");
        }
        out[c] = Cell::Value(cell->number_value());
      }
    }
    cells.push_back(std::move(out));
  }
  MaintenanceReport report;
  FAIRTOPK_RETURN_IF_ERROR(call.target.session->AppendRows(cells, &report));
  JsonWriter w;
  w.BeginObject();
  w.Key("rows_appended").Uint(cells.size());
  w.Key("num_rows").Uint(call.target.session->num_rows());
  WriteMaintenance(w, report);
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleStats(const Call& call) {
  const AuditSession& session = *call.target.session;
  const SessionServiceStats stats = session.service_stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("num_rows").Uint(session.num_rows());
  w.Key("pattern_attributes").Uint(session.space().num_attributes());
  // Which bitset kernel variant this process dispatched to at startup
  // (scalar/avx2/avx512/neon; see index/kernels/kernels.h).
  w.Key("kernel").String(kernels::ActiveName());
  w.Key("cache_entries").Uint(session.cache_size());
  w.Key("detect_queries").Uint(stats.detect_queries);
  w.Key("cache_hits").Uint(stats.cache_hits);
  w.Key("coalesced_hits").Uint(stats.coalesced_hits);
  w.Key("score_updates").Uint(stats.score_updates);
  w.Key("appends").Uint(stats.appends);
  w.Key("rows_appended").Uint(stats.rows_appended);
  w.Key("index_patches").Uint(stats.index_patches);
  w.Key("index_rebuilds").Uint(stats.index_rebuilds);
  w.Key("positions_patched").Uint(stats.positions_patched);
  // Server-level info, so a client no longer cross-references
  // capabilities + list to reconstruct the process view.
  w.Key("server").BeginObject();
  w.Key("uptime_seconds").Double(metrics::UptimeSeconds());
  w.Key("kernel").String(kernels::ActiveName());
  w.Key("workers").Int(server_workers_);
  w.Key("sessions").Uint(catalog_ != nullptr ? catalog_->size() : 1);
  w.EndObject();
  w.Key("storage");
  WriteStorageInfo(w, session.storage_info());
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleMetrics(const Call&) {
  return Data(metrics::MetricsRegistry::Global().RenderJson());
}

Result<JsonlService::Data> JsonlService::HandleInvalidate(const Call& call) {
  call.target.session->InvalidateCache();
  JsonWriter w;
  w.BeginObject();
  w.Key("cache_entries").Uint(call.target.session->cache_size());
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleSave(const Call& call) {
  if (const JsonValue* path = call.request.Find("path")) {
    FAIRTOPK_RETURN_IF_ERROR(
        call.target.session->SaveSnapshot(path->string_value()));
  } else {
    FAIRTOPK_RETURN_IF_ERROR(call.target.session->SaveSnapshot());
  }
  return HandleSnapshotInfo(call);
}

Result<JsonlService::Data> JsonlService::HandleSnapshotInfo(const Call& call) {
  JsonWriter w;
  w.BeginObject();
  w.Key("storage");
  WriteStorageInfo(w, call.target.session->storage_info());
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleOpen(const Call& call) {
  const std::string& name = call.request.Find("name")->string_value();
  SessionSpec spec;
  for (const auto& [key, value] : call.request.object_members()) {
    const api::FieldSpec* field = api::FindField(call.op.fields, key);
    if (field != nullptr && field->set != nullptr) field->set(&spec, value);
  }
  FAIRTOPK_RETURN_IF_ERROR(catalog_->Open(name, spec));
  std::shared_ptr<SessionCatalog::Entry> entry = catalog_->Find(name);
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String(name);
  if (entry != nullptr) {  // a concurrent close may already have won
    w.Key("num_rows").Uint(entry->session.num_rows());
    w.Key("pattern_attributes")
        .Uint(entry->session.space().num_attributes());
  }
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleClose(const Call& call) {
  const std::string& name = call.request.Find("name")->string_value();
  // Every client without a `use` choice runs on the default session;
  // closing it would strand all of them.
  if (name == default_session_) {
    return Status::FailedPrecondition(
        "session '" + name +
        "' is the service's default session and cannot be closed");
  }
  FAIRTOPK_RETURN_IF_ERROR(catalog_->Close(name));
  JsonWriter w;
  w.BeginObject();
  w.Key("closed").String(name);
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleList(const Call& call) {
  std::string current = call.context.current();
  if (current.empty()) current = default_session_;
  JsonWriter w;
  w.BeginObject();
  w.Key("current").String(current);
  w.Key("sessions").BeginArray();
  for (const SessionCatalog::Info& info : catalog_->List()) {
    w.BeginObject();
    w.Key("name").String(info.name);
    w.Key("dataset").String(info.dataset);
    w.Key("num_rows").Uint(info.num_rows);
    w.Key("pattern_attributes").Uint(info.pattern_attributes);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return Data(w.Take());
}

Result<JsonlService::Data> JsonlService::HandleUse(const Call& call) {
  const std::string& name = call.request.Find("name")->string_value();
  if (catalog_->Find(name) == nullptr) {
    return Status::NotFound("no session named '" + name +
                            "' (see op=list)");
  }
  call.context.set_current(name);
  JsonWriter w;
  w.BeginObject();
  w.Key("session").String(name);
  w.EndObject();
  return Data(w.Take());
}

std::span<const JsonlService::Op> JsonlService::Ops() {
  using enum Scope;
  static constexpr Op kOps[] = {
      {"detect", kSession, "one detection query: a detector, its k range "
       "and bounds", kQueryOp, &JsonlService::HandleDetect},
      {"detect_batch", kSession, "several detection queries; identical ones "
       "run once", kBatchOp, &JsonlService::HandleDetectBatch},
      {"capabilities", kProcess, "registered detectors, bitset kernels, and "
       "these ops' fields", kEnvelope, &JsonlService::HandleCapabilities},
      {"suggest", kSession, "calibrate tau and the bounds", kSuggestOp,
       &JsonlService::HandleSuggest},
      {"verify", kSession, "check one declared group against a detector's "
       "bounds", kVerifyOp, &JsonlService::HandleVerify},
      {"rerank", kSession, "detect, then report a repair of the ranking "
       "(not applied)", kQueryOp, &JsonlService::HandleRerank},
      {"update", kSession, "change scores; ranking and index are maintained "
       "in place", kUpdateOp, &JsonlService::HandleUpdate},
      {"append", kSession, "append rows; ranking and index are maintained "
       "in place", kAppendOp, &JsonlService::HandleAppend},
      {"stats", kSession, "session counters, storage state, and a server "
       "block", kSessionOp, &JsonlService::HandleStats},
      {"metrics", kProcess, "the process metrics registry (what Prometheus "
       "scrapes)", kEnvelope, &JsonlService::HandleMetrics},
      {"invalidate", kSession, "drop the session's cached results",
       kSessionOp, &JsonlService::HandleInvalidate},
      {"save", kSession, "compact the session's snapshot, or copy it to "
       "'path'", kSaveOp, &JsonlService::HandleSave},
      {"snapshot_info", kSession, "the session's storage state: generation, "
       "snapshot, op log", kSessionOp, &JsonlService::HandleSnapshotInfo},
      {"open", kCatalog, "open a named session from a CSV, snapshot, or data "
       "dir", kOpenOp, &JsonlService::HandleOpen},
      {"close", kCatalog, "drop a named session; requests running on it "
       "finish", kNameOp, &JsonlService::HandleClose},
      {"list", kCatalog, "the sessions and this client's current one",
       kEnvelope, &JsonlService::HandleList},
      {"use", kCatalog, "set this client's default session", kNameOp,
       &JsonlService::HandleUse},
  };
  return kOps;
}

Result<JsonlService::Data> JsonlService::Dispatch(const Op& op,
                                                  const JsonValue& request,
                                                  Context& context,
                                                  metrics::TraceSink* trace) {
  FAIRTOPK_RETURN_IF_ERROR(api::CheckFields(request, op.fields, op.name));
  Call call{op, request, context, trace, {}};
  if (op.scope == Scope::kCatalog && catalog_ == nullptr) {
    return Status::FailedPrecondition(
        "this service has no session catalog (single-session mode)");
  }
  if (op.scope == Scope::kSession) {
    FAIRTOPK_ASSIGN_OR_RETURN(call.target, ResolveTarget(request, context));
  }
  return (this->*op.handle)(call);
}

void JsonlService::WriteSlowQueryLine(const JsonValue* request,
                                      const char* op_label, uint64_t micros,
                                      const metrics::RequestTrace& trace) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("slow_query").Bool(true);
  w.Key("id").Raw(request != nullptr ? IdJson(*request) : "null");
  w.Key("op").String(op_label);
  w.Key("micros").Uint(micros);
  w.Key("threshold_micros").Uint(observability_.slow_query_log_micros);
  trace.WriteJsonMembers(w);
  w.EndObject();
  // One process-wide lock: slow lines from concurrent workers (and
  // from several services sharing stderr) must never interleave.
  static std::mutex* log_mutex = new std::mutex();
  std::ostream& out = observability_.slow_query_stream != nullptr
                          ? *observability_.slow_query_stream
                          : std::cerr;
  std::lock_guard<std::mutex> lock(*log_mutex);
  out << w.str() << '\n';
  out.flush();
}

std::string JsonlService::HandleLine(
    const std::string& line, Context& context,
    std::chrono::steady_clock::time_point admitted) {
  const uint64_t slow_threshold = observability_.slow_query_log_micros;
  metrics::RequestTrace trace_storage;
  metrics::TraceSink* trace =
      slow_threshold > 0 ? &trace_storage : nullptr;
  if (trace != nullptr) trace->OnSpan("queue", MicrosSince(admitted));

  Result<JsonValue> request = [&] {
    metrics::SpanTimer span(trace, "parse");
    return ParseJson(line);
  }();

  const Op* op = nullptr;
  std::string response;
  const char* error_code = nullptr;
  bool valid_object = false;
  if (!request.ok()) {
    error_code = StatusCodeName(request.status().code());
    response = ErrorResponse(JsonValue::Null(), request.status());
  } else if (!request->is_object()) {
    const Status status =
        Status::InvalidArgument("request must be a JSON object");
    error_code = StatusCodeName(status.code());
    response = ErrorResponse(*request, status);
  } else {
    valid_object = true;
    const Result<Data> data = [&]() -> Result<Data> {
      FAIRTOPK_ASSIGN_OR_RETURN(op, FindOp(*request));
      return Dispatch(*op, *request, context, trace);
    }();
    if (!data.ok()) {
      error_code = StatusCodeName(data.status().code());
      response = ErrorResponse(*request, data.status());
    } else {
      response = Respond(*request, true, *data);
    }
  }

  const uint64_t micros = MicrosSince(admitted);
  // The label set is bounded: the declared ops plus "other".
  const char* op_label = op != nullptr ? op->name : "other";
  if (metrics::Enabled()) {
    ServiceMetrics& m = ServiceMetrics::Get();
    m.requests.With({op_label}).Inc();
    m.latency.With({op_label}).Observe(micros);
    if (error_code != nullptr) m.errors.With({op_label, error_code}).Inc();
  }
  if (trace != nullptr && micros >= slow_threshold) {
    if (metrics::Enabled()) ServiceMetrics::Get().slow.With({op_label}).Inc();
    WriteSlowQueryLine(valid_object ? &*request : nullptr, op_label, micros,
                       trace_storage);
  }
  return response;
}

std::string JsonlService::HandleLine(const std::string& line) {
  Context context;
  return HandleLine(line, context);
}

std::string JsonlService::RejectLine(const Status& status) {
  if (metrics::Enabled()) {
    ServiceMetrics& m = ServiceMetrics::Get();
    m.requests.With({"other"}).Inc();
    m.errors.With({"other", StatusCodeName(status.code())}).Inc();
  }
  return ErrorResponse(JsonValue::Null(), status);
}

}  // namespace fairtopk
