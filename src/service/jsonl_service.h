// Batched JSONL front-end over audit sessions: one JSON request
// object per input line, one JSON response object per output line —
// the wire protocol of tools/fairtopk_serve on stdin/stdout and on
// TCP. This file holds the per-line protocol (HandleLine); framing,
// admission and response order belong to service/request_pipeline.h,
// which both front ends share.
//
// Requests: {"op": ..., "id": <any scalar, echoed back>, ...}. The
// ops and every field each one takes are declared once, in the table
// behind JsonlService::Ops() (jsonl_service.cc; the detect-query fields
// in api/canonical.h): per op its name, where it runs (a session, the
// session catalog, or the process), and a one-line summary; per field
// its JSON type, whether it is required, its minimum, and a one-line
// description. Every request is checked against its op's entry before
// anything runs: a field the op does not declare, a value of the wrong
// type or below its minimum, a missing required field, or a bound
// field of the family the selected detector does not use is
// INVALID_ARGUMENT naming the field and the op. op=capabilities
// renders the table (its "ops" member) and fairtopk_serve --help lists
// the ops from it.
//
// Session ops accept "session": "name" to route one request
// explicitly; without it the client's `use` choice (initially the
// service's default session) applies. Catalog ops (open, close, list,
// use) need a service bound to a SessionCatalog; single-session
// services answer them with FAILED_PRECONDITION, as `close` answers a
// request to close the service's default session.
//
// Responses: {"id": ..., "ok": true, "data": {...}} on success,
// {"id": ..., "ok": false, "error": {"code": ..., "message": ...}}
// otherwise. The loop never aborts on a bad request — a malformed line
// (broken JSON, a non-object, an unknown op, a duplicate object key)
// gets an {"id": null, "ok": false, ...} envelope and the stream
// continues; every line gets exactly one response line.
//
// With more than one pool worker, independent request lines of one
// stream run concurrently over the (thread-safe) session; responses
// still leave in input order. Ordering of effects is only guaranteed
// through the session's reader/writer lock: a write op (update/append)
// excludes concurrent detects while it patches the ranking, but WHICH
// requests run before the write is scheduling — order-sensitive
// scripts should serialize externally or run with one worker.
#ifndef FAIRTOPK_SERVICE_JSONL_SERVICE_H_
#define FAIRTOPK_SERVICE_JSONL_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/audit.h"
#include "api/canonical.h"
#include "common/json.h"
#include "common/metrics/trace.h"
#include "service/audit_session.h"
#include "service/jsonl_defaults.h"
#include "service/session_catalog.h"

namespace fairtopk {

/// Observability knobs of a JsonlService (fairtopk_serve flags).
struct ObservabilityOptions {
  /// When > 0, every request is traced and any request whose
  /// end-to-end latency reaches this many microseconds writes one
  /// JSONL line to the slow-query stream. 0 disables tracing entirely
  /// (requests run with a null TraceSink — the zero-cost path).
  uint64_t slow_query_log_micros = 0;
  /// Slow-query destination; nullptr logs to stderr. Lines are written
  /// whole under an internal lock, so concurrent workers never
  /// interleave mid-line.
  std::ostream* slow_query_stream = nullptr;
};

/// Stateless-per-line request processor bound to one session or to a
/// session catalog. Handlers are thread-safe: HandleLine may be called
/// from many threads at once (the session's concurrency contract does
/// the heavy lifting; the service only reads its immutable defaults,
/// and per-client mutable state lives in the Context).
class JsonlService {
  struct Call;

 public:
  /// Where an op runs.
  enum class Scope {
    kSession,  ///< against one session (see the file comment)
    kCatalog,  ///< on the session catalog
    kProcess,  ///< on the process: no session, no catalog
  };

  /// An op's answer, the response's "data" object: serialized JSON
  /// and the report bytes to splice into it. A report is shared with
  /// its result (DetectionResult::ReportBytes), so HandleLine copies it
  /// once, straight into the response line.
  struct Data {
    explicit Data(std::string json) : json(std::move(json)) {}

    /// The object, without the spliced reports.
    std::string json;
    /// (offset into `json`, bytes) pairs, by ascending offset.
    std::vector<std::pair<size_t, std::shared_ptr<const std::string>>>
        reports;
  };

  /// One declared op: the protocol's unit of dispatch.
  struct Op {
    const char* name;
    Scope scope;
    /// One line for --help and capabilities.
    const char* summary;
    /// Every field its requests may carry, "op" and "id" included.
    std::span<const api::FieldSpec> fields;
    Result<Data> (JsonlService::*handle)(const Call& call);
  };

  /// The 17 declared ops, in listing order: the one table that the
  /// request check, dispatch, the metric op labels, capabilities and
  /// fairtopk_serve --help all read.
  static std::span<const Op> Ops();

  /// Per-client request state: the session selected by op=use. One per
  /// stream (stdin, or one network connection); safe to share between
  /// the concurrent workers of one stream (which of two racing requests sees
  /// a concurrent `use` is scheduling, like all cross-request
  /// ordering).
  class Context {
   public:
    Context() = default;
    explicit Context(std::string session) : current_(std::move(session)) {}

    std::string current() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return current_;
    }
    void set_current(std::string name) {
      std::lock_guard<std::mutex> lock(mutex_);
      current_ = std::move(name);
    }

   private:
    mutable std::mutex mutex_;
    std::string current_;
  };

  /// Single-session service; `session` must outlive the service.
  /// Catalog ops (open/close/list/use, "session" routing) are
  /// rejected.
  JsonlService(AuditSession* session, ServeDefaults defaults)
      : session_(session), defaults_(std::move(defaults)) {}

  /// Catalog-backed service; `catalog` must outlive the service.
  /// Requests without a "session" field (and fresh Contexts) start on
  /// `default_session`.
  JsonlService(SessionCatalog* catalog, std::string default_session)
      : catalog_(catalog), default_session_(std::move(default_session)) {}

  /// Installs the slow-query-log configuration. Call before serving —
  /// not synchronized against in-flight HandleLine calls.
  void set_observability(ObservabilityOptions options) {
    observability_ = std::move(options);
  }

  /// Worker-pool size reported by the stats op's server block (the
  /// front-end that owns the pool tells the service, which otherwise
  /// cannot see it). Call before serving.
  void set_server_workers(int workers) { server_workers_ = workers; }

  /// Handles one request line against `context`; returns the response
  /// line, without its newline but with the capacity for it, so the
  /// front end appends it in place. Never fails — protocol errors become
  /// error responses. The request's latency (the latency histogram
  /// and the slow-query log) counts from `admitted`, when the front
  /// end accepted the line, so it includes the wait for a pool worker;
  /// a trace reports that wait as its "queue" span.
  std::string HandleLine(const std::string& line, Context& context,
                         std::chrono::steady_clock::time_point admitted =
                             std::chrono::steady_clock::now());

  /// Single-shot convenience: a throwaway default Context per line
  /// (every line starts on the service's default session).
  std::string HandleLine(const std::string& line);

  /// The response to a line the front end refused without parsing it
  /// (one longer than RequestPipeline::kMaxLineBytes): an
  /// {"id":null,"ok":false,...} envelope carrying `status`, counted as
  /// an error of op "other".
  std::string RejectLine(const Status& status);

 private:
  /// One request's resolved destination: the session to run against,
  /// its defaults, and (in catalog mode) the handle pinning the entry
  /// across a concurrent close.
  struct Target {
    AuditSession* session = nullptr;
    const ServeDefaults* defaults = nullptr;
    std::shared_ptr<SessionCatalog::Entry> holder;
  };

  /// One checked request on its way to its op's handler; `target` is
  /// resolved for session ops only.
  struct Call {
    const Op& op;
    const JsonValue& request;
    Context& context;
    metrics::TraceSink* trace;  // null when tracing is off
    Target target;
  };

  /// Resolves the request's "session" field / the context's current
  /// session to a Target (single-session services resolve to their one
  /// session and reject explicit routing).
  Result<Target> ResolveTarget(const JsonValue& request,
                               Context& context) const;

  /// Builds the api::AuditRequest that `request` (the call's own, or
  /// one of its detect_batch queries) describes: detector resolution
  /// through the registry, then config and bounds through the
  /// canonical codec over the target's defaults. A bound field of the
  /// family the detector does not use is refused, naming the op.
  Result<api::AuditRequest> DecodeRequest(const Call& call,
                                          const JsonValue& request) const;

  /// Appends one detection answer, {"cached": ..., "coalesced": ...,
  /// "report": ...}, to `data`, the report as a splice. Takes no
  /// session lock: the report is formatted from the result's stored
  /// counts, once per result (DetectionResult::ReportBytes), and shared
  /// after that. Every service over one session must label it with the
  /// same dataset, since a cached result keeps the first labels it was
  /// served with.
  void AppendDetection(const Target& target,
                       const api::AuditResponse& response, Data& data) const;

  /// Checks `request` against `op`'s fields, resolves its scope, and
  /// runs its handler.
  Result<Data> Dispatch(const Op& op, const JsonValue& request,
                        Context& context, metrics::TraceSink* trace);

  /// Per-op payload builders, one per table entry; on success they
  /// answer the "data" object.
  Result<Data> HandleDetect(const Call& call);
  Result<Data> HandleDetectBatch(const Call& call);
  Result<Data> HandleCapabilities(const Call& call);
  Result<Data> HandleSuggest(const Call& call);
  Result<Data> HandleVerify(const Call& call);
  Result<Data> HandleRerank(const Call& call);
  Result<Data> HandleUpdate(const Call& call);
  Result<Data> HandleAppend(const Call& call);
  Result<Data> HandleStats(const Call& call);
  Result<Data> HandleMetrics(const Call& call);
  Result<Data> HandleInvalidate(const Call& call);
  Result<Data> HandleSave(const Call& call);
  Result<Data> HandleSnapshotInfo(const Call& call);
  Result<Data> HandleOpen(const Call& call);
  Result<Data> HandleClose(const Call& call);
  Result<Data> HandleList(const Call& call);
  Result<Data> HandleUse(const Call& call);

  /// Writes one slow-query JSONL line (whole, under a process-wide
  /// lock) describing a request that crossed the threshold.
  void WriteSlowQueryLine(const JsonValue* request, const char* op_label,
                          uint64_t micros,
                          const metrics::RequestTrace& trace) const;

  // Exactly one of the two is set, per constructor.
  AuditSession* session_ = nullptr;
  ServeDefaults defaults_;
  SessionCatalog* catalog_ = nullptr;
  std::string default_session_;
  ObservabilityOptions observability_;
  int server_workers_ = 1;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_JSONL_SERVICE_H_
