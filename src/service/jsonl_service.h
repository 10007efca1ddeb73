// Batched JSONL front-end over audit sessions: one JSON request
// object per input line, one JSON response object per output line —
// the wire protocol of tools/fairtopk_serve on stdin/stdout and on
// TCP. This file holds the per-line protocol (HandleLine); framing,
// admission and response order belong to service/request_pipeline.h,
// which both front ends share.
//
// Requests: {"op": ..., "id": <any scalar, echoed back>, ...}.
//   op=detect   one detection query. The detector is selected by its
//               registry name ("detector": "PropBounds") or by the
//               wire pair measure/algo; k_min/k_max/tau and
//               the bound parameters fall back to the session's
//               defaults (field vocabulary: api/canonical.h, listed
//               per detector by op=capabilities)
//   op=detect_batch  {"queries": [{...}, ...]} — several detection
//               queries against the one prepared input via
//               AuditSession::DetectMany (identical queries run once;
//               the members run on the worker that holds the line)
//   op=capabilities  the registered detectors with their parameter
//               schemas, generated from api::DetectorRegistry
//   op=suggest  parameter calibration (SuggestParameters)
//   op=verify   check one declared group ("group": {"Attr": "label"})
//   op=rerank   detect + repair; reports the repair outcome without
//               mutating the session
//   op=update   {"scores": [[row, score], ...]} — incremental ranking
//               maintenance via AuditSession::ApplyScoreUpdates.
//               Duplicate rows within one batch are last-write-wins
//               (collapsed at this layer before the session runs)
//   op=append   {"rows": [{"Col": value, ...}, ...]} — appends rows
//               (categorical cells by label, numeric cells by number)
//   op=stats    session/service counters plus a "server" block
//               (uptime, kernel, worker-pool size, session count)
//   op=metrics  full process metrics registry dumped as JSON (the
//               same counters/histograms the Prometheus endpoint
//               serves; see common/metrics/metrics.h)
//   op=invalidate  explicit result-cache invalidation
//   op=save     compact the session to its snapshot: write a new
//               snapshot generation and truncate the op log. An
//               optional "path" saves a copy elsewhere instead (the
//               bound data directory, if any, is untouched); without a
//               bound path and without "path" the op fails with
//               FAILED_PRECONDITION
//   op=snapshot_info  the session's storage state (generation,
//               snapshot bytes/path, op-log records pending
//               compaction)
//
// Catalog ops (services bound to a SessionCatalog; single-session
// services answer them with FAILED_PRECONDITION):
//   op=open     {"name": ..., "csv": ..., "rank_by": ..., options} —
//               loads a CSV into a new named session (knob vocabulary
//               mirrors the fairtopk_serve flags: ascending, bins,
//               drop, k_min/k_max/tau, lower, alpha, cache_capacity,
//               rebuild_threshold). "snapshot" opens a snapshot file
//               read-only instead of a CSV; "data_dir" opens a durable
//               directory (open-or-replay, cold start from "csv" when
//               empty; not with "snapshot"); "fsync_always" selects
//               op-log durability. A field of the wrong type is
//               INVALID_ARGUMENT, never its default
//   op=close    {"name": ...} — drops a session; requests already
//               running against it finish unharmed
//   op=list     the registered sessions and this client's current one
//   op=use      {"name": ...} — sets this client's default session
// Every non-catalog op additionally accepts "session": "name" to
// route one request explicitly; without it the client's `use` choice
// (initially the service's default session) applies.
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
#include <string>
#include <utility>

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
 public:
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
  /// line (no trailing newline). Never fails — protocol errors become
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

  /// Resolves the request's "session" field / the context's current
  /// session to a Target (single-session services resolve to their one
  /// session and reject explicit routing).
  Result<Target> ResolveTarget(const JsonValue& request,
                               Context& context) const;

  /// Builds the api::AuditRequest described by `request` (shared by
  /// detect, detect_batch, verify, and rerank): detector resolution
  /// through the registry, config and bounds through the canonical
  /// codec.
  Result<api::AuditRequest> DecodeRequest(const JsonValue& request,
                                          const ServeDefaults& defaults) const;

  /// Serializes one detection response as {"cached": ..., "report": ...},
  /// reporting a "serialize" span to `trace` when set. Takes no session
  /// lock: the report is formatted from the result's stored counts, once
  /// per result (DetectionResult::ReportBytes), and copied after that.
  /// Every service over one session must label it with the same
  /// dataset, since a cached result keeps the first labels it was
  /// served with.
  std::string DetectionResponseJson(const Target& target,
                                    const api::AuditResponse& response,
                                    metrics::TraceSink* trace) const;

  /// Dispatches one parsed request object to its op handler; `trace`
  /// (null when tracing is off) flows into the detect paths.
  Result<std::string> Dispatch(const std::string& op, const JsonValue& request,
                               Context& context, metrics::TraceSink* trace);

  /// Per-op payload builders; on success the returned string is the
  /// serialized "data" object.
  Result<std::string> HandleDetect(const Target& target,
                                   const JsonValue& request,
                                   metrics::TraceSink* trace);
  Result<std::string> HandleDetectBatch(const Target& target,
                                        const JsonValue& request,
                                        metrics::TraceSink* trace);
  Result<std::string> HandleCapabilities(const JsonValue& request);
  Result<std::string> HandleMetrics(const JsonValue& request);
  Result<std::string> HandleSuggest(const Target& target,
                                    const JsonValue& request);
  Result<std::string> HandleVerify(const Target& target,
                                   const JsonValue& request);
  Result<std::string> HandleRerank(const Target& target,
                                   const JsonValue& request,
                                   metrics::TraceSink* trace);
  Result<std::string> HandleUpdate(const Target& target,
                                   const JsonValue& request);
  Result<std::string> HandleAppend(const Target& target,
                                   const JsonValue& request);
  Result<std::string> HandleStats(const Target& target,
                                  const JsonValue& request);
  Result<std::string> HandleInvalidate(const Target& target,
                                       const JsonValue& request);
  Result<std::string> HandleSave(const Target& target,
                                 const JsonValue& request);
  Result<std::string> HandleSnapshotInfo(const Target& target,
                                         const JsonValue& request);

  /// Catalog ops; error on single-session services.
  Result<std::string> HandleOpen(const JsonValue& request);
  Result<std::string> HandleClose(const JsonValue& request);
  Result<std::string> HandleList(const JsonValue& request, Context& context);
  Result<std::string> HandleUse(const JsonValue& request, Context& context);

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
