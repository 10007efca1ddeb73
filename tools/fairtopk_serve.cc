// fairtopk_serve: long-lived audit sessions over CSV files, driven by
// a batched JSONL protocol on stdin/stdout or (with --listen) on TCP.
//
// Usage:
//   fairtopk_serve --csv data.csv --rank-by score [flags] < requests.jsonl
//   fairtopk_serve --csv data.csv --rank-by score --listen 7070
//   fairtopk_serve --data-dir state/ --csv data.csv --rank-by score  # 1st run
//   fairtopk_serve --data-dir state/ --listen 7070                   # restarts
//
// With --data-dir the "default" session is durable: the first start
// cold-starts from the CSV and writes a snapshot, every maintenance op
// is appended to an op log, and SIGTERM compacts the log into a fresh
// snapshot generation — later starts skip the CSV entirely and reopen
// from disk (README.md, "Persistence"). Catalog sessions opened with a
// `data_dir` are durable the same way, and shutdown compacts each one.
//
// Startup mirrors fairtopk_audit: the CSV is loaded, every numeric
// column except the ranking column is bucketized so it can join group
// definitions, and one AuditSession is opened (table ranked by the
// score column, rank-ordered BitmapIndex built once) through the same
// SessionCatalog::Open as the `open` op, as session "default". The
// JSONL protocol's catalog ops (`open`, `close`, `list`, `use`) manage
// further named sessions over other CSVs at runtime; plain requests
// keep hitting "default" so single-table scripts need no session
// plumbing.
//
// Without --listen, the process reads one JSON request object per
// stdin line and writes one JSON response object per stdout line until
// EOF. With --listen PORT it serves the same protocol to concurrent
// TCP connections until SIGINT or SIGTERM, which drains in-flight
// requests and exits 0. Both modes run every stream through one
// RequestPipeline (input-order responses) on one --workers pool — see
// src/service/jsonl_service.h for the protocol and README.md for
// worked transcripts.
//
// The flags are declared fields (api::ReadFlags): the fields of the
// `open` op, which describe session "default" (`--k-min 5` is open's
// `k_min`), plus the process's own (kProcessFields below). `--help`
// prints them from the same declarations.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "api/canonical.h"
#include "common/metrics/metrics.h"
#include "common/signals.h"
#include "common/socket.h"
#include "service/jsonl_service.h"
#include "service/net/metrics_http.h"
#include "service/net/socket_server.h"
#include "service/persistence.h"
#include "service/request_pipeline.h"
#include "service/session_catalog.h"

namespace fairtopk {
namespace {

/// The process's own flags; the rest of its flags are the fields of
/// the `open` op, which describe the startup session "default".
struct Args {
  /// The "default" session, opened like the `open` op's sessions; an
  /// empty data_dir keeps it in memory only.
  SessionSpec spec;
  int workers = 1;
  int listen_port = -1;  // -1 = stdin/stdout mode
  std::string host = "127.0.0.1";
  int metrics_port = -1;  // -1 = no Prometheus endpoint
  ObservabilityOptions observability;  // the slow-query log, off at 0
  bool help = false;
};

using enum api::FieldType;

constexpr api::FieldSpec kProcessFields[] = {
    {.name = "threads", .type = kInt,
     .description = "threads per query: each query runs on one thread",
     .min = 1, .max = 1},
    {.name = "workers", .type = kInt,
     .description = "request lines run at once, on one pool for stdin or "
                    "every connection (default 1; 0: one per core)",
     .set = api::Set<&Args::workers>, .min = 0, .max = 4096},
    {.name = "listen", .type = kInt,
     .description = "serve TCP on this port instead of stdin (0: any free "
                    "port, printed on stderr)",
     .set = api::Set<&Args::listen_port>, .min = 0, .max = 65535},
    {"host", kString, "numeric address to bind (default 127.0.0.1)",
     api::Set<&Args::host>},
    {.name = "metrics_port", .type = kInt,
     .description = "serve Prometheus metrics at GET /metrics on this port "
                    "(0: any free port, printed on stderr)",
     .set = api::Set<&Args::metrics_port>, .min = 0, .max = 65535},
    {.name = "slow_query_log", .type = kInt,
     .description = "log each request taking at least N microseconds to "
                    "stderr",
     .set = api::Set<&Args::observability,
                     &ObservabilityOptions::slow_query_log_micros>,
     .min = 1, .max = 1 << 30},
    {"help", kBool, "print this message and exit", api::Set<&Args::help>},
};

/// Every flag: the fields of op=open, then the process's own.
constexpr auto kFlags = api::JoinFields<kSessionSpecFields, kProcessFields>();

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: fairtopk_serve --csv data.csv --rank-by column [flags]\n"
      "\n"
      "Serves audit sessions over the CSV: reads one JSON request per\n"
      "stdin line, writes one JSON response per stdout line until EOF —\n"
      "or, with --listen, serves the same protocol to concurrent TCP\n"
      "connections until SIGINT/SIGTERM (see README.md, \"Serving\n"
      "audits\" and \"Network serving\"). The startup CSV is session\n"
      "\"default\".\n"
      "\n"
      "Ops (the \"op\" of a request; op=capabilities lists each op's\n"
      "fields and every registered detector's parameters):\n");
  for (const JsonlService::Op& op : JsonlService::Ops()) {
    std::fprintf(out, "  %-14s %s\n", op.name, op.summary);
  }
  std::fprintf(out,
               "\n"
               "Flags (the fields of op=open for session \"default\", then "
               "the process's own):\n%s",
               api::FlagsHelp(kFlags).c_str());
}

/// Prints `status` and returns the exit code of a failed start.
int Failed(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

int ResolveWorkers(int workers) {
  if (workers != 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// At shutdown: fold each durable session's op log (the `--data-dir`
/// default session and every catalog session opened with a
/// `data_dir`) into a fresh snapshot generation, so the next open
/// replays nothing.
void CompactOnExit(const SessionCatalog& catalog) {
  for (const SessionCatalog::Info& info : catalog.List()) {
    std::shared_ptr<SessionCatalog::Entry> entry = catalog.Find(info.name);
    if (entry == nullptr) continue;
    const SessionStorageInfo before = entry->session.storage_info();
    if (!before.log_attached) continue;
    if (Status saved = entry->session.SaveSnapshot(); !saved.ok()) {
      std::fprintf(stderr,
                   "session %s: compaction failed (state persists in the "
                   "op log): %s\n",
                   info.name.c_str(), saved.ToString().c_str());
      continue;
    }
    std::fprintf(stderr,
                 "session %s: compacted %llu op(s) into snapshot "
                 "generation %llu\n",
                 info.name.c_str(),
                 static_cast<unsigned long long>(before.log_records),
                 static_cast<unsigned long long>(
                     entry->session.storage_info().generation));
  }
}

int RunServe(const Args& args) {
  // Start the uptime clock before loading anything so the reported
  // uptime covers (almost) the whole process life.
  (void)metrics::UptimeSeconds();
  // Both modes serve a catalog so `open`/`close`/`list`/`use` work; the
  // startup session is "default", which plain requests route to.
  SessionCatalog catalog;
  PersistentOpenReport report;
  if (Status opened = catalog.Open("default", args.spec, &report);
      !opened.ok()) {
    return Failed(opened);
  }
  int n = 0;
  size_t attributes = 0;
  {
    // Not held past startup: a `close` of "default" frees the session.
    const std::shared_ptr<SessionCatalog::Entry> entry =
        catalog.Find("default");
    n = static_cast<int>(entry->session.num_rows());
    attributes = entry->session.space().num_attributes();
    const std::string& data_dir = args.spec.data_dir;
    if (!data_dir.empty() && report.cold_start) {
      std::fprintf(stderr, "data dir %s: cold start from %s\n",
                   data_dir.c_str(), args.spec.csv.c_str());
    } else if (!data_dir.empty()) {
      std::fprintf(stderr,
                   "data dir %s: snapshot generation %llu, %zu op(s) "
                   "replayed%s%s\n",
                   data_dir.c_str(),
                   static_cast<unsigned long long>(
                       entry->session.storage_info().generation),
                   report.replayed_records,
                   report.dropped_torn_tail ? ", torn tail dropped" : "",
                   report.discarded_stale_log ? ", stale log discarded" : "");
    }
  }

  JsonlService service(&catalog, "default");
  const int workers = ResolveWorkers(args.workers);
  service.set_server_workers(workers);
  service.set_observability(args.observability);

  // The Prometheus endpoint rides along in either serving mode; its
  // Shutdown() runs from this scope's unwinding after the main loop
  // ends, so a final scrape can still see the complete counters until
  // the process is actually about to exit.
  std::unique_ptr<MetricsHttpServer> metrics_http;
  if (args.metrics_port >= 0) {
    Result<std::unique_ptr<MetricsHttpServer>> created =
        MetricsHttpServer::Create(args.host,
                                  static_cast<uint16_t>(args.metrics_port));
    if (!created.ok()) return Failed(created.status());
    metrics_http = std::move(created).value();
    metrics_http->Start();
    // The metrics smoke driver parses this exact line for the port.
    std::fprintf(stderr, "metrics on %s:%u\n", args.host.c_str(),
                 static_cast<unsigned>(metrics_http->port()));
  }

  const auto announce_ready = [&] {
    std::fprintf(stderr,
                 "session ready: %d rows, %zu pattern attributes, "
                 "%d worker(s)\n",
                 n, attributes, workers);
  };
  if (args.listen_port < 0) {
    announce_ready();
    ServeStream(&service, std::cin, std::cout, workers);
    CompactOnExit(catalog);
    return 0;
  }

  // TCP mode. The signal pipe is installed BEFORE the listener opens:
  // a SIGTERM racing startup must still win a clean drain, not the
  // default kill.
  Result<int> signal_fd = InstallShutdownSignalPipe();
  if (!signal_fd.ok()) return Failed(signal_fd.status());
  Result<TcpListener> listener = TcpListener::Listen(
      args.host, static_cast<uint16_t>(args.listen_port));
  if (!listener.ok()) return Failed(listener.status());
  SocketServer server(&service, std::move(listener).value(), workers);
  server.Start();
  announce_ready();
  // The smoke driver parses this exact line for the ephemeral port.
  std::fprintf(stderr, "listening on %s:%u\n", args.host.c_str(),
               static_cast<unsigned>(server.port()));

  // Block until SIGINT/SIGTERM; the handler writes one byte to the
  // pipe (async-signal-safe), this read is the synchronous other end.
  char byte;
  ssize_t got;
  do {
    got = ::read(*signal_fd, &byte, 1);
  } while (got < 0 && errno == EINTR);
  std::fprintf(stderr,
               "shutting down: draining in-flight requests "
               "(%zu connection(s) served)\n",
               server.connections_accepted());
  server.RequestShutdown();
  server.Wait();
  // Requests are drained: every catalog session is quiescent, so this
  // is the natural compaction point.
  CompactOnExit(catalog);
  return 0;
}

int ServeMain(int argc, char** argv) {
  Result<JsonValue> flags = api::ReadFlags({argv + 1, argv + argc}, kFlags,
                                           "fairtopk_serve");
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().message().c_str());
    return 2;
  }
  Args args;
  api::ApplyFields(*flags, kSessionSpecFields, &args.spec);
  api::ApplyFields(*flags, kProcessFields, &args);
  if (args.help) {
    PrintUsage(stdout);
    return 0;
  }
  // A snapshot or a data dir can start the session alone; otherwise
  // (and at a data dir's cold start, checked at open) it needs the CSV.
  const SessionSpec& spec = args.spec;
  if ((spec.csv.empty() || spec.rank_by.empty()) && spec.snapshot.empty() &&
      spec.data_dir.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  return RunServe(args);
}

}  // namespace
}  // namespace fairtopk

int main(int argc, char** argv) { return fairtopk::ServeMain(argc, argv); }
