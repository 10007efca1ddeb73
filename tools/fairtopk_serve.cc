// fairtopk_serve: long-lived audit sessions over CSV files, driven by
// a batched JSONL protocol on stdin/stdout or (with --listen) on TCP.
//
// Usage:
//   fairtopk_serve --csv data.csv --rank-by score [options] < requests.jsonl
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
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "common/metrics/metrics.h"
#include "common/signals.h"
#include "common/socket.h"
#include "common/strings.h"
#include "service/jsonl_service.h"
#include "service/net/metrics_http.h"
#include "service/net/socket_server.h"
#include "service/persistence.h"
#include "service/request_pipeline.h"
#include "service/session_catalog.h"

namespace fairtopk {
namespace {

struct Args {
  /// The "default" session, opened like the `open` op's sessions; an
  /// empty data_dir keeps it in memory only.
  SessionSpec spec;
  int threads = 1;  // only 1 is accepted: a query runs on one thread
  int workers = 1;
  int listen_port = -1;  // -1 = stdin/stdout mode
  std::string host = "127.0.0.1";
  int metrics_port = -1;  // -1 = no Prometheus endpoint
  int slow_query_micros = 0;  // 0 = slow-query log off
};

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: fairtopk_serve --csv data.csv --rank-by column [options]\n"
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
  std::fprintf(
      out,
      "\n"
      "Options:\n"
      "  --csv PATH             input CSV file (required)\n"
      "  --rank-by COLUMN       numeric column to rank by, descending\n"
      "                         (required)\n"
      "  --ascending            rank ascending instead\n"
      "  --kmin K --kmax K      default rank range (default 10..49,\n"
      "                         clamped to |D|)\n"
      "  --tau N                default group size threshold\n"
      "                         (default 5%% of rows)\n"
      "  --threads 1            threads per query: every query runs\n"
      "                         on one thread, so only 1 is accepted\n"
      "  --lower X              default global lower bound, fraction\n"
      "                         of k (default 0.5)\n"
      "  --alpha X              default proportional multiplier\n"
      "                         (default 0.8)\n"
      "  --bins N               buckets per numeric attribute\n"
      "                         (default 4)\n"
      "  --drop col1,col2       columns to ignore (ids, names, ...)\n"
      "  --data-dir DIR         durable session state: open DIR's\n"
      "                         snapshot and replay its op log when\n"
      "                         present (skipping the CSV load), cold\n"
      "                         start from --csv and save the initial\n"
      "                         snapshot otherwise; update/append ops\n"
      "                         are logged, op=save compacts, and\n"
      "                         shutdown compacts automatically\n"
      "  --fsync-always         fsync the op log after every\n"
      "                         maintenance op (durable to the power\n"
      "                         cord, slower updates)\n"
      "  --rebuild-threshold X  patch the index in place while at most\n"
      "                         X*|D| rank positions changed row;\n"
      "                         rebuild beyond it (default 0.5)\n"
      "  --cache-capacity N     cached detection results (default 64,\n"
      "                         0 disables)\n"
      "  --workers N            request lines executed concurrently\n"
      "                         (default 1; 0 = hardware concurrency),\n"
      "                         on one pool shared by stdin or every\n"
      "                         TCP connection. Responses always come\n"
      "                         back in each stream's input order; a\n"
      "                         stream reads ahead at most 4 lines per\n"
      "                         worker, and a request line may be at\n"
      "                         most 64 MiB\n"
      "  --listen PORT          serve TCP on --host instead of stdin\n"
      "                         (0 picks an ephemeral port, printed on\n"
      "                         stderr); SIGINT/SIGTERM drains and\n"
      "                         exits 0\n"
      "  --host ADDR            numeric address to bind\n"
      "                         (default 127.0.0.1)\n"
      "  --metrics-port P       serve Prometheus text metrics via\n"
      "                         HTTP GET /metrics on --host:P (0 picks\n"
      "                         an ephemeral port, printed on stderr);\n"
      "                         works in both stdin and TCP modes\n"
      "  --slow-query-log N     trace every request and log a JSONL\n"
      "                         line to stderr for any request taking\n"
      "                         >= N microseconds end to end\n"
      "  --help                 print this message and exit\n");
}

bool ParseArgs(int argc, char** argv, Args& args, bool& help) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    auto next_int = [&](const char* name, int min, int max,
                        int& out) -> bool {
      const char* v = next(name);
      if (v == nullptr) return false;
      auto parsed = ParseInt(v);
      if (!parsed.has_value() || *parsed < min || *parsed > max) {
        std::fprintf(stderr, "%s expects an integer in [%d, %d], got '%s'\n",
                     name, min, max, v);
        return false;
      }
      out = static_cast<int>(*parsed);
      return true;
    };
    auto next_double = [&](const char* name, double& out) -> bool {
      const char* v = next(name);
      if (v == nullptr) return false;
      auto parsed = ParseDouble(v);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "%s expects a number, got '%s'\n", name, v);
        return false;
      }
      out = *parsed;
      return true;
    };
    if (flag == "--help" || flag == "-h") {
      help = true;
      return true;
    } else if (flag == "--csv") {
      const char* v = next("--csv");
      if (v == nullptr) return false;
      args.spec.csv = v;
    } else if (flag == "--rank-by") {
      const char* v = next("--rank-by");
      if (v == nullptr) return false;
      args.spec.rank_by = v;
    } else if (flag == "--ascending") {
      args.spec.ascending = true;
    } else if (flag == "--kmin") {
      if (!next_int("--kmin", 1, 1 << 30, args.spec.k_min)) return false;
    } else if (flag == "--kmax") {
      if (!next_int("--kmax", 1, 1 << 30, args.spec.k_max)) return false;
    } else if (flag == "--tau") {
      if (!next_int("--tau", 1, 1 << 30, args.spec.tau)) return false;
    } else if (flag == "--threads") {
      if (!next_int("--threads", 1, 1, args.threads)) return false;
    } else if (flag == "--bins") {
      if (!next_int("--bins", 2, 1 << 20, args.spec.bins)) return false;
    } else if (flag == "--cache-capacity") {
      int capacity = 0;
      if (!next_int("--cache-capacity", 0, 1 << 30, capacity)) return false;
      args.spec.session.cache_capacity = static_cast<size_t>(capacity);
    } else if (flag == "--workers") {
      if (!next_int("--workers", 0, 4096, args.workers)) return false;
    } else if (flag == "--lower") {
      if (!next_double("--lower", args.spec.lower_fraction)) return false;
    } else if (flag == "--alpha") {
      if (!next_double("--alpha", args.spec.alpha)) return false;
    } else if (flag == "--rebuild-threshold") {
      if (!next_double("--rebuild-threshold",
                       args.spec.session.rebuild_threshold)) {
        return false;
      }
    } else if (flag == "--drop") {
      const char* v = next("--drop");
      if (v == nullptr) return false;
      args.spec.drop = Split(v, ',');
    } else if (flag == "--data-dir") {
      const char* v = next("--data-dir");
      if (v == nullptr) return false;
      args.spec.data_dir = v;
    } else if (flag == "--fsync-always") {
      args.spec.fsync_always = true;
    } else if (flag == "--listen") {
      if (!next_int("--listen", 0, 65535, args.listen_port)) return false;
    } else if (flag == "--host") {
      const char* v = next("--host");
      if (v == nullptr) return false;
      args.host = v;
    } else if (flag == "--metrics-port") {
      if (!next_int("--metrics-port", 0, 65535, args.metrics_port)) {
        return false;
      }
    } else if (flag == "--slow-query-log") {
      if (!next_int("--slow-query-log", 1, 1 << 30, args.slow_query_micros)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      PrintUsage(stderr);
      return false;
    }
  }
  // --data-dir can start from an existing snapshot alone; every other
  // mode (and a data-dir cold start, checked at open) needs the CSV.
  if ((args.spec.csv.empty() || args.spec.rank_by.empty()) &&
      args.spec.data_dir.empty()) {
    PrintUsage(stderr);
    return false;
  }
  return true;
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
    std::fprintf(stderr, "%s\n", opened.ToString().c_str());
    return 1;
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
  if (args.slow_query_micros > 0) {
    ObservabilityOptions observability;
    observability.slow_query_log_micros =
        static_cast<uint64_t>(args.slow_query_micros);
    service.set_observability(observability);
  }

  // The Prometheus endpoint rides along in either serving mode; its
  // Shutdown() runs from this scope's unwinding after the main loop
  // ends, so a final scrape can still see the complete counters until
  // the process is actually about to exit.
  std::unique_ptr<MetricsHttpServer> metrics_http;
  if (args.metrics_port >= 0) {
    Result<std::unique_ptr<MetricsHttpServer>> created =
        MetricsHttpServer::Create(args.host,
                                  static_cast<uint16_t>(args.metrics_port));
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    metrics_http = std::move(created).value();
    metrics_http->Start();
    // The metrics smoke driver parses this exact line for the port.
    std::fprintf(stderr, "metrics on %s:%u\n", args.host.c_str(),
                 static_cast<unsigned>(metrics_http->port()));
  }

  if (args.listen_port < 0) {
    std::fprintf(stderr,
                 "session ready: %d rows, %zu pattern attributes, "
                 "%d worker(s)\n",
                 n, attributes, workers);
    ServeStream(&service, std::cin, std::cout, workers);
    CompactOnExit(catalog);
    return 0;
  }

  // TCP mode. The signal pipe is installed BEFORE the listener opens:
  // a SIGTERM racing startup must still win a clean drain, not the
  // default kill.
  Result<int> signal_fd = InstallShutdownSignalPipe();
  if (!signal_fd.ok()) {
    std::fprintf(stderr, "%s\n", signal_fd.status().ToString().c_str());
    return 1;
  }
  Result<TcpListener> listener = TcpListener::Listen(
      args.host, static_cast<uint16_t>(args.listen_port));
  if (!listener.ok()) {
    std::fprintf(stderr, "%s\n", listener.status().ToString().c_str());
    return 1;
  }
  SocketServer server(&service, std::move(listener).value(), workers);
  server.Start();
  std::fprintf(stderr,
               "session ready: %d rows, %zu pattern attributes, "
               "%d worker(s)\n",
               n, attributes, workers);
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

}  // namespace
}  // namespace fairtopk

int main(int argc, char** argv) {
  fairtopk::Args args;
  bool help = false;
  if (!fairtopk::ParseArgs(argc, argv, args, help)) return 2;
  if (help) {
    fairtopk::PrintUsage(stdout);
    return 0;
  }
  return fairtopk::RunServe(args);
}
