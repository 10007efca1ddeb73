// SocketServer: the JSONL protocol of service/jsonl_service.h served
// over TCP. One acceptor thread hands each connection to a dedicated
// reader thread; request lines from ALL connections execute on one
// shared ThreadPool, so a process-wide --workers budget caps audit
// work no matter how many clients connect (readers only block on I/O
// and never occupy a pool slot — requests are leaves, satisfying the
// pool's no-nested-blocking rule).
//
// Framing: requests are newline-delimited, exactly as on stdin.
// Blank/whitespace-only lines are skipped, a trailing unterminated
// line at EOF is still served, and CR before LF is tolerated (telnet
// clients). Responses to one connection are emitted in that
// connection's input order through a per-connection reorder buffer;
// `max_pending` bounds admitted-but-unanswered lines per connection
// (a slow request throttles reading from that socket — TCP backpressure
// reaches the client — without stalling other connections).
//
// Shutdown: RequestShutdown() stops the acceptor and half-closes the
// receive side of every open connection, so blocked readers see EOF.
// Each reader then drains its in-flight requests, flushes their
// responses, and closes. Wait() joins everything; after it returns no
// server thread is alive. Lines already read before shutdown are
// answered ("drain"), lines never read are the client's to retry.
#ifndef FAIRTOPK_SERVICE_NET_SOCKET_SERVER_H_
#define FAIRTOPK_SERVICE_NET_SOCKET_SERVER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/socket.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "service/jsonl_service.h"

namespace fairtopk {

/// Execution knobs of one SocketServer.
struct SocketServerOptions {
  /// Size of the shared request-execution pool.
  int workers = 2;
  /// Per-connection bound on lines admitted but not yet answered;
  /// 0 picks 4 * workers (mirrors ServeOptions::max_pending).
  size_t max_pending = 0;
};

/// Serves `service` over a listening socket until shut down. The
/// service (and whatever catalog/session it is bound to) must outlive
/// the server. Start() may be called once.
class SocketServer {
 public:
  SocketServer(JsonlService* service, TcpListener listener,
               SocketServerOptions options);
  /// Joins all threads (terminal RequestShutdown included) — a
  /// destructed server is fully stopped.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound port (resolves a requested port 0).
  uint16_t port() const { return listener_.port(); }

  /// Spawns the acceptor thread; returns immediately.
  void Start();

  /// Initiates graceful shutdown: stop accepting, signal EOF to every
  /// connection's reader. Idempotent, any thread, returns without
  /// waiting — pair with Wait().
  void RequestShutdown();

  /// Blocks until the acceptor and every connection thread have
  /// exited (all admitted requests answered). Call once, not from a
  /// connection/pool thread.
  void Wait();

  /// Connections accepted over the server's lifetime.
  size_t connections_accepted() const;

 private:
  /// Per-connection serving state: the socket, its reader thread, the
  /// client's session Context, and the reorder buffer the shared pool
  /// completes into.
  struct Connection {
    TcpConnection socket;
    JsonlService::Context context;
    std::thread reader;

    std::mutex mutex;
    std::condition_variable room;    ///< signaled per finished request
    size_t next_to_emit = 0;         ///< next sequence to send
    size_t sequence = 0;             ///< lines admitted so far
    std::map<size_t, std::string> held;  ///< done, awaiting predecessors
    bool send_failed = false;  ///< peer gone: stop writing, just drain
  };

  void AcceptLoop();
  void ReadLoop(Connection& connection);
  /// Admits one request line (blocking on the connection's
  /// backpressure window) and schedules it on the pool.
  void SubmitLine(Connection& connection, std::string line);

  JsonlService* service_;
  TcpListener listener_;
  const SocketServerOptions options_;
  const size_t max_pending_;
  ThreadPool pool_;

  std::thread acceptor_;
  mutable std::mutex mutex_;  ///< guards connections_ and the counters
  /// All connections ever accepted; nodes are stable (Connection is
  /// not movable) and joined in Wait(). A long-lived server pays a
  /// small tombstone per closed connection — the tool's lifetime is a
  /// serving run, so simplicity wins over reaping.
  std::list<Connection> connections_;
  size_t accepted_ = 0;
  bool shutdown_ = false;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_NET_SOCKET_SERVER_H_
