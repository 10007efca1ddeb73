// SocketServer: the JSONL protocol of service/jsonl_service.h served
// over TCP. One acceptor thread hands each connection to a dedicated
// reader thread; request lines from ALL connections execute on one
// shared ThreadPool, so a process-wide --workers budget caps audit
// work no matter how many clients connect (readers only block on I/O
// and never occupy a pool slot — requests are leaves, satisfying the
// pool's no-nested-blocking rule).
//
// Each connection is one stream of service/request_pipeline.h: a slow
// request throttles reading from that socket only, and its responses
// come back in that connection's input order.
//
// Shutdown: RequestShutdown() stops the acceptor and half-closes the
// receive side of every open connection, so blocked readers see EOF.
// Each reader then drains its in-flight requests, flushes their
// responses, and closes. Wait() joins everything; after it returns no
// server thread is alive. Lines already read before shutdown are
// answered ("drain"), lines never read are the client's to retry.
#ifndef FAIRTOPK_SERVICE_NET_SOCKET_SERVER_H_
#define FAIRTOPK_SERVICE_NET_SOCKET_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "common/thread_pool.h"
#include "service/jsonl_service.h"

namespace fairtopk {

/// Serves `service` over a listening socket until shut down. The
/// service (and whatever catalog/session it is bound to) must outlive
/// the server. Start() may be called once.
class SocketServer {
 public:
  /// Runs request lines on a pool of `workers` threads (0 means
  /// hardware concurrency).
  SocketServer(JsonlService* service, TcpListener listener, int workers);
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
  /// One accepted connection: its socket and reader thread. The
  /// stream's pipeline lives on the reader's stack.
  struct Connection {
    TcpConnection socket;
    std::thread reader;
    /// Keeps RequestShutdown()'s ShutdownRead() off the reader's final
    /// Close(), which recycles the descriptor.
    std::mutex mutex;
  };
  using ConnectionList = std::list<Connection>;

  void AcceptLoop();
  void ReadLoop(Connection& connection);
  /// Joins and frees the connections whose reader has exited.
  void ReapFinished();

  JsonlService* service_;
  TcpListener listener_;
  ThreadPool pool_;

  std::thread acceptor_;
  mutable std::mutex mutex_;  ///< guards the members below
  /// Connections not yet reaped; nodes are stable (Connection is not
  /// movable). The acceptor reaps finished ones at every accept, and
  /// Wait() joins the rest.
  ConnectionList connections_;
  /// Connections whose reader has exited, awaiting the acceptor's join.
  std::vector<ConnectionList::iterator> finished_;
  size_t accepted_ = 0;
  bool shutdown_ = false;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_NET_SOCKET_SERVER_H_
