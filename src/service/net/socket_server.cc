#include "service/net/socket_server.h"

#include <string>
#include <utility>

#include "common/metrics/metrics.h"
#include "service/request_pipeline.h"

namespace fairtopk {

namespace {

/// Process-global socket front-end metrics, resolved once.
struct NetMetrics {
  metrics::Counter& accepted;
  metrics::Gauge& active;

  static NetMetrics& Get() {
    static NetMetrics* m = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return new NetMetrics{
          registry
              .CounterFamily("fairtopk_connections_accepted_total",
                             "TCP connections accepted since start")
              .With({}),
          registry
              .GaugeFamily("fairtopk_connections_active",
                           "TCP connections currently being served")
              .With({})};
    }();
    return *m;
  }
};

}  // namespace

SocketServer::SocketServer(JsonlService* service, TcpListener listener,
                           int workers)
    : service_(service), listener_(std::move(listener)), pool_(workers) {}

SocketServer::~SocketServer() {
  RequestShutdown();
  Wait();
}

void SocketServer::Start() {
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

void SocketServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return;
  shutdown_ = true;
  // Wake the blocked Accept() and make future accepts fail fast.
  listener_.Interrupt();
  // Readers blocked in Receive() see EOF and fall into their drain
  // path. Connections mid-request are untouched: the reader only
  // exits after its pipeline has answered every admitted line.
  for (Connection& connection : connections_) {
    std::lock_guard<std::mutex> connection_lock(connection.mutex);
    connection.socket.ShutdownRead();
  }
}

void SocketServer::Wait() {
  if (acceptor_.joinable()) acceptor_.join();
  // After the acceptor exits nothing adds or removes connections_
  // nodes (readers only append to finished_, under the lock), and
  // std::list nodes are stable, so joining without the lock is safe.
  for (Connection& connection : connections_) {
    if (connection.reader.joinable()) connection.reader.join();
  }
}

size_t SocketServer::connections_accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

void SocketServer::AcceptLoop() {
  for (;;) {
    Result<TcpConnection> accepted = listener_.Accept();
    if (!accepted.ok()) continue;  // transient (e.g. ECONNABORTED)
    if (!accepted->valid()) return;  // Interrupt(): clean exit
    ReapFinished();
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;  // raced with RequestShutdown: drop it
    const ConnectionList::iterator connection =
        connections_.emplace(connections_.end());
    connection->socket = std::move(*accepted);
    ++accepted_;
    if (metrics::Enabled()) {
      NetMetrics::Get().accepted.Inc();
      NetMetrics::Get().active.Inc();
    }
    connection->reader = std::thread([this, connection] {
      ReadLoop(*connection);
      std::lock_guard<std::mutex> finished_lock(mutex_);
      finished_.push_back(connection);
    });
  }
}

void SocketServer::ReapFinished() {
  ConnectionList done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (ConnectionList::iterator connection : finished_) {
      done.splice(done.end(), connections_, connection);
    }
    finished_.clear();
  }
  // Each reader's last act was to list itself, so these joins return
  // at once.
  for (Connection& connection : done) connection.reader.join();
}

void SocketServer::ReadLoop(Connection& connection) {
  RequestPipeline pipeline(
      service_, &pool_, [&connection](const std::string& line) {
        // The peer may already be gone (client closed after a one-shot
        // script); the pipeline then stops writing.
        return connection.socket.SendAll(line).ok();
      });
  char buffer[4096];
  for (;;) {
    Result<size_t> received =
        connection.socket.Receive(buffer, sizeof(buffer));
    if (!received.ok() || *received == 0) break;  // error, EOF, shutdown
    pipeline.Feed(buffer, *received);
  }
  // Drain: every admitted line is answered before the FIN.
  pipeline.Finish();
  {
    std::lock_guard<std::mutex> lock(connection.mutex);
    connection.socket.ShutdownWrite();
    connection.socket.Close();
  }
  if (metrics::Enabled()) NetMetrics::Get().active.Dec();
}

}  // namespace fairtopk
