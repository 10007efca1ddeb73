// Minimal blocking TCP primitives for the network serving layer
// (src/service/net/): an owning connection wrapper and an
// interruptible listener. POSIX-only, like the rest of the serving
// stack; no framing or protocol knowledge lives here.
//
// Thread model: a TcpConnection is used by one reader thread plus any
// number of senders serializing externally (the socket server's pool
// workers write whole response lines one at a time, under the
// connection's request-pipeline lock). ShutdownRead()
// and ShutdownWrite() are safe to call from another thread while a
// Receive/SendAll is blocked — that is the mechanism the server's
// graceful shutdown uses to unblock idle connection readers. Close()
// is NOT: closing an fd another thread still uses races with fd reuse.
#ifndef FAIRTOPK_COMMON_SOCKET_H_
#define FAIRTOPK_COMMON_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace fairtopk {

/// One established TCP stream, owning its file descriptor. Movable,
/// not copyable; the destructor closes.
class TcpConnection {
 public:
  TcpConnection() = default;
  /// Adopts `fd` (must be a connected stream socket).
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection() { Close(); }

  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Receives up to `capacity` bytes into `buffer`, blocking until at
  /// least one byte arrives. Returns 0 on orderly EOF — including a
  /// concurrent ShutdownRead() — and retries EINTR internally.
  Result<size_t> Receive(char* buffer, size_t capacity);

  /// Sends all `size` bytes (looping over partial writes, EINTR
  /// retried, SIGPIPE suppressed). Fails when the peer has gone.
  Status SendAll(const char* data, size_t size);
  Status SendAll(const std::string& data) {
    return SendAll(data.data(), data.size());
  }

  /// Half-closes the receive side: a blocked Receive() (also on
  /// another thread) returns 0 as if the peer closed.
  void ShutdownRead();
  /// Half-closes the send side (flushes a FIN to the peer).
  void ShutdownWrite();

  /// Closes the descriptor; idempotent.
  void Close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket whose blocking Accept() can be interrupted
/// from another thread — the hook graceful server shutdown hangs off.
class TcpListener {
 public:
  /// Binds and listens on host:port (numeric host, e.g. "127.0.0.1"
  /// or "0.0.0.0"; port 0 picks an ephemeral port — read it back via
  /// port()). SO_REUSEADDR is set so restarts do not trip over
  /// TIME_WAIT.
  static Result<TcpListener> Listen(const std::string& host, uint16_t port,
                                    int backlog = 64);

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// The bound port (resolves port 0 to the kernel's pick).
  uint16_t port() const { return port_; }

  /// Blocks until a connection arrives or Interrupt() fires. On
  /// interrupt returns an INVALID connection (valid() == false) — the
  /// accept loop's clean exit signal, not an error.
  Result<TcpConnection> Accept();

  /// Wakes every blocked Accept() and makes all future Accept() calls
  /// return the invalid connection immediately. Any thread; idempotent.
  void Interrupt();

 private:
  TcpListener(int fd, int wake_read, int wake_write, uint16_t port)
      : fd_(fd), wake_read_(wake_read), wake_write_(wake_write),
        port_(port) {}

  int fd_ = -1;
  /// Self-pipe: Interrupt() writes a byte, Accept()'s poll watches the
  /// read end.
  int wake_read_ = -1;
  int wake_write_ = -1;
  uint16_t port_ = 0;
};

/// Client side, used by tests and example drivers: connects to a
/// numeric host ("127.0.0.1") and port.
Result<TcpConnection> TcpConnect(const std::string& host, uint16_t port);

}  // namespace fairtopk

#endif  // FAIRTOPK_COMMON_SOCKET_H_
