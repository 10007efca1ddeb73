// The process plumbing of the fairtopk_serve smoke drivers
// (serve_tcp_smoke, serve_persist_smoke, metrics_scrape_smoke): start
// the server with an argv and piped stdio, read the ports it announces
// on stderr, drive TCP connections, and stop it. Every child started
// here is SIGKILLed and reaped on any failure, at exit, and when the
// driver's deadline passes, so no orphan outlives a driver (and holds
// ctest's output pipe open).
//
//   serve_harness::Begin("serve_tcp_smoke", /*deadline_seconds=*/45);
//   serve_harness::Child server = serve_harness::Spawn(
//       {binary, "--csv", csv, "--rank-by", "score", "--listen", "0"});
//   const uint16_t port =
//       serve_harness::AnnouncedPort(server, "listening on");
//   ... serve_harness::Drive(port, script) ...
//   serve_harness::Stop(server);  // SIGTERM; fails unless it exits 0
#ifndef FAIRTOPK_TESTS_SMOKE_SERVE_HARNESS_H_
#define FAIRTOPK_TESTS_SMOKE_SERVE_HARNESS_H_

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/socket.h"

namespace serve_harness {

/// A started server: its pid and the parent's ends of its stdio.
struct Child {
  pid_t pid = -1;
  int stdin_fd = -1;   ///< write end; -1 once closed
  int stdout_fd = -1;  ///< read end
  int stderr_fd = -1;  ///< read end
  /// What the harness has read of its stderr so far.
  std::string stderr_text;
};

namespace internal {

inline const char* g_driver = "smoke";
/// The children not yet reaped. Fixed storage, so that the deadline's
/// signal handler can read it.
inline pid_t g_children[8];
inline volatile sig_atomic_t g_child_count = 0;

/// SIGKILLs and reaps every child not yet reaped. Async-signal-safe.
inline void KillChildren() {
  for (sig_atomic_t i = 0; i < g_child_count; ++i) {
    kill(g_children[i], SIGKILL);
    waitpid(g_children[i], nullptr, 0);
  }
  g_child_count = 0;
}

inline void OnDeadline(int) {
  static const char kMessage[] = "FAIL: deadline passed\n";
  (void)!write(STDERR_FILENO, g_driver, std::strlen(g_driver));
  (void)!write(STDERR_FILENO, ": ", 2);
  (void)!write(STDERR_FILENO, kMessage, sizeof(kMessage) - 1);
  KillChildren();
  _exit(1);
}

inline void Forget(pid_t pid) {
  for (sig_atomic_t i = 0; i < g_child_count; ++i) {
    if (g_children[i] == pid) {
      g_children[i] = g_children[g_child_count - 1];
      g_child_count = g_child_count - 1;
      return;
    }
  }
}

}  // namespace internal

/// Kills every child and exits 1, printing `message`.
[[noreturn]] inline void Fail(const std::string& message) {
  std::fprintf(stderr, "%s: FAIL: %s\n", internal::g_driver,
               message.c_str());
  internal::KillChildren();
  std::exit(1);
}

/// Names the driver in messages, kills the children at exit, and fails
/// the driver once `deadline_seconds` have passed.
inline void Begin(const char* driver, unsigned deadline_seconds) {
  internal::g_driver = driver;
  std::atexit(internal::KillChildren);
  std::signal(SIGALRM, internal::OnDeadline);
  alarm(deadline_seconds);
}

/// Starts argv[0] with `argv` and its stdin, stdout and stderr piped.
/// The parent's pipe ends are close-on-exec, so no child holds another
/// child's pipe open.
inline Child Spawn(const std::vector<std::string>& argv) {
  if (static_cast<size_t>(internal::g_child_count) ==
      std::size(internal::g_children)) {
    Fail("too many children");
  }
  int in[2], out[2], err[2];
  if (pipe2(in, O_CLOEXEC) != 0 || pipe2(out, O_CLOEXEC) != 0 ||
      pipe2(err, O_CLOEXEC) != 0) {
    Fail("pipe");
  }
  Child child;
  child.pid = fork();
  if (child.pid < 0) Fail("fork");
  if (child.pid == 0) {
    dup2(in[0], STDIN_FILENO);
    dup2(out[1], STDOUT_FILENO);
    dup2(err[1], STDERR_FILENO);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    execv(args[0], args.data());
    std::perror("execv");
    _exit(127);
  }
  internal::g_children[internal::g_child_count] = child.pid;
  internal::g_child_count = internal::g_child_count + 1;
  close(in[0]);
  close(out[1]);
  close(err[1]);
  child.stdin_fd = in[1];
  child.stdout_fd = out[0];
  child.stderr_fd = err[0];
  return child;
}

/// Reads the child's stderr until it has announced `what`
/// ("listening on", "metrics on") in a whole line, and returns the
/// port of that line's "127.0.0.1:PORT".
inline uint16_t AnnouncedPort(Child& child, const std::string& what) {
  const std::string needle = what + " 127.0.0.1:";
  std::string& err = child.stderr_text;
  while (err.find(needle) == std::string::npos ||
         err.find('\n', err.find(needle)) == std::string::npos) {
    char buffer[512];
    const ssize_t n = read(child.stderr_fd, buffer, sizeof(buffer));
    if (n <= 0) {
      Fail("server exited before announcing '" + what + "':\n" + err);
    }
    err.append(buffer, static_cast<size_t>(n));
  }
  long port = 0;
  for (size_t i = err.find(needle) + needle.size();
       i < err.size() && std::isdigit(static_cast<unsigned char>(err[i]));
       ++i) {
    port = port * 10 + (err[i] - '0');
  }
  if (port <= 0 || port > 65535) Fail("bad port in: " + err);
  return static_cast<uint16_t>(port);
}

/// Everything left to read from `fd`, which it closes.
inline std::string ReadToEnd(int fd) {
  std::string text;
  char buffer[4096];
  ssize_t n;
  while ((n = read(fd, buffer, sizeof(buffer))) > 0) {
    text.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return text;
}

/// Closes the child's stdin, drains its stderr and reaps it; fails
/// unless it exits 0. Returns all it wrote to stderr.
inline std::string Wait(Child& child) {
  if (child.stdin_fd >= 0) close(child.stdin_fd);
  child.stdin_fd = -1;
  child.stderr_text += ReadToEnd(child.stderr_fd);
  int status = 0;
  if (waitpid(child.pid, &status, 0) != child.pid) Fail("waitpid");
  internal::Forget(child.pid);
  if (child.stdout_fd >= 0) close(child.stdout_fd);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("server did not exit 0; stderr:\n" + child.stderr_text);
  }
  return child.stderr_text;
}

/// SIGTERMs the child, then Wait.
inline std::string Stop(Child& child) {
  if (kill(child.pid, SIGTERM) != 0) Fail("kill");
  return Wait(child);
}

/// Runs `argv` in stdin/stdout mode over `script`; fails unless it
/// exits 0. Returns its stdout.
inline std::string RunWithStdin(const std::vector<std::string>& argv,
                                const std::string& script) {
  Child child = Spawn(argv);
  for (size_t written = 0; written < script.size();) {
    const ssize_t n = write(child.stdin_fd, script.data() + written,
                            script.size() - written);
    if (n < 0) Fail("write to the server's stdin");
    written += static_cast<size_t>(n);
  }
  close(child.stdin_fd);
  child.stdin_fd = -1;
  const std::string out = ReadToEnd(child.stdout_fd);
  child.stdout_fd = -1;
  Wait(child);
  return out;
}

/// Sends `script` on a new connection, half-closes it, and returns
/// every byte received until EOF.
inline std::string Drive(uint16_t port, const std::string& script) {
  auto connected = fairtopk::TcpConnect("127.0.0.1", port);
  if (!connected.ok()) Fail("connect: " + connected.status().ToString());
  fairtopk::TcpConnection connection = std::move(connected).value();
  if (!connection.SendAll(script).ok()) Fail("send");
  connection.ShutdownWrite();
  std::string out;
  char buffer[4096];
  for (;;) {
    auto received = connection.Receive(buffer, sizeof(buffer));
    if (!received.ok()) Fail("receive: " + received.status().ToString());
    if (*received == 0) break;
    out.append(buffer, *received);
  }
  return out;
}

/// The non-empty lines of `text`.
inline std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace serve_harness

#endif  // FAIRTOPK_TESTS_SMOKE_SERVE_HARNESS_H_
