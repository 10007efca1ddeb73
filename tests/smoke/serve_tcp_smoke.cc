// smoke_serve_tcp driver: launches fairtopk_serve --listen 0 against
// the demo CSV, opens a second catalog session over the wire, drives
// concurrent TCP clients, and checks their responses against a serial
// stdin/stdout run of the same scripts — then SIGTERMs the server and
// requires a clean exit 0.
//
//   serve_tcp_smoke <path-to-fairtopk_serve> <demo.csv>
//
// Compared across runs: per-client response ids must equal the script
// ids IN ORDER (per-connection ordering guarantee), and each id's
// ok-flag must match the serial run (payloads like "cached" are
// legitimately scheduling-dependent; protocol outcomes are not).
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.h"
#include "common/socket.h"

namespace {

using fairtopk::JsonValue;
using fairtopk::ParseJson;
using fairtopk::TcpConnect;
using fairtopk::TcpConnection;

/// Children forked and not yet reaped. Fail() kills them: an orphan
/// would keep the test harness's output pipe open after this exits.
std::vector<pid_t> g_children;

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "serve_tcp_smoke: FAIL: %s\n", message.c_str());
  for (pid_t pid : g_children) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  std::exit(1);
}

/// Waits for child `pid` and forgets it; returns its wait status.
int Reap(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) Fail("waitpid");
  std::erase(g_children, pid);
  return status;
}

/// One (id, ok) protocol outcome per response line.
std::vector<std::pair<std::string, bool>> ParseOutcomes(
    const std::string& stream) {
  std::vector<std::pair<std::string, bool>> out;
  size_t start = 0;
  while (start < stream.size()) {
    size_t end = stream.find('\n', start);
    if (end == std::string::npos) end = stream.size();
    const std::string line = stream.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    if (!parsed.ok()) Fail("unparseable response line: " + line);
    const JsonValue* id = parsed->Find("id");
    out.emplace_back(id != nullptr && id->is_string() ? id->string_value()
                                                      : "<non-string>",
                     parsed->BoolOr("ok", false));
  }
  return out;
}

/// The catalog bootstrap plus three client scripts. Read-only after
/// the open, so ok-outcomes are identical no matter how clients
/// interleave.
std::string OpenScript(const std::string& csv) {
  return "{\"op\":\"open\",\"id\":\"open\",\"name\":\"second\",\"csv\":\"" +
         csv + "\",\"rank_by\":\"score\",\"k_min\":5,\"k_max\":20}\n";
}

std::vector<std::string> ClientScripts() {
  std::vector<std::string> scripts;
  for (int c = 0; c < 3; ++c) {
    const std::string tag = "c" + std::to_string(c) + "-";
    std::string script;
    script += "{\"op\":\"stats\",\"id\":\"" + tag + "0\"}\n";
    script += "{\"op\":\"stats\",\"id\":\"" + tag +
              "1\",\"session\":\"second\"}\n";
    script += "{\"op\":\"verify\",\"id\":\"" + tag +
              "2\",\"measure\":\"global\",\"lower\":0.4,"
              "\"group\":{\"gender\":\"F\"}}\n";
    script += "{\"op\":\"detect\",\"id\":\"" + tag +
              "3\",\"measure\":\"prop\",\"algo\":\"bounds\","
              "\"alpha\":0.8,\"session\":\"second\"}\n";
    script += "{\"op\":\"stats\",\"id\":\"" + tag +
              "4\",\"session\":\"nowhere\"}\n";  // deterministic error
    script += "{\"op\":\"list\",\"id\":\"" + tag + "5\"}\n";
    scripts.push_back(std::move(script));
  }
  return scripts;
}

/// Runs `binary` in stdin/stdout mode, feeds `script`, returns stdout.
std::string RunStdinMode(const std::string& binary, const std::string& csv,
                         const std::string& script) {
  int to_child[2];
  int from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) Fail("pipe");
  const pid_t pid = fork();
  if (pid < 0) Fail("fork");
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    execl(binary.c_str(), binary.c_str(), "--csv", csv.c_str(), "--rank-by",
          "score", "--kmin", "5", "--kmax", "20", "--tau", "6",
          static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  g_children.push_back(pid);
  close(to_child[0]);
  close(from_child[1]);
  size_t written = 0;
  while (written < script.size()) {
    const ssize_t n =
        write(to_child[1], script.data() + written, script.size() - written);
    if (n < 0) Fail("write to serial server");
    written += static_cast<size_t>(n);
  }
  close(to_child[1]);
  std::string out;
  char buffer[4096];
  ssize_t n;
  while ((n = read(from_child[0], buffer, sizeof(buffer))) > 0) {
    out.append(buffer, static_cast<size_t>(n));
  }
  close(from_child[0]);
  const int status = Reap(pid);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("serial stdin run exited abnormally");
  }
  return out;
}

struct TcpServer {
  pid_t pid = -1;
  int stderr_fd = -1;
  uint16_t port = 0;
};

/// Launches `binary --listen 0` and parses the bound port off stderr.
TcpServer StartTcpServer(const std::string& binary, const std::string& csv) {
  int err_pipe[2];
  if (pipe(err_pipe) != 0) Fail("pipe");
  TcpServer server;
  server.pid = fork();
  if (server.pid < 0) Fail("fork");
  if (server.pid == 0) {
    dup2(err_pipe[1], STDERR_FILENO);
    close(err_pipe[0]);
    close(err_pipe[1]);
    execl(binary.c_str(), binary.c_str(), "--csv", csv.c_str(), "--rank-by",
          "score", "--kmin", "5", "--kmax", "20", "--tau", "6", "--listen",
          "0", "--workers", "4", static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  g_children.push_back(server.pid);
  close(err_pipe[1]);
  server.stderr_fd = err_pipe[0];
  // Read stderr until the "listening on HOST:PORT" line shows up.
  std::string err;
  char buffer[512];
  const char* needle = "listening on 127.0.0.1:";
  while (err.find(needle) == std::string::npos ||
         err.find('\n', err.find(needle)) == std::string::npos) {
    const ssize_t n = read(server.stderr_fd, buffer, sizeof(buffer));
    if (n <= 0) Fail("server exited before announcing its port:\n" + err);
    err.append(buffer, static_cast<size_t>(n));
  }
  const size_t at = err.find(needle) + std::strlen(needle);
  long port = 0;
  for (size_t i = at; i < err.size() && std::isdigit(err[i]); ++i) {
    port = port * 10 + (err[i] - '0');
  }
  if (port <= 0 || port > 65535) Fail("bad port in: " + err);
  server.port = static_cast<uint16_t>(port);
  return server;
}

/// Sends `script`, half-closes, reads every response until EOF.
std::string DriveConnection(uint16_t port, const std::string& script) {
  auto connected = TcpConnect("127.0.0.1", port);
  if (!connected.ok()) Fail("connect: " + connected.status().ToString());
  TcpConnection connection = std::move(connected).value();
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

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <fairtopk_serve> <demo.csv>\n", argv[0]);
    return 2;
  }
  const std::string binary = argv[1];
  const std::string csv = argv[2];
  const std::vector<std::string> scripts = ClientScripts();

  // Serial reference: one stdin/stdout run over the concatenation.
  std::string serial_script = OpenScript(csv);
  for (const std::string& script : scripts) serial_script += script;
  const auto serial = ParseOutcomes(RunStdinMode(binary, csv, serial_script));
  std::map<std::string, bool> serial_by_id;
  for (const auto& [id, ok] : serial) {
    if (!serial_by_id.emplace(id, ok).second) {
      Fail("duplicate id in serial run: " + id);
    }
  }
  if (serial_by_id.size() != scripts.size() * 6 + 1) {
    Fail("serial run answered " + std::to_string(serial_by_id.size()) +
         " of " + std::to_string(scripts.size() * 6 + 1) + " requests");
  }

  // TCP run: bootstrap the second session on one connection, then the
  // client scripts concurrently.
  TcpServer server = StartTcpServer(binary, csv);
  {
    const auto outcomes =
        ParseOutcomes(DriveConnection(server.port, OpenScript(csv)));
    if (outcomes.size() != 1 || !outcomes[0].second) {
      Fail("catalog open over TCP failed");
    }
  }
  std::vector<std::string> responses(scripts.size());
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < scripts.size(); ++c) {
      clients.emplace_back([&, c] {
        responses[c] = DriveConnection(server.port, scripts[c]);
      });
    }
    for (std::thread& client : clients) client.join();
  }
  for (size_t c = 0; c < scripts.size(); ++c) {
    const auto outcomes = ParseOutcomes(responses[c]);
    if (outcomes.size() != 6) {
      Fail("client " + std::to_string(c) + " got " +
           std::to_string(outcomes.size()) + " responses");
    }
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const std::string expected_id =
          "c" + std::to_string(c) + "-" + std::to_string(i);
      if (outcomes[i].first != expected_id) {
        Fail("client " + std::to_string(c) + " response " +
             std::to_string(i) + " has id '" + outcomes[i].first +
             "', want '" + expected_id + "' (per-connection order)");
      }
      const auto it = serial_by_id.find(expected_id);
      if (it == serial_by_id.end() || it->second != outcomes[i].second) {
        Fail("id '" + expected_id + "' ok-flag differs from serial run");
      }
    }
  }

  // An idle connection held open across shutdown: SIGTERM must close
  // it (EOF) and the server must exit 0.
  auto idle = TcpConnect("127.0.0.1", server.port);
  if (!idle.ok()) Fail("idle connect");
  if (!idle->SendAll("{\"op\":\"stats\",\"id\":\"idle\"}\n").ok()) {
    Fail("idle send");
  }
  {
    char buffer[4096];
    auto received = idle->Receive(buffer, sizeof(buffer));
    if (!received.ok() || *received == 0) Fail("idle response");
  }
  if (kill(server.pid, SIGTERM) != 0) Fail("kill");
  {
    char buffer[4096];
    for (;;) {  // drain to EOF: the server closed the idle connection
      auto received = idle->Receive(buffer, sizeof(buffer));
      if (!received.ok() || *received == 0) break;
    }
  }
  const int status = Reap(server.pid);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("server did not exit 0 after SIGTERM");
  }
  close(server.stderr_fd);
  std::printf("serve_tcp_smoke: OK (%zu clients, port %u)\n", scripts.size(),
              static_cast<unsigned>(server.port));
  return 0;
}