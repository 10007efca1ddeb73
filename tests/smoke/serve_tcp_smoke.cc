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
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/socket.h"
#include "smoke/serve_harness.h"

namespace {

using fairtopk::JsonValue;
using fairtopk::ParseJson;
using serve_harness::Fail;

/// One (id, ok) protocol outcome per response line.
std::vector<std::pair<std::string, bool>> ParseOutcomes(
    const std::string& stream) {
  std::vector<std::pair<std::string, bool>> out;
  for (const std::string& line : serve_harness::Lines(stream)) {
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

/// The server's flags: the demo CSV with the smoke tests' defaults.
std::vector<std::string> ServeArgs(const std::string& binary,
                                   const std::string& csv) {
  return {binary, "--csv", csv, "--rank-by", "score", "--k-min", "5",
          "--k-max", "20", "--tau", "6"};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <fairtopk_serve> <demo.csv>\n", argv[0]);
    return 2;
  }
  serve_harness::Begin("serve_tcp_smoke", 45);
  const std::string binary = argv[1];
  const std::string csv = argv[2];
  const std::vector<std::string> scripts = ClientScripts();

  // Serial reference: one stdin/stdout run over the concatenation.
  std::string serial_script = OpenScript(csv);
  for (const std::string& script : scripts) serial_script += script;
  const auto serial = ParseOutcomes(
      serve_harness::RunWithStdin(ServeArgs(binary, csv), serial_script));
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
  std::vector<std::string> tcp_args = ServeArgs(binary, csv);
  tcp_args.insert(tcp_args.end(), {"--listen", "0", "--workers", "4"});
  serve_harness::Child server = serve_harness::Spawn(tcp_args);
  const uint16_t port = serve_harness::AnnouncedPort(server, "listening on");
  {
    const auto outcomes =
        ParseOutcomes(serve_harness::Drive(port, OpenScript(csv)));
    if (outcomes.size() != 1 || !outcomes[0].second) {
      Fail("catalog open over TCP failed");
    }
  }
  std::vector<std::string> responses(scripts.size());
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < scripts.size(); ++c) {
      clients.emplace_back([&, c] {
        responses[c] = serve_harness::Drive(port, scripts[c]);
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
  auto idle = fairtopk::TcpConnect("127.0.0.1", port);
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
  serve_harness::Wait(server);
  std::printf("serve_tcp_smoke: OK (%zu clients, port %u)\n", scripts.size(),
              static_cast<unsigned>(port));
  return 0;
}