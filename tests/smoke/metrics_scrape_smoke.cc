// metrics_scrape_smoke driver: launches fairtopk_serve with
// `--listen 0 --metrics-port 0` against the demo CSV, drives a known
// number of JSONL requests over TCP, then scrapes the Prometheus
// endpoint and asserts the wire/socket/session metrics it serves match
// the traffic — exactly wherever the count holds under every thread
// schedule — then SIGTERMs the server and requires a clean exit 0. A
// failure kills the server first, so no orphan outlives this program.
//
//   metrics_scrape_smoke <path-to-fairtopk_serve> <demo.csv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/json.h"
#include "common/socket.h"
#include "smoke/serve_harness.h"

namespace {

using fairtopk::ParseJson;
using fairtopk::TcpConnect;
using fairtopk::TcpConnection;
using serve_harness::Fail;

/// One HTTP/1.0 GET; returns the raw response (headers + body).
std::string HttpGet(uint16_t port, const std::string& path) {
  auto connected = TcpConnect("127.0.0.1", port);
  if (!connected.ok()) Fail("http connect: " + connected.status().ToString());
  TcpConnection connection = std::move(connected).value();
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!connection.SendAll(request).ok()) Fail("http send");
  std::string out;
  char buffer[4096];
  for (;;) {
    auto received = connection.Receive(buffer, sizeof(buffer));
    if (!received.ok()) Fail("http receive");
    if (*received == 0) break;
    out.append(buffer, *received);
  }
  return out;
}

void ExpectContains(const std::string& haystack, const std::string& needle,
                    const char* what) {
  if (haystack.find(needle) == std::string::npos) {
    Fail(std::string(what) + ": '" + needle + "' not found in:\n" + haystack);
  }
}

/// The value of the exposition line `series <value>`.
long SeriesValue(const std::string& scrape, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const size_t at = scrape.find(needle);
  if (at == std::string::npos) {
    Fail("series '" + series + "' not found in:\n" + scrape);
  }
  return std::strtol(scrape.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <fairtopk_serve> <demo.csv>\n", argv[0]);
    return 2;
  }
  serve_harness::Begin("metrics_scrape_smoke", 45);
  // Ephemeral serving and metrics ports, both announced on stderr.
  serve_harness::Child server = serve_harness::Spawn(
      {argv[1], "--csv", argv[2], "--rank-by", "score", "--k-min", "5",
       "--k-max", "20", "--tau", "6", "--listen", "0", "--metrics-port", "0",
       "--workers", "2"});
  const uint16_t metrics_port =
      serve_harness::AnnouncedPort(server, "metrics on");
  const uint16_t serve_port =
      serve_harness::AnnouncedPort(server, "listening on");

  // Known traffic: 5 identical detects (1 miss, the rest served from
  // its run), 1 stats, 1 metrics — all on one connection so the socket
  // counters are exact.
  constexpr int kDetects = 5;
  std::string script;
  for (int i = 0; i < kDetects; ++i) {
    script += "{\"op\":\"detect\",\"id\":\"d" + std::to_string(i) + "\"}\n";
  }
  script += "{\"op\":\"stats\",\"id\":\"s\"}\n";
  script += "{\"op\":\"metrics\",\"id\":\"m\"}\n";
  const std::string responses = serve_harness::Drive(serve_port, script);
  int ok_lines = 0;
  for (const std::string& line : serve_harness::Lines(responses)) {
    auto parsed = ParseJson(line);
    if (!parsed.ok()) Fail("unparseable response: " + line);
    if (!parsed->BoolOr("ok", false)) Fail("request failed: " + line);
    ++ok_lines;
  }
  if (ok_lines != kDetects + 2) {
    Fail("expected " + std::to_string(kDetects + 2) + " ok responses, got " +
         std::to_string(ok_lines));
  }

  // Scrape: the counters and histogram counts must match the traffic
  // just sent. The scrape itself bypasses the JSONL stack, so it never
  // perturbs what it measures.
  const std::string scrape = HttpGet(metrics_port, "/metrics");
  ExpectContains(scrape, "HTTP/1.0 200 OK", "scrape status");
  ExpectContains(scrape, "text/plain; version=0.0.4", "content type");
  ExpectContains(scrape,
                 "fairtopk_requests_total{op=\"detect\"} " +
                     std::to_string(kDetects) + "\n",
                 "request counter");
  ExpectContains(scrape,
                 "fairtopk_request_latency_micros_count{op=\"detect\"} " +
                     std::to_string(kDetects) + "\n",
                 "latency histogram count");
  ExpectContains(scrape, "fairtopk_requests_total{op=\"stats\"} 1\n",
                 "stats counter");
  // One JSONL connection was accepted (and fully drained by now).
  ExpectContains(scrape, "fairtopk_connections_accepted_total 1\n",
                 "connection counter");
  // Session layer: exactly one detect misses. With two workers a
  // pipelined detect may wait on that run (coalesced) instead of
  // finding its cache entry (hit); which one is scheduling.
  const long hits =
      SeriesValue(scrape, "fairtopk_session_cache_total{outcome=\"hit\"}");
  const long coalesced = SeriesValue(
      scrape, "fairtopk_session_cache_total{outcome=\"coalesced\"}");
  const long misses =
      SeriesValue(scrape, "fairtopk_session_cache_total{outcome=\"miss\"}");
  if (hits + coalesced != kDetects - 1 || misses != 1) {
    Fail("expected 1 miss and " + std::to_string(kDetects - 1) +
         " hits + coalesced, got miss " + std::to_string(misses) + ", hit " +
         std::to_string(hits) + ", coalesced " + std::to_string(coalesced));
  }
  ExpectContains(scrape,
                 "fairtopk_session_lock_wait_micros_count{mode=\"shared\"} ",
                 "lock-wait histogram");
  ExpectContains(scrape, "fairtopk_process_uptime_seconds ", "uptime");

  const std::string missing = HttpGet(metrics_port, "/nope");
  ExpectContains(missing, "HTTP/1.0 404 Not Found", "404 for unknown path");

  serve_harness::Stop(server);
  std::printf("metrics_scrape_smoke: OK (serve port %u, metrics port %u)\n",
              static_cast<unsigned>(serve_port),
              static_cast<unsigned>(metrics_port));
  return 0;
}
