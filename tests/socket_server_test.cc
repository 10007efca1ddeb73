// In-process tests for the TCP serving layer
// (src/service/net/socket_server.h): concurrent connections over a
// session catalog, JSONL framing quirks (blank lines, CRLF, a
// trailing unterminated line, a line over the size bound),
// per-connection response ordering, close-during-in-flight safety,
// graceful shutdown draining, and reaping of finished connections.
// These run under TSan via the `concurrency` CTest label — the tool
// smoke test (smoke_serve_tcp) exercises the same stack end-to-end
// but is unregistered in sanitizer builds (FAIRTOPK_BUILD_TOOLS=OFF).
#include "service/net/socket_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "common/socket.h"
#include "relation/table.h"
#include "service/request_pipeline.h"
#include "service/session_catalog.h"

namespace fairtopk {
namespace {

Table NetTable(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("gender", {"F", "M"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const int16_t gender = static_cast<int16_t>(rng.UniformUint64(2));
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(gender),
                                 Cell::Value(50.0 + rng.Gaussian() * 5.0)})
                    .ok());
  }
  return std::move(table).value();
}

ServeDefaults NetDefaults(const std::string& dataset) {
  ServeDefaults defaults;
  defaults.dataset = dataset;
  defaults.config = DetectionConfig{5, 20, 5};
  return defaults;
}

// A registered detector that blocks until the test releases it, with
// a started flag so tests can deterministically overlap a close or a
// shutdown with the in-flight request.
std::atomic<bool> g_net_gate_started{false};
std::atomic<bool> g_net_gate_release{true};

Result<DetectionResult> NetGateDetectorRun(const DetectionInput& input,
                                           const api::BoundsSpec&,
                                           const DetectionConfig& config) {
  g_net_gate_started.store(true, std::memory_order_release);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!g_net_gate_release.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  DetectionResult result(config.k_min, config.k_max);
  result.CountGroups(input);
  return result;
}

void RegisterNetGateDetector() {
  static const bool registered = [] {
    api::DetectorDescriptor d;
    d.name = "TestNetGateDetector";
    d.measure = "test";
    d.algo = "netgate";
    d.bounds_kind = api::BoundsKind::kGlobal;
    d.summary = "test-only: blocks until the test releases it";
    d.run = NetGateDetectorRun;
    EXPECT_TRUE(api::DetectorRegistry::Global().Register(d).ok());
    return true;
  }();
  (void)registered;
}

/// Waits for the gate detector to report an in-flight run.
void AwaitGateStarted() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!g_net_gate_started.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(g_net_gate_started.load());
}

/// Reads from `connection` until EOF, returning complete lines.
std::vector<std::string> ReadAllLines(TcpConnection& connection) {
  std::string all;
  char buffer[4096];
  for (;;) {
    auto received = connection.Receive(buffer, sizeof(buffer));
    if (!received.ok() || *received == 0) break;
    all.append(buffer, *received);
  }
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t newline = all.find('\n'); newline != std::string::npos;
       newline = all.find('\n', start)) {
    lines.push_back(all.substr(start, newline - start));
    start = newline + 1;
  }
  EXPECT_EQ(start, all.size()) << "partial trailing response line";
  return lines;
}

/// Response ids in emission order (each line must parse and carry an
/// id).
std::vector<std::string> IdsOf(const std::vector<std::string>& lines) {
  std::vector<std::string> ids;
  for (const std::string& line : lines) {
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (!parsed.ok()) continue;
    const JsonValue* id = parsed->Find("id");
    EXPECT_NE(id, nullptr) << line;
    ids.push_back(id != nullptr && id->is_string() ? id->string_value()
                                                   : line);
  }
  return ids;
}

class SocketServerTest : public ::testing::Test {
 protected:
  SocketServerTest() {
    RegisterNetGateDetector();
    g_net_gate_started.store(false);
    g_net_gate_release.store(true);
    EXPECT_TRUE(catalog_
                    .Adopt("alpha", MakeSession(100, 3),
                           NetDefaults("alpha-data"))
                    .ok());
    EXPECT_TRUE(catalog_
                    .Adopt("beta", MakeSession(60, 4),
                           NetDefaults("beta-data"))
                    .ok());
    service_.emplace(&catalog_, "alpha");
  }

  static AuditSession MakeSession(size_t rows, uint64_t seed) {
    auto session = AuditSession::Create(NetTable(rows, seed), "score");
    EXPECT_TRUE(session.ok());
    return std::move(session).value();
  }

  /// Listens on an ephemeral port and starts the server.
  SocketServer& StartServer(int workers = 2) {
    auto listener = TcpListener::Listen("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    server_.emplace(&service_.value(), std::move(listener).value(),
                    workers);
    server_->Start();
    return server_.value();
  }

  TcpConnection Connect() {
    auto connection = TcpConnect("127.0.0.1", server_->port());
    EXPECT_TRUE(connection.ok()) << connection.status().ToString();
    return connection.ok() ? std::move(connection).value()
                           : TcpConnection();
  }

  SessionCatalog catalog_;
  std::optional<JsonlService> service_;
  std::optional<SocketServer> server_;
};

TEST_F(SocketServerTest, ConcurrentClientsGetOrderedResponses) {
  SocketServer& server = StartServer(4);

  constexpr int kClients = 4;
  constexpr int kRequests = 12;
  std::vector<std::vector<std::string>> ids(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Each client interleaves both sessions: per-request routing
        // to "beta", context routing via `use`, and the default.
        std::string script;
        std::vector<std::string> expected;
        for (int i = 0; i < kRequests; ++i) {
          const std::string id =
              "c" + std::to_string(c) + "-" + std::to_string(i);
          if (i % 3 == 0) {
            script += R"({"op":"stats","id":")" + id + R"("})" "\n";
          } else if (i % 3 == 1) {
            script += R"({"op":"stats","id":")" + id +
                      R"(","session":"beta"})" "\n";
          } else {
            script += R"({"op":"verify","id":")" + id +
                      R"(","measure":"global","lower":0.3,)"
                      R"("group":{"gender":"F"}})" "\n";
          }
          expected.push_back(id);
        }
        auto connected = TcpConnect("127.0.0.1", server.port());
        ASSERT_TRUE(connected.ok()) << connected.status().ToString();
        TcpConnection connection = std::move(connected).value();
        ASSERT_TRUE(connection.SendAll(script).ok());
        connection.ShutdownWrite();
        ids[c] = IdsOf(ReadAllLines(connection));
        // Per-connection responses arrive in input order.
        EXPECT_EQ(ids[c], expected);
      });
    }
    for (std::thread& client : clients) client.join();
  }
  server.RequestShutdown();
  server.Wait();
  EXPECT_EQ(server.connections_accepted(), static_cast<size_t>(kClients));
}

TEST_F(SocketServerTest, FramingSkipsBlanksAndServesTrailingPartialLine) {
  SocketServer& server = StartServer();
  TcpConnection connection = Connect();
  ASSERT_TRUE(connection.valid());
  // CRLF endings, whitespace-only lines, an empty line, and a final
  // request with NO trailing newline: exactly three responses.
  const std::string script =
      "{\"op\":\"stats\",\"id\":\"one\"}\r\n"
      "   \t\r\n"
      "\n"
      "{\"op\":\"stats\",\"id\":\"two\"}\n"
      "{\"op\":\"stats\",\"id\":\"three\"}";
  ASSERT_TRUE(connection.SendAll(script).ok());
  connection.ShutdownWrite();
  auto lines = ReadAllLines(connection);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(IdsOf(lines),
            (std::vector<std::string>{"one", "two", "three"}));
  // Responses parse despite the request's CR (stripped as blank-ish
  // trailing whitespace inside the JSON parser's tolerance).
  server.RequestShutdown();
  server.Wait();
}

TEST_F(SocketServerTest, CloseDuringInFlightRequestIsSafe) {
  SocketServer& server = StartServer(2);

  g_net_gate_release.store(false, std::memory_order_release);
  TcpConnection blocked = Connect();
  ASSERT_TRUE(blocked.valid());
  ASSERT_TRUE(
      blocked
          .SendAll("{\"op\":\"detect\",\"detector\":\"TestNetGateDetector\","
                   "\"session\":\"beta\",\"lower\":0.3,\"id\":\"slow\"}\n")
          .ok());
  AwaitGateStarted();

  // A second client closes the session the blocked request is running
  // against: the request's shared_ptr holder must keep it alive.
  {
    TcpConnection closer = Connect();
    ASSERT_TRUE(closer.valid());
    ASSERT_TRUE(
        closer.SendAll("{\"op\":\"close\",\"name\":\"beta\",\"id\":\"x\"}\n")
            .ok());
    closer.ShutdownWrite();
    auto lines = ReadAllLines(closer);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  }
  EXPECT_EQ(catalog_.Find("beta"), nullptr);

  g_net_gate_release.store(true, std::memory_order_release);
  blocked.ShutdownWrite();
  auto lines = ReadAllLines(blocked);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"id\":\"slow\""), std::string::npos);
  // New requests see the close.
  {
    TcpConnection after = Connect();
    ASSERT_TRUE(after.valid());
    ASSERT_TRUE(
        after.SendAll("{\"op\":\"stats\",\"session\":\"beta\",\"id\":\"y\"}\n")
            .ok());
    after.ShutdownWrite();
    auto after_lines = ReadAllLines(after);
    ASSERT_EQ(after_lines.size(), 1u);
    EXPECT_NE(after_lines[0].find("NOT_FOUND"), std::string::npos)
        << after_lines[0];
  }
  server.RequestShutdown();
  server.Wait();
}

TEST_F(SocketServerTest, ShutdownDrainsInFlightRequests) {
  SocketServer& server = StartServer(2);

  g_net_gate_release.store(false, std::memory_order_release);
  TcpConnection connection = Connect();
  ASSERT_TRUE(connection.valid());
  // The slow request plus followers already admitted — all must be
  // answered by the drain even though the client never half-closes.
  ASSERT_TRUE(
      connection
          .SendAll("{\"op\":\"detect\",\"detector\":\"TestNetGateDetector\","
                   "\"lower\":0.3,\"id\":\"slow\"}\n"
                   "{\"op\":\"stats\",\"id\":\"s1\"}\n"
                   "{\"op\":\"stats\",\"id\":\"s2\"}\n")
          .ok());
  AwaitGateStarted();

  server.RequestShutdown();  // returns immediately; drain in progress
  g_net_gate_release.store(true, std::memory_order_release);
  auto lines = ReadAllLines(connection);  // server half-closes after drain
  EXPECT_EQ(IdsOf(lines),
            (std::vector<std::string>{"slow", "s1", "s2"}));
  server.Wait();
}

TEST_F(SocketServerTest, OverlongLineIsAnsweredAndSkipped) {
  SocketServer& server = StartServer();
  TcpConnection connection = Connect();
  ASSERT_TRUE(connection.valid());
  // kMaxLineBytes + 1 MiB bytes with no newline: answered with
  // RESOURCE_EXHAUSTED and dropped through the newline, after which
  // the connection keeps serving.
  const std::string chunk(size_t{1} << 20, 'x');
  for (size_t sent = 0; sent <= RequestPipeline::kMaxLineBytes;
       sent += chunk.size()) {
    ASSERT_TRUE(connection.SendAll(chunk).ok());
  }
  ASSERT_TRUE(
      connection.SendAll("\n{\"op\":\"stats\",\"id\":\"after\"}\n").ok());
  connection.ShutdownWrite();
  auto lines = ReadAllLines(connection);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\":null"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("RESOURCE_EXHAUSTED"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"id\":\"after\""), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
  server.RequestShutdown();
  server.Wait();
}

#ifdef __linux__
/// Mappings in this process; every unjoined exited thread keeps its
/// stack (and guard page) mapped.
size_t MappedRegions() {
  std::ifstream maps("/proc/self/maps");
  return static_cast<size_t>(std::count(std::istreambuf_iterator<char>(maps),
                                        std::istreambuf_iterator<char>(),
                                        '\n'));
}

TEST_F(SocketServerTest, FinishedConnectionsAreReaped) {
  SocketServer& server = StartServer();
  const auto one_request = [this] {
    TcpConnection connection = Connect();
    ASSERT_TRUE(connection.valid());
    ASSERT_TRUE(connection.SendAll("{\"op\":\"stats\",\"id\":1}\n").ok());
    connection.ShutdownWrite();
    ASSERT_EQ(ReadAllLines(connection).size(), 1u);
  };
  // Warm up the allocator's arenas and the thread-stack cache.
  for (int i = 0; i < 50; ++i) one_request();
  const size_t before = MappedRegions();
  for (int i = 0; i < 2000; ++i) one_request();
  EXPECT_LE(MappedRegions(), before + 32);
  server.RequestShutdown();
  server.Wait();
  EXPECT_EQ(server.connections_accepted(), 2050u);
}
#endif

TEST_F(SocketServerTest, ClientVanishingMidResponseDoesNotWedgeShutdown) {
  SocketServer& server = StartServer();
  {
    TcpConnection connection = Connect();
    ASSERT_TRUE(connection.valid());
    ASSERT_TRUE(
        connection.SendAll("{\"op\":\"stats\",\"id\":\"gone\"}\n").ok());
    // Drop the connection without reading the response.
  }
  // The reader must notice the dead peer and exit; shutdown completes.
  server.RequestShutdown();
  server.Wait();
}

}  // namespace
}  // namespace fairtopk