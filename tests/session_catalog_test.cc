// Unit + concurrency tests for the named-session registry
// (src/service/session_catalog.h): open/adopt/close/list semantics and
// the lifetime contract that a handle resolved before Close() keeps
// its session usable while the catalog forgets the name.
#include "service/session_catalog.h"

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relation/table.h"

namespace fairtopk {
namespace {

Table CatalogTable(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("gender", {"F", "M"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        table
            ->AppendRow({Cell::Code(static_cast<int16_t>(
                             rng.UniformUint64(2))),
                         Cell::Value(rng.Gaussian() * 10.0)})
            .ok());
  }
  return std::move(table).value();
}

AuditSession MakeSession(size_t rows, uint64_t seed) {
  auto session = AuditSession::Create(CatalogTable(rows, seed), "score");
  EXPECT_TRUE(session.ok());
  return std::move(session).value();
}

ServeDefaults Defaults(const std::string& dataset) {
  ServeDefaults defaults;
  defaults.dataset = dataset;
  defaults.config = DetectionConfig{5, 20, 5};
  return defaults;
}

TEST(SessionCatalogTest, AdoptFindListClose) {
  SessionCatalog catalog;
  EXPECT_EQ(catalog.size(), 0u);
  ASSERT_TRUE(catalog.Adopt("b", MakeSession(40, 1), Defaults("bb")).ok());
  ASSERT_TRUE(catalog.Adopt("a", MakeSession(30, 2), Defaults("aa")).ok());
  EXPECT_EQ(catalog.size(), 2u);

  auto entry = catalog.Find("a");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->session.num_rows(), 30u);
  EXPECT_EQ(entry->defaults.dataset, "aa");
  EXPECT_EQ(catalog.Find("c"), nullptr);

  // List() is name-ordered (a std::map snapshot), not insertion-ordered.
  auto infos = catalog.List();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "a");
  EXPECT_EQ(infos[0].num_rows, 30u);
  EXPECT_EQ(infos[1].name, "b");
  EXPECT_EQ(infos[1].dataset, "bb");

  EXPECT_TRUE(catalog.Close("a").ok());
  EXPECT_EQ(catalog.Find("a"), nullptr);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_FALSE(catalog.Close("a").ok());

  // Names reject duplicates and the empty string.
  EXPECT_FALSE(catalog.Adopt("b", MakeSession(10, 3), Defaults("x")).ok());
  EXPECT_FALSE(catalog.Adopt("", MakeSession(10, 4), Defaults("x")).ok());
}

TEST(SessionCatalogTest, OpenLoadsCsvFromDisk) {
  const std::string csv_path =
      ::testing::TempDir() + "/session_catalog_open.csv";
  {
    std::ofstream csv(csv_path);
    csv << "gender,score\n";
    for (int i = 0; i < 12; ++i) {
      csv << (i % 2 == 0 ? "F" : "M") << ',' << (50 + i) << '\n';
    }
  }
  SessionCatalog catalog;
  SessionSpec spec;
  spec.csv = csv_path;
  spec.rank_by = "score";
  ASSERT_TRUE(catalog.Open("disk", spec).ok());
  auto entry = catalog.Find("disk");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->session.num_rows(), 12u);
  // The dataset label is the file name, not the path as given.
  EXPECT_EQ(entry->defaults.dataset, "session_catalog_open.csv");

  // Failure paths claim no name.
  spec.csv = "/no/such/file.csv";
  EXPECT_FALSE(catalog.Open("ghost", spec).ok());
  EXPECT_EQ(catalog.Find("ghost"), nullptr);
  spec.csv = csv_path;
  spec.rank_by = "nope";
  EXPECT_FALSE(catalog.Open("ghost", spec).ok());
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(SessionCatalogTest, CloseKeepsResolvedHandlesAlive) {
  SessionCatalog catalog;
  ASSERT_TRUE(catalog.Adopt("s", MakeSession(60, 5), Defaults("d")).ok());
  auto held = catalog.Find("s");
  ASSERT_NE(held, nullptr);

  ASSERT_TRUE(catalog.Close("s").ok());
  EXPECT_EQ(catalog.Find("s"), nullptr);
  // The handle still owns a fully usable session: the close only
  // unlinked the name.
  EXPECT_EQ(held->session.num_rows(), 60u);
  api::AuditRequest query;
  query.detector = "PropBounds";
  query.config = DetectionConfig{5, 20, 5};
  PropBoundSpec bounds;
  bounds.alpha = 0.8;
  bounds.beta = 1.5;
  query.bounds = bounds;
  auto response = held->session.Detect(query);
  EXPECT_TRUE(response.ok()) << response.status().ToString();

  // The name is reusable immediately.
  EXPECT_TRUE(catalog.Adopt("s", MakeSession(10, 6), Defaults("d2")).ok());
  EXPECT_EQ(catalog.Find("s")->session.num_rows(), 10u);
}

// Hammer Adopt/Find/List/Close from many threads (TSan coverage for
// the shared_mutex paths): requests resolved mid-close must keep
// working against their pinned entries.
TEST(SessionCatalogTest, ConcurrentOpenCloseFindIsSafe) {
  SessionCatalog catalog;
  ASSERT_TRUE(
      catalog.Adopt("stable", MakeSession(50, 7), Defaults("d")).ok());
  constexpr int kThreads = 4;
  constexpr int kIterations = 40;
  std::atomic<int> detects_ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = "worker" + std::to_string(t);
      for (int i = 0; i < kIterations; ++i) {
        ASSERT_TRUE(catalog
                        .Adopt(mine,
                               MakeSession(20, 100 + t * kIterations + i),
                               Defaults("d"))
                        .ok());
        auto handle = catalog.Find(mine);
        ASSERT_NE(handle, nullptr);
        ASSERT_TRUE(catalog.Close(mine).ok());
        // Work the pinned session after its name is gone.
        EXPECT_EQ(handle->session.num_rows(), 20u);
        auto stable = catalog.Find("stable");
        if (stable != nullptr) {
          detects_ok.fetch_add(1, std::memory_order_relaxed);
        }
        (void)catalog.List();
        (void)catalog.size();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(detects_ok.load(), kThreads * kIterations);
  EXPECT_EQ(catalog.size(), 1u);
}

}  // namespace
}  // namespace fairtopk