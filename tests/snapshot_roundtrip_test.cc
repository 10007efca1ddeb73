// Round-trip tests for the snapshot format (src/storage/): a session
// saved and re-opened must be indistinguishable from the original:
// bit-identical rankings, scores and index (rebuilt at open from the
// stored columns and ranking), and detection results (patterns AND
// work counters) for every registered detector, across maintenance
// (updates + appends) before the save.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/audit.h"
#include "api/canonical.h"
#include "common/rng.h"
#include "relation/table.h"
#include "service/audit_session.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace fairtopk {
namespace {

/// A mixed table: two categorical pattern attributes plus the numeric
/// ranking column, deterministic in `seed`.
Table MixedTable(size_t rows, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("gender", {"F", "M", "X"}).ok());
  EXPECT_TRUE(schema.AddCategorical("region", {"N", "S", "E", "W"}).ok());
  EXPECT_TRUE(schema.AddNumeric("score").ok());
  auto table = Table::Create(std::move(schema));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    ->AppendRow({Cell::Code(static_cast<int16_t>(
                                     rng.UniformUint64(3))),
                                 Cell::Code(static_cast<int16_t>(
                                     rng.UniformUint64(4))),
                                 Cell::Value(rng.Gaussian() * 25.0)})
                    .ok());
  }
  return std::move(table).value();
}

AuditSession MustCreate(size_t rows, uint64_t seed,
                        SessionOptions options = {}) {
  auto session = AuditSession::Create(MixedTable(rows, seed), "score",
                                      /*ascending=*/false, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

/// One request per registered detector, with every bound finite so the
/// upper detectors have something to report.
std::vector<api::AuditRequest> AllDetectorRequests(size_t num_rows) {
  DetectionConfig config;
  config.k_min = 5;
  config.k_max = std::min<int>(40, static_cast<int>(num_rows));
  config.size_threshold = 8;
  std::vector<api::AuditRequest> requests;
  for (const api::DetectorDescriptor& d :
       api::DetectorRegistry::Global().detectors()) {
    api::AuditRequest request;
    request.detector = d.name;
    request.config = config;
    auto bounds = api::BoundsFromJson(JsonValue::Object(), d.bounds_kind,
                                      api::BoundsDefaults{0.5, 0.8}, config);
    EXPECT_TRUE(bounds.ok()) << bounds.status().ToString();
    request.bounds = std::move(bounds).value();
    if (auto* global = std::get_if<GlobalBoundSpec>(&request.bounds)) {
      global->upper = StepFunction::Constant(30.0);
    } else {
      std::get<PropBoundSpec>(request.bounds).beta = 1.5;
    }
    requests.push_back(std::move(request));
  }
  EXPECT_EQ(requests.size(), 6u);  // the paper's six detectors
  return requests;
}

/// Every detector's results must match between the two sessions —
/// exact per-k pattern vectors and exact work counters, not just set
/// equality.
void ExpectDetectorsIdentical(AuditSession& a, AuditSession& b) {
  for (const api::AuditRequest& request :
       AllDetectorRequests(a.num_rows())) {
    auto ra = a.Detect(request);
    auto rb = b.Detect(request);
    ASSERT_TRUE(ra.ok()) << request.detector << ": "
                         << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << request.detector << ": "
                         << rb.status().ToString();
    for (int k = request.config.k_min; k <= request.config.k_max; ++k) {
      EXPECT_EQ(ra->result->AtK(k), rb->result->AtK(k))
          << request.detector << " diverges at k=" << k;
    }
    EXPECT_EQ(ra->result->stats().nodes_visited,
              rb->result->stats().nodes_visited)
        << request.detector << " did different search work";
  }
}

void ExpectStateIdentical(AuditSession& a, AuditSession& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.ranking(), b.ranking());
  ASSERT_EQ(a.scores().size(), b.scores().size());
  // Bitwise, not ==: signed zeros must survive too.
  EXPECT_EQ(std::memcmp(a.scores().data(), b.scores().data(),
                        a.scores().size() * sizeof(double)),
            0);
  ASSERT_EQ(a.space().num_attributes(), b.space().num_attributes());
  for (size_t attr = 0; attr < a.space().num_attributes(); ++attr) {
    EXPECT_EQ(a.space().name(attr), b.space().name(attr));
    EXPECT_EQ(a.space().domain_size(attr), b.space().domain_size(attr));
  }
  // The index: every rank code and every word of every value bitset.
  const BitmapIndex& ia = a.input().index();
  const BitmapIndex& ib = b.input().index();
  ASSERT_EQ(ia.num_rows(), ib.num_rows());
  for (size_t attr = 0; attr < a.space().num_attributes(); ++attr) {
    for (size_t pos = 0; pos < ia.num_rows(); ++pos) {
      ASSERT_EQ(ia.RankedCode(pos, attr), ib.RankedCode(pos, attr))
          << "attribute " << attr << ", rank position " << pos;
    }
    for (int16_t code = 0; code < a.space().domain_size(attr); ++code) {
      EXPECT_EQ(ia.ValueBitset(attr, code).words(),
                ib.ValueBitset(attr, code).words())
          << "attribute " << attr << ", code " << code;
    }
  }
}

TEST(SnapshotRoundtripTest, FreshSessionRoundtrips) {
  const std::string path =
      ::testing::TempDir() + "/snapshot_roundtrip_fresh.ftk";
  AuditSession original = MustCreate(400, 7);
  ASSERT_TRUE(original.SaveSnapshot(path).ok());
  EXPECT_EQ(original.storage_info().generation, 1u);
  EXPECT_GT(original.storage_info().snapshot_bytes, 0u);

  auto restored = AuditSession::OpenFromSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->storage_info().generation, 1u);
  ExpectStateIdentical(original, *restored);
  ExpectDetectorsIdentical(original, *restored);
}

TEST(SnapshotRoundtripTest, SurvivesMaintenanceBeforeSave) {
  const std::string path =
      ::testing::TempDir() + "/snapshot_roundtrip_mutated.ftk";
  // Threshold 1 patches the index in place, 0 rebuilds it: either way
  // the index rebuilt at open must equal it word for word.
  for (const double threshold : {1.0, 0.0}) {
    SCOPED_TRACE("rebuild_threshold " + std::to_string(threshold));
    const DetectionInput::Maintenance want =
        threshold == 1.0 ? DetectionInput::Maintenance::kPatched
                         : DetectionInput::Maintenance::kRebuilt;
    SessionOptions options;
    options.rebuild_threshold = threshold;
    AuditSession original = MustCreate(300, 11, options);

    // Disturb the state through both maintenance paths so the saved
    // state is NOT what Create() would build from the table alone:
    // updated scores diverge from the score column, appends grow the
    // index past its build size.
    Rng rng(99);
    std::vector<ScoreUpdate> updates;
    for (uint32_t row = 0; row < 60; ++row) {
      updates.push_back({row * 5, rng.Gaussian() * 40.0});
    }
    MaintenanceReport report;
    ASSERT_TRUE(original.ApplyScoreUpdates(updates, &report).ok());
    EXPECT_EQ(report.kind, want);
    std::vector<std::vector<Cell>> rows;
    for (int i = 0; i < 25; ++i) {
      rows.push_back({Cell::Code(static_cast<int16_t>(i % 3)),
                      Cell::Code(static_cast<int16_t>(i % 4)),
                      Cell::Value(rng.Gaussian() * 25.0)});
    }
    ASSERT_TRUE(original.AppendRows(rows, &report).ok());
    EXPECT_EQ(report.kind, want);

    ASSERT_TRUE(original.SaveSnapshot(path).ok());
    auto restored = AuditSession::OpenFromSnapshot(path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectStateIdentical(original, *restored);
    ExpectDetectorsIdentical(original, *restored);
  }
}

TEST(SnapshotRoundtripTest, ExplicitScoresSessionRoundtrips) {
  const std::string path =
      ::testing::TempDir() + "/snapshot_roundtrip_scores.ftk";
  Table table = MixedTable(150, 21);
  Rng rng(5);
  std::vector<double> scores;
  for (size_t i = 0; i < 150; ++i) scores.push_back(rng.Gaussian());
  auto original = AuditSession::CreateWithScores(std::move(table), scores);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  auto restored = AuditSession::OpenFromSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectStateIdentical(*original, *restored);
  // The restored session keeps the explicit-scores contract: appends
  // must go through AppendRowsWithScores.
  std::vector<std::vector<Cell>> row = {{Cell::Code(0), Cell::Code(1),
                                         Cell::Value(1.0)}};
  EXPECT_FALSE(restored->AppendRows(row).ok());
  EXPECT_TRUE(restored->AppendRowsWithScores(row, {0.25}).ok());
}

TEST(SnapshotRoundtripTest, GenerationAdvancesAcrossSaves) {
  const std::string path =
      ::testing::TempDir() + "/snapshot_roundtrip_gen.ftk";
  AuditSession session = MustCreate(80, 3);
  ASSERT_TRUE(session.SaveSnapshot(path).ok());
  ASSERT_TRUE(session.SaveSnapshot(path).ok());
  EXPECT_EQ(session.storage_info().generation, 2u);
  auto restored = AuditSession::OpenFromSnapshot(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->storage_info().generation, 2u);
  // And the default-path save remembers where it came from.
  ASSERT_TRUE(restored->SaveSnapshot().ok());
  EXPECT_EQ(restored->storage_info().generation, 3u);
  EXPECT_EQ(restored->storage_info().snapshot_path, path);
}

// Version 1 stored the index beside the columns. The format admits
// exactly one version, so a well-formed version-1 header is refused by
// every reader with kVersionMismatch.
TEST(SnapshotRoundtripTest, VersionOneIsRefused) {
  const std::string path =
      ::testing::TempDir() + "/snapshot_roundtrip_v1.ftk";
  AuditSession session = MustCreate(60, 17);
  ASSERT_TRUE(session.SaveSnapshot(path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GE(bytes.size(), storage::kHeaderBytes);
  // Header: magic[8], version u32 at offset 8, ..., CRC u32 over bytes
  // [0, 60) at offset 60.
  const uint32_t version = 1;
  std::memcpy(bytes.data() + 8, &version, sizeof version);
  const uint32_t crc = storage::Crc32(
      reinterpret_cast<const uint8_t*>(bytes.data()),
      storage::kHeaderBytes - sizeof(uint32_t));
  std::memcpy(bytes.data() + storage::kHeaderBytes - sizeof crc, &crc,
              sizeof crc);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  EXPECT_EQ(storage::ReadSnapshot(path).status().code(),
            StatusCode::kVersionMismatch);
  EXPECT_EQ(storage::ProbeSnapshot(path).status().code(),
            StatusCode::kVersionMismatch);
  EXPECT_EQ(AuditSession::OpenFromSnapshot(path).status().code(),
            StatusCode::kVersionMismatch);
}

TEST(SnapshotRoundtripTest, ProbeReportsHeaderFields) {
  const std::string path =
      ::testing::TempDir() + "/snapshot_roundtrip_probe.ftk";
  AuditSession session = MustCreate(60, 13);
  ASSERT_TRUE(session.SaveSnapshot(path).ok());
  auto info = storage::ProbeSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, storage::kSnapshotVersion);
  EXPECT_EQ(info->generation, 1u);
  EXPECT_EQ(info->file_bytes, session.storage_info().snapshot_bytes);
}

}  // namespace
}  // namespace fairtopk
