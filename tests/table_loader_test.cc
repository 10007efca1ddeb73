// LoadAuditTable error reporting: when a CSV cannot back an audit
// session, the message must say exactly what is wrong and WHERE — the
// offending value, its 1-based source line, and the column — because
// these errors surface verbatim to CLI users and JSONL clients.
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/table_loader.h"

namespace fairtopk {
namespace {

std::string WriteTempCsv(const std::string& name,
                         const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << content;
  EXPECT_TRUE(out.good());
  return path;
}

TEST(TableLoaderTest, LoadsAndBucketizesCleanCsv) {
  const std::string path = WriteTempCsv(
      "loader_clean.csv", "gender,age,score\nF,30,1.5\nM,41,2.5\nF,28,0.5\n");
  auto table = LoadAuditTable(path, "score", /*bins=*/2, {});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 3u);
  // "age" is not the ranking column, so it was bucketized categorical;
  // "score" must stay numeric.
  auto age = table->schema().IndexOf("age");
  ASSERT_TRUE(age.has_value());
  EXPECT_EQ(table->schema().attribute(*age).type,
            AttributeType::kCategorical);
  auto score = table->schema().IndexOf("score");
  ASSERT_TRUE(score.has_value());
  EXPECT_EQ(table->schema().attribute(*score).type, AttributeType::kNumeric);
}

TEST(TableLoaderTest, MissingRankByColumnNamesTheFile) {
  const std::string path =
      WriteTempCsv("loader_missing.csv", "a,b\n1,2\n");
  Status status = LoadAuditTable(path, "nope", 4, {}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rank-by column 'nope' not in"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.message();
}

TEST(TableLoaderTest, NonNumericRankByCitesValueAndLine) {
  // The stray "unknown" on source line 4 (note the blank line 3) is
  // what flipped "score" to categorical — the error must say so.
  const std::string path = WriteTempCsv(
      "loader_nonnumeric.csv",
      "gender,score\nF,1.5\n\nM,unknown\nF,2.0\n");
  Status status = LoadAuditTable(path, "score", 4, {}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rank-by column 'score'"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("is not numeric"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("value 'unknown' at line 4"),
            std::string::npos)
      << status.message();
}

TEST(TableLoaderTest, NanScoreIsRefusedWithItsLine) {
  const std::string path = WriteTempCsv(
      "loader_nan_score.csv", "gender,score\nF,1.5\nM,nan\nF,2.0\n");
  Status status = LoadAuditTable(path, "score", 4, {}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("value 'nan' at line 3 is not a number"),
            std::string::npos)
      << status.message();
}

TEST(TableLoaderTest, NonFiniteCellsMakeAColumnCategorical) {
  // As with "N/A", an "inf" or "nan" cell keeps "age" from being
  // bucketized as a number: its labels are the raw cells.
  const std::string path = WriteTempCsv(
      "loader_nan_age.csv",
      "age,score\n30,1.5\nnan,2.5\n41,0.5\ninf,3.0\n");
  auto table = LoadAuditTable(path, "score", /*bins=*/2, {});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto age = table->schema().IndexOf("age");
  ASSERT_TRUE(age.has_value());
  const AttributeSchema& attr = table->schema().attribute(*age);
  EXPECT_EQ(attr.type, AttributeType::kCategorical);
  EXPECT_EQ(attr.labels,
            (std::vector<std::string>{"30", "nan", "41", "inf"}));
}

TEST(TableLoaderTest, RaggedCsvErrorKeepsLineNumber) {
  const std::string path =
      WriteTempCsv("loader_ragged.csv", "a,b\n1,2\n3,4,5\n");
  Status status = LoadAuditTable(path, "a", 4, {}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("CSV line 3"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace fairtopk
