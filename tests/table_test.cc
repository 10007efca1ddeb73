#include "relation/table.h"

#include <gtest/gtest.h>

namespace fairtopk {
namespace {

Table MakeTable() {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("cat", {"a", "b", "c"}).ok());
  EXPECT_TRUE(schema.AddNumeric("num").ok());
  Result<Table> table = Table::Create(std::move(schema));
  EXPECT_TRUE(table.ok());
  return std::move(table).value();
}

TEST(TableTest, CreateRejectsEmptySchema) {
  EXPECT_EQ(Table::Create(Schema()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendAndRead) {
  Table table = MakeTable();
  ASSERT_TRUE(table.AppendRow({Cell::Code(1), Cell::Value(2.5)}).ok());
  ASSERT_TRUE(table.AppendRow({Cell::Code(2), Cell::Value(-1.0)}).ok());
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.CodeAt(0, 0), 1);
  EXPECT_EQ(table.CodeAt(1, 0), 2);
  EXPECT_DOUBLE_EQ(table.ValueAt(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(table.ValueAt(1, 1), -1.0);
}

TEST(TableTest, AppendRejectsWrongArity) {
  Table table = MakeTable();
  EXPECT_EQ(table.AppendRow({Cell::Code(0)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, AppendRejectsTypeMismatch) {
  Table table = MakeTable();
  EXPECT_EQ(table.AppendRow({Cell::Value(1.0), Cell::Value(2.0)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.AppendRow({Cell::Code(0), Cell::Code(0)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendRejectsOutOfDomainCode) {
  Table table = MakeTable();
  EXPECT_EQ(table.AppendRow({Cell::Code(3), Cell::Value(0.0)}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(table.AppendRow({Cell::Code(-1), Cell::Value(0.0)}).code(),
            StatusCode::kOutOfRange);
}

TEST(TableTest, FailedAppendLeavesTableUnchanged) {
  Table table = MakeTable();
  ASSERT_TRUE(table.AppendRow({Cell::Code(0), Cell::Value(1.0)}).ok());
  EXPECT_FALSE(table.AppendRow({Cell::Code(9), Cell::Value(1.0)}).ok());
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.column(0).size(), 1u);
  EXPECT_EQ(table.column(1).size(), 1u);
}

TEST(TableTest, DisplayAtRendersLabelsAndNumbers) {
  Table table = MakeTable();
  ASSERT_TRUE(table.AppendRow({Cell::Code(2), Cell::Value(1.5)}).ok());
  EXPECT_EQ(table.DisplayAt(0, 0), "c");
  EXPECT_EQ(table.DisplayAt(0, 1), "1.5000");
}

Schema CatNumSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddCategorical("cat", {"a", "b", "c"}).ok());
  EXPECT_TRUE(schema.AddNumeric("num").ok());
  return schema;
}

TEST(TableFromColumnsTest, BuildsTheTableAppendRowWouldBuild) {
  Result<Table> built = Table::FromColumns(
      CatNumSchema(), {Column::Categorical({1, 2, 0}),
                       Column::Numeric({2.5, -1.0, 0.0})});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Table appended = MakeTable();
  ASSERT_TRUE(appended.AppendRow({Cell::Code(1), Cell::Value(2.5)}).ok());
  ASSERT_TRUE(appended.AppendRow({Cell::Code(2), Cell::Value(-1.0)}).ok());
  ASSERT_TRUE(appended.AppendRow({Cell::Code(0), Cell::Value(0.0)}).ok());
  EXPECT_EQ(built->num_rows(), 3u);
  EXPECT_EQ(built->column(0).codes(), appended.column(0).codes());
  EXPECT_EQ(built->column(1).values(), appended.column(1).values());
  EXPECT_EQ(built->DisplayAt(1, 0), "c");
}

TEST(TableFromColumnsTest, RefusesAKindThatDisagreesWithTheSchema) {
  EXPECT_EQ(Table::FromColumns(CatNumSchema(), {Column::Numeric({1.0}),
                                                Column::Numeric({2.0})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Table::FromColumns(CatNumSchema(), {Column::Categorical({0}),
                                                Column::Categorical({0})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(TableFromColumnsTest, RefusesColumnsOfUnequalLength) {
  EXPECT_EQ(Table::FromColumns(CatNumSchema(), {Column::Categorical({0, 1}),
                                                Column::Numeric({2.0})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(TableFromColumnsTest, RefusesAColumnCountThatDisagreesWithTheSchema) {
  EXPECT_EQ(Table::FromColumns(CatNumSchema(), {Column::Categorical({0})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Table::FromColumns(Schema(), {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableFromColumnsTest, RefusesCodesOutsideTheDomain) {
  for (int16_t bad : {int16_t{3}, int16_t{-1}}) {
    SCOPED_TRACE("code " + std::to_string(bad));
    EXPECT_EQ(Table::FromColumns(CatNumSchema(),
                                 {Column::Categorical({0, bad}),
                                  Column::Numeric({1.0, 2.0})})
                  .status()
                  .code(),
              StatusCode::kOutOfRange);
  }
}

}  // namespace
}  // namespace fairtopk
