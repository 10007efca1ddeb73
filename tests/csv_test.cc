#include "relation/csv.h"

#include <sstream>

#include <gtest/gtest.h>

namespace fairtopk {
namespace {

TEST(ParseCsvRecordTest, SplitsPlainFields) {
  EXPECT_EQ(ParseCsvRecord("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvRecordTest, HonorsQuoting) {
  EXPECT_EQ(ParseCsvRecord("\"a,b\",c", ','),
            (std::vector<std::string>{"a,b", "c"}));
}

TEST(ParseCsvRecordTest, EscapedQuoteInsideQuotedField) {
  EXPECT_EQ(ParseCsvRecord("\"say \"\"hi\"\"\",x", ','),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(ParseCsvRecordTest, StripsCarriageReturn) {
  EXPECT_EQ(ParseCsvRecord("a,b\r", ','),
            (std::vector<std::string>{"a", "b"}));
}

TEST(ParseCsvRecordTest, SupportsAlternateDelimiter) {
  EXPECT_EQ(ParseCsvRecord("a;b;c", ';'),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ReadCsvTest, InfersTypesAndDomains) {
  std::istringstream in(
      "name,age,city\n"
      "alice,30,ann arbor\n"
      "bob,25,detroit\n"
      "carol,41,ann arbor\n");
  Result<Table> table = ReadCsv(in, CsvOptions{});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 3u);
  const Schema& schema = table->schema();
  EXPECT_EQ(schema.attribute(0).type, AttributeType::kCategorical);
  EXPECT_EQ(schema.attribute(1).type, AttributeType::kNumeric);
  EXPECT_EQ(schema.attribute(2).type, AttributeType::kCategorical);
  // Domain built in order of first appearance.
  EXPECT_EQ(schema.attribute(2).labels,
            (std::vector<std::string>{"ann arbor", "detroit"}));
  EXPECT_DOUBLE_EQ(table->ValueAt(1, 1), 25.0);
  EXPECT_EQ(table->DisplayAt(2, 2), "ann arbor");
}

TEST(ReadCsvTest, ForceCategoricalOverridesInference) {
  std::istringstream in("bucket,score\n1,10\n2,20\n1,30\n");
  CsvOptions options;
  options.force_categorical = {"bucket"};
  Result<Table> table = ReadCsv(in, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).type, AttributeType::kCategorical);
  EXPECT_EQ(table->schema().attribute(0).labels,
            (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(table->schema().attribute(1).type, AttributeType::kNumeric);
}

TEST(ReadCsvTest, DropsColumns) {
  std::istringstream in("id,x\n1,a\n2,b\n");
  CsvOptions options;
  options.drop = {"id"};
  Result<Table> table = ReadCsv(in, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_attributes(), 1u);
  EXPECT_EQ(table->schema().attribute(0).name, "x");
}

TEST(ReadCsvTest, NoHeaderGeneratesColumnNames) {
  std::istringstream in("a,1\nb,2\n");
  CsvOptions options;
  options.has_header = false;
  Result<Table> table = ReadCsv(in, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).name, "col0");
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(ReadCsvTest, RejectsRaggedRecords) {
  std::istringstream in("a,b\n1,2\n3\n");
  EXPECT_EQ(ReadCsv(in, CsvOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReadCsvTest, RaggedRecordErrorCitesSourceLine) {
  // Blank lines before the bad record still count: the message must
  // point at line 5, the position an editor shows, not record 3.
  std::istringstream in("a,b\n1,2\n\n\n3\n9,9\n");
  Status status = ReadCsv(in, CsvOptions{}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("CSV line 5"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("has 1 fields, expected 2"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("header at line 1"), std::string::npos)
      << status.message();
}

TEST(ReadCsvTest, ParseInfoLocatesFirstNonNumericField) {
  // "age" would be numeric but for the "N/A" on source line 4 (line 3
  // is blank); "city" fails immediately at line 2.
  std::istringstream in("age,city\n31,paris\n\n N/A ,rome\n40,oslo\n");
  CsvParseInfo info;
  Result<Table> table = ReadCsv(in, CsvOptions{}, &info);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  const auto* age = info.FindNonNumeric("age");
  ASSERT_NE(age, nullptr);
  EXPECT_EQ(age->value, "N/A");  // trimmed
  EXPECT_EQ(age->line, 4u);

  const auto* city = info.FindNonNumeric("city");
  ASSERT_NE(city, nullptr);
  EXPECT_EQ(city->value, "paris");
  EXPECT_EQ(city->line, 2u);

  // A column that stayed numeric has no entry.
  std::istringstream clean("x\n1\n2\n");
  CsvParseInfo clean_info;
  ASSERT_TRUE(ReadCsv(clean, CsvOptions{}, &clean_info).ok());
  EXPECT_EQ(clean_info.FindNonNumeric("x"), nullptr);
}

TEST(ReadCsvTest, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_EQ(ReadCsv(in, CsvOptions{}).status().code(),
            StatusCode::kInvalidArgument);
  std::istringstream header_only("a,b\n");
  EXPECT_EQ(ReadCsv(header_only, CsvOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReadCsvTest, SkipsBlankLines) {
  std::istringstream in("a,b\n\n1,x\n\n2,y\n");
  Result<Table> table = ReadCsv(in, CsvOptions{});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(CsvRoundtripTest, WriteThenReadPreservesContent) {
  std::istringstream in(
      "grade,school\n"
      "15.5,GP\n"
      "12,MS\n"
      "8.25,GP\n");
  Result<Table> table = ReadCsv(in, CsvOptions{});
  ASSERT_TRUE(table.ok());

  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*table, out).ok());
  std::istringstream back(out.str());
  Result<Table> reread = ReadCsv(back, CsvOptions{});
  ASSERT_TRUE(reread.ok());
  ASSERT_EQ(reread->num_rows(), table->num_rows());
  for (size_t r = 0; r < table->num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(reread->ValueAt(r, 0), table->ValueAt(r, 0));
    EXPECT_EQ(reread->DisplayAt(r, 1), table->DisplayAt(r, 1));
  }
}

TEST(CsvRoundtripTest, QuotesFieldsContainingDelimiters) {
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("c", {"with,comma", "with\"quote"}).ok());
  Result<Table> table = Table::Create(std::move(schema));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table->AppendRow({Cell::Code(0)}).ok());
  ASSERT_TRUE(table->AppendRow({Cell::Code(1)}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*table, out).ok());
  std::istringstream back(out.str());
  Result<Table> reread = ReadCsv(back, CsvOptions{});
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->DisplayAt(0, 0), "with,comma");
  EXPECT_EQ(reread->DisplayAt(1, 0), "with\"quote");
}

// "name,score" with `labels` distinct names, each on two rows, in a
// scrambled first-appearance order.
std::string DistinctNamesCsv(size_t labels) {
  std::string text = "name,score\n";
  for (size_t i = 0; i < 2 * labels; ++i) {
    const size_t label = (i * 7919) % labels;
    text += "n" + std::to_string(label) + "," + std::to_string(i) + "\n";
  }
  return text;
}

TEST(ReadCsvTest, ColumnOf32767LabelsLoads) {
  std::istringstream in(DistinctNamesCsv(32767));
  Result<Table> table = ReadCsv(in, CsvOptions{});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const std::vector<std::string>& labels =
      table->schema().attribute(0).labels;
  ASSERT_EQ(labels.size(), 32767u);
  // First-appearance order, and every code maps back to its row's label.
  std::vector<bool> seen(32767, false);
  size_t next = 0;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    const std::string want = "n" + std::to_string((r * 7919) % 32767);
    ASSERT_EQ(table->DisplayAt(r, 0), want) << "row " << r;
    const size_t code = static_cast<size_t>(table->CodeAt(r, 0));
    if (!seen[code]) {
      ASSERT_EQ(code, next) << "row " << r;
      seen[code] = true;
      ++next;
    }
  }
}

TEST(ReadCsvTest, ColumnOf32768LabelsIsRefused) {
  std::istringstream in(DistinctNamesCsv(32768));
  Status status = ReadCsv(in, CsvOptions{}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "categorical domain of 'name' exceeds int16 "
                              "code space");
}

TEST(ReadCsvTest, LabelLimitAndDuplicateNamesFailInColumnOrder) {
  // "late" passes 32,767 labels only at row 62,767, long after "early"
  // did at row 32,767; the error still names the first column that
  // cannot load, as a column-by-column schema build would.
  std::string text = "late,early\n";
  for (size_t i = 0; i < 70000; ++i) {
    text += "l" + std::to_string(i < 30000 ? 0 : i) + ",e" +
            std::to_string(i) + "\n";
  }
  std::istringstream late_first(text);
  EXPECT_EQ(ReadCsv(late_first, CsvOptions{}).status().message(),
            "categorical domain of 'late' exceeds int16 code space");

  std::string names = "x,x,name\n";
  std::string name_first = "name,x,x\n";
  for (size_t i = 0; i < 32768; ++i) {
    names += "1,2,n" + std::to_string(i) + "\n";
    name_first += "n" + std::to_string(i) + ",1,2\n";
  }
  std::istringstream duplicate(names);
  Status status = ReadCsv(duplicate, CsvOptions{}).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "duplicate attribute name: x");
  std::istringstream overflow(name_first);
  EXPECT_EQ(ReadCsv(overflow, CsvOptions{}).status().message(),
            "categorical domain of 'name' exceeds int16 code space");
}

TEST(ReadCsvFileTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/file.csv", CsvOptions{})
                .status()
                .code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace fairtopk
