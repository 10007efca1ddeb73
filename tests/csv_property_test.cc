// ReadCsv against a reference on random CSV text. The reference is the
// record-of-strings loader the one-buffer reader replaced: each line
// split into a vector of strings, types inferred column by column,
// domains built by linear search, the table rebuilt row by row through
// AppendRow, and numbers parsed by strtod alone. Both must agree on
// everything a caller can see: the schema, label order, codes, values
// (bit for bit), CsvParseInfo, and on bad input the status code and
// message.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "relation/csv.h"

namespace fairtopk {
namespace {

// ---------------------------------------------------------------------
// The reference loader.
// ---------------------------------------------------------------------

std::vector<std::string> ReferenceParseRecord(const std::string& line,
                                              char delimiter) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

std::optional<double> ReferenceParseDouble(std::string_view input) {
  input = Trim(input);
  if (input.empty()) return std::nullopt;
  std::string copy(input);
  char* end = nullptr;
  double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

Result<Table> ReferenceReadCsv(std::istream& in, const CsvOptions& options,
                               CsvParseInfo* info) {
  std::vector<std::vector<std::string>> records;
  std::vector<size_t> record_lines;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (Trim(line).empty()) continue;
    records.push_back(ReferenceParseRecord(line, options.delimiter));
    record_lines.push_back(line_number);
  }
  if (records.empty()) {
    return Status::InvalidArgument("CSV input contains no records");
  }

  std::vector<std::string> header;
  size_t first_data = 0;
  if (options.has_header) {
    for (auto& h : records[0]) header.push_back(std::string(Trim(h)));
    first_data = 1;
  } else {
    for (size_t i = 0; i < records[0].size(); ++i) {
      header.push_back("col" + std::to_string(i));
    }
  }
  const size_t num_cols = header.size();
  if (first_data >= records.size()) {
    return Status::InvalidArgument("CSV input has a header but no data");
  }
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != num_cols) {
      return Status::InvalidArgument(
          "CSV line " + std::to_string(record_lines[r]) + " has " +
          std::to_string(records[r].size()) + " fields, expected " +
          std::to_string(num_cols) +
          (options.has_header
               ? " (header at line " + std::to_string(record_lines[0]) + ")"
               : ""));
    }
  }

  std::vector<bool> keep(num_cols, true);
  std::vector<bool> numeric(num_cols, true);
  for (size_t c = 0; c < num_cols; ++c) {
    if (Contains(options.drop, header[c])) {
      keep[c] = false;
      continue;
    }
    if (Contains(options.force_categorical, header[c])) {
      numeric[c] = false;
      continue;
    }
    for (size_t r = first_data; r < records.size(); ++r) {
      std::string_view field = Trim(records[r][c]);
      if (field.empty()) continue;
      if (!ReferenceParseDouble(field).has_value()) {
        numeric[c] = false;
        if (info != nullptr) {
          info->non_numeric.push_back(
              {header[c], std::string(field), record_lines[r]});
        }
        break;
      }
    }
  }

  Schema schema;
  std::vector<std::vector<std::string>> domains(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    if (!keep[c]) continue;
    if (numeric[c]) {
      FAIRTOPK_RETURN_IF_ERROR(schema.AddNumeric(header[c]));
    } else {
      for (size_t r = first_data; r < records.size(); ++r) {
        std::string value(Trim(records[r][c]));
        if (!Contains(domains[c], value)) domains[c].push_back(value);
      }
      FAIRTOPK_RETURN_IF_ERROR(schema.AddCategorical(header[c], domains[c]));
    }
  }

  FAIRTOPK_ASSIGN_OR_RETURN(Table table, Table::Create(std::move(schema)));
  std::vector<Cell> row;
  for (size_t r = first_data; r < records.size(); ++r) {
    row.clear();
    size_t out_col = 0;
    for (size_t c = 0; c < num_cols; ++c) {
      if (!keep[c]) continue;
      std::string value(Trim(records[r][c]));
      if (numeric[c]) {
        row.push_back(Cell::Value(ReferenceParseDouble(value).value_or(0.0)));
      } else {
        auto code = table.schema().CodeOf(out_col, value);
        if (!code.has_value()) {
          return Status::Internal("domain construction missed value '" +
                                  value + "' in column '" + header[c] + "'");
        }
        row.push_back(Cell::Code(*code));
      }
      ++out_col;
    }
    FAIRTOPK_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

// ---------------------------------------------------------------------
// Random CSV text.
// ---------------------------------------------------------------------

const char* const kNames[] = {"a", "b", " c ", "d", "score", "a"};
// Numbers that parse, some only by strtod's fallback ('+', hex, out of
// range toward zero), and text that does not parse as a finite number.
const char* const kNumbers[] = {
    "0",    "1",     "-2",     "3.25", " 7 ",      "1e3",   "-1.5e-2",
    "+1.5", "0x1A",  "0x1p3",  "1.",   ".5",       "007",   "1e-400",
    "4.9e-324",      "\"12\"", "123456789012345678901234567890"};
const char* const kNonNumbers[] = {"nan", "inf", "-inf", "1e400", "1e",
                                   "\t8\t", "--1", "1,5"};
const char* const kLabels[] = {
    "x",         "y",       "z w",       " padded ", "\"p,q\"",
    "\"say \"\"hi\"\"\"", "ab\"c,d\"e", "\"open",  "r\rs",     "\"\"",
    "N/A",       "x\r",     "\"x\r\"",   "t;u"};

std::string RandomField(Rng& rng, bool numeric_column) {
  const uint64_t roll = rng.UniformUint64(40);
  if (roll < 3) return "";
  if (roll < 5) return "  ";
  if (roll == 5) return kNonNumbers[rng.UniformUint64(std::size(kNonNumbers))];
  if (numeric_column || roll < 12) {
    return kNumbers[rng.UniformUint64(std::size(kNumbers))];
  }
  return kLabels[rng.UniformUint64(std::size(kLabels))];
}

struct Case {
  std::string text;
  CsvOptions options;
};

Case RandomCase(Rng& rng) {
  Case out;
  const char delimiters[] = {',', ',', ',', ';', '\t'};
  out.options.delimiter = delimiters[rng.UniformUint64(std::size(delimiters))];
  out.options.has_header = !rng.Bernoulli(0.25);
  const size_t cols = 1 + rng.UniformUint64(5);
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) {
    names.push_back(rng.Bernoulli(0.9) ? "col" + std::to_string(c)
                                       : kNames[rng.UniformUint64(std::size(kNames))]);
  }
  // drop / force_categorical name header fields, generated names (for
  // headerless input) and names no column has.
  for (const char* name : {"col0", "col1", "col2", "a", " c ", "c", "zz"}) {
    if (rng.Bernoulli(0.15)) out.options.drop.push_back(name);
    if (rng.Bernoulli(0.2)) out.options.force_categorical.push_back(name);
  }
  std::vector<bool> numeric_column(cols);
  for (size_t c = 0; c < cols; ++c) numeric_column[c] = rng.Bernoulli(0.5);

  const char* const blanks[] = {"", "   ", "\t", "\r", " \r "};
  const char* const endings[] = {"\n", "\n", "\n", "\r\n"};
  auto join = [&](const std::vector<std::string>& fields) {
    std::string line;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) line.push_back(out.options.delimiter);
      line += fields[i];
    }
    return line;
  };
  std::vector<std::string> lines;
  if (out.options.has_header) lines.push_back(join(names));
  const size_t rows = rng.UniformUint64(12);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.1)) lines.push_back(blanks[rng.UniformUint64(5)]);
    size_t width = cols;
    if (rng.Bernoulli(0.03)) width = cols + 1;
    if (rng.Bernoulli(0.03) && cols > 1) width = cols - 1;
    std::vector<std::string> fields;
    for (size_t c = 0; c < width; ++c) {
      fields.push_back(RandomField(rng, c < cols && numeric_column[c]));
    }
    lines.push_back(join(fields));
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    out.text += lines[i];
    const bool last = i + 1 == lines.size();
    if (!last || rng.Bernoulli(0.7)) {
      out.text += endings[rng.UniformUint64(std::size(endings))];
    }
  }
  if (rng.Bernoulli(0.05)) out.text += blanks[rng.UniformUint64(5)];
  return out;
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

void ExpectSameTables(const Table& want, const Table& got) {
  ASSERT_EQ(want.num_attributes(), got.num_attributes());
  ASSERT_EQ(want.num_rows(), got.num_rows());
  for (size_t c = 0; c < want.num_attributes(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const AttributeSchema& w = want.schema().attribute(c);
    const AttributeSchema& g = got.schema().attribute(c);
    EXPECT_EQ(w.name, g.name);
    ASSERT_EQ(w.type, g.type);
    EXPECT_EQ(w.labels, g.labels);
    EXPECT_EQ(want.column(c).codes(), got.column(c).codes());
    // Bitwise, so a zero's sign shows.
    const std::vector<double>& wv = want.column(c).values();
    const std::vector<double>& gv = got.column(c).values();
    ASSERT_EQ(wv.size(), gv.size());
    for (size_t r = 0; r < wv.size(); ++r) {
      EXPECT_EQ(std::memcmp(&wv[r], &gv[r], sizeof(double)), 0) << "row " << r;
    }
  }
}

void ExpectSameInfo(const CsvParseInfo& want, const CsvParseInfo& got) {
  ASSERT_EQ(want.non_numeric.size(), got.non_numeric.size());
  for (size_t i = 0; i < want.non_numeric.size(); ++i) {
    EXPECT_EQ(want.non_numeric[i].column, got.non_numeric[i].column);
    EXPECT_EQ(want.non_numeric[i].value, got.non_numeric[i].value);
    EXPECT_EQ(want.non_numeric[i].line, got.non_numeric[i].line);
  }
}

std::string Describe(const Case& c) {
  std::string escaped;
  for (char ch : c.text) {
    if (ch == '\n') escaped += "\\n";
    else if (ch == '\r') escaped += "\\r";
    else if (ch == '\t') escaped += "\\t";
    else escaped.push_back(ch);
  }
  return "delimiter '" + std::string(1, c.options.delimiter) + "' header " +
         (c.options.has_header ? "yes" : "no") + " text \"" + escaped + "\"";
}

TEST(CsvPropertyTest, ReadCsvMatchesTheReferenceLoader) {
  Rng rng(0xC5F);
  const std::string path = ::testing::TempDir() + "/csv_property_case.csv";
  size_t loaded = 0;
  size_t numeric = 0;
  size_t categorical = 0;
  for (int i = 0; i < 3000; ++i) {
    const Case c = RandomCase(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + Describe(c));
    std::istringstream want_in(c.text);
    CsvParseInfo want_info;
    Result<Table> want = ReferenceReadCsv(want_in, c.options, &want_info);

    // Every fourth case goes through a file, so both entry points run.
    CsvParseInfo got_info;
    Result<Table> got = Status::Internal("unset");
    if (i % 4 == 0) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << c.text;
      out.close();
      got = ReadCsvFile(path, c.options, &got_info);
    } else {
      std::istringstream in(c.text);
      got = ReadCsv(in, c.options, &got_info);
    }

    ASSERT_EQ(want.ok(), got.ok()) << "reference: "
                                   << want.status().ToString()
                                   << " reader: " << got.status().ToString();
    ExpectSameInfo(want_info, got_info);
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code());
      EXPECT_EQ(want.status().message(), got.status().message());
      continue;
    }
    ++loaded;
    for (const AttributeSchema& attr : got->schema().attributes()) {
      ++(attr.type == AttributeType::kNumeric ? numeric : categorical);
    }
    ExpectSameTables(*want, *got);
  }
  // The generator must reach every outcome often.
  EXPECT_GT(loaded, 1000u);
  EXPECT_LT(loaded, 2900u);
  EXPECT_GT(numeric, 1000u);
  EXPECT_GT(categorical, 1000u);
}

TEST(CsvPropertyTest, ParseCsvRecordMatchesTheReferenceSplitter) {
  Rng rng(0x5B117);
  const char alphabet[] = {'a', 'b', ',', ';', '"', '"', '\r', ' ', '\n'};
  for (int i = 0; i < 20000; ++i) {
    const char delimiter = rng.Bernoulli(0.8) ? ',' : alphabet[rng.UniformUint64(9)];
    std::string line;
    const size_t length = rng.UniformUint64(16);
    for (size_t k = 0; k < length; ++k) {
      line.push_back(alphabet[rng.UniformUint64(std::size(alphabet))]);
    }
    SCOPED_TRACE("delimiter " + std::to_string(delimiter) + " line '" + line +
                 "'");
    EXPECT_EQ(ParseCsvRecord(line, delimiter),
              ReferenceParseRecord(line, delimiter));
  }
}

TEST(CsvPropertyTest, ParseDoubleMatchesStrtod) {
  for (const char* text : kNumbers) {
    SCOPED_TRACE(text);
    EXPECT_EQ(ParseDouble(text), ReferenceParseDouble(text));
  }
  for (const char* text : kNonNumbers) {
    SCOPED_TRACE(text);
    EXPECT_EQ(ParseDouble(text), ReferenceParseDouble(text));
  }
  Rng rng(0xD0);
  const char alphabet[] = {'0', '1', '9', '.', 'e', 'E', '-', '+',
                           'x', 'p', 'a', 'n', 'i', 'f', ' '};
  for (int i = 0; i < 50000; ++i) {
    std::string text;
    const size_t length = 1 + rng.UniformUint64(10);
    for (size_t k = 0; k < length; ++k) {
      text.push_back(alphabet[rng.UniformUint64(std::size(alphabet))]);
    }
    SCOPED_TRACE(text);
    const std::optional<double> want = ReferenceParseDouble(text);
    const std::optional<double> got = ParseDouble(text);
    ASSERT_EQ(want.has_value(), got.has_value());
    if (want.has_value()) {
      EXPECT_EQ(std::memcmp(&*want, &*got, sizeof(double)), 0);
    }
  }
}

}  // namespace
}  // namespace fairtopk
