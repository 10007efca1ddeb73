#include "relation/csv.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <optional>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "common/strings.h"

namespace fairtopk {

namespace {

// Splits one record line into fields by ParseCsvRecord's rules and
// calls fn(index, field) for each. A field holding no quote and no
// unquoted '\r' is a view into `line`; any other field is decoded into
// *scratch, so a field is valid only during its call. Returns the
// number of fields.
template <typename Fn>
size_t SplitRecord(std::string_view line, char delimiter,
                   std::string* scratch, Fn&& fn) {
  const size_t n = line.size();
  size_t count = 0;
  size_t i = 0;
  for (;;) {
    const size_t start = i;
    while (i < n && line[i] != '"' && line[i] != delimiter &&
           line[i] != '\r') {
      ++i;
    }
    // The run ends the field unless a quote (which opens quoting even
    // when it is the delimiter) or a dropped '\r' needs decoding.
    if (i == n || (line[i] != '"' && line[i] == delimiter)) {
      fn(count++, line.substr(start, i - start));
    } else {
      scratch->assign(line.data() + start, i - start);
      bool in_quotes = false;
      for (; i < n; ++i) {
        const char c = line[i];
        if (in_quotes) {
          if (c != '"') {
            scratch->push_back(c);
          } else if (i + 1 < n && line[i + 1] == '"') {
            scratch->push_back('"');
            ++i;
          } else {
            in_quotes = false;
          }
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == delimiter) {
          break;
        } else if (c != '\r') {
          scratch->push_back(c);
        }
      }
      fn(count++, std::string_view(*scratch));
    }
    if (i == n) return count;
    ++i;  // past the delimiter
  }
}

// Calls fn(line, line_number) for each record line of `text` until fn
// returns false. Lines end at '\n', a last line without one is still a
// line, and a record never spans lines. Blank and whitespace-only
// lines are not records but are numbered, so line numbers are the
// 1-based ones an editor shows.
template <typename Fn>
void ForEachRecordLine(std::string_view text, Fn&& fn) {
  size_t line_number = 0;
  for (size_t pos = 0; pos < text.size();) {
    const void* newline =
        std::memchr(text.data() + pos, '\n', text.size() - pos);
    const size_t end = newline == nullptr
                           ? text.size()
                           : static_cast<const char*>(newline) - text.data();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    if (Trim(line).empty()) continue;
    if (!fn(line, line_number)) return;
  }
}

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

// Heterogeneous hashing, so a label map is probed with a view into the
// text and allocates only for a label it has not seen.
struct LabelHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

// The active domain of one categorical column as scan 2 builds it.
struct Domain {
  std::vector<std::string> labels;  // in order of first appearance
  std::unordered_map<std::string, int16_t, LabelHash, std::equal_to<>>
      code_of;

  // The code of `label`, which joins the domain if new. A label past
  // Schema::kMaxDomainSize gets no code; it still joins `labels`, so
  // the schema refuses the domain with its own message.
  std::optional<int16_t> Code(std::string_view label) {
    auto it = code_of.find(label);
    if (it != code_of.end()) return it->second;
    labels.emplace_back(label);
    if (labels.size() > Schema::kMaxDomainSize) return std::nullopt;
    const auto code = static_cast<int16_t>(labels.size() - 1);
    code_of.emplace(labels.back(), code);
    return code;
  }
};

enum class ColumnKind { kDropped, kCategorical, kNumeric };

// The whole CSV input `text` as a table, in two scans that allocate
// nothing per record. Scan 1 splits fields, checks each record's field
// count and infers which columns are numeric; scan 2 codes categorical
// fields through one label map per column and parses numeric fields,
// into columns reserved to the row count.
Result<Table> ParseCsvText(std::string_view text, const CsvOptions& options,
                           CsvParseInfo* info) {
  const char delimiter = options.delimiter;
  std::string scratch;

  // Scan 1. The first record names the columns (or, without a header,
  // counts them and is data too).
  std::vector<std::string> names;
  std::vector<ColumnKind> kinds;
  std::vector<std::optional<CsvParseInfo::NonNumericField>> non_numeric;
  size_t header_line = 0;
  size_t num_rows = 0;
  Status status;
  ForEachRecordLine(text, [&](std::string_view line, size_t line_number) {
    if (header_line == 0) {
      header_line = line_number;
      const size_t num_cols = SplitRecord(
          line, delimiter, &scratch, [&](size_t, std::string_view field) {
            if (options.has_header) names.emplace_back(Trim(field));
          });
      for (size_t c = 0; c < num_cols; ++c) {
        if (!options.has_header) names.push_back("col" + std::to_string(c));
        kinds.push_back(Contains(options.drop, names[c])
                            ? ColumnKind::kDropped
                        : Contains(options.force_categorical, names[c])
                            ? ColumnKind::kCategorical
                            : ColumnKind::kNumeric);
      }
      non_numeric.resize(num_cols);
      if (options.has_header) return true;
    }
    // A column is numeric iff every non-empty field parses as a finite
    // number; its first field that does not is kept for CsvParseInfo.
    const size_t fields = SplitRecord(
        line, delimiter, &scratch, [&](size_t c, std::string_view field) {
          if (c >= kinds.size() || kinds[c] != ColumnKind::kNumeric) return;
          const std::string_view value = Trim(field);
          if (value.empty() || ParseDouble(value).has_value()) return;
          kinds[c] = ColumnKind::kCategorical;
          non_numeric[c] = CsvParseInfo::NonNumericField{
              names[c], std::string(value), line_number};
        });
    if (fields != kinds.size()) {
      status = Status::InvalidArgument(
          "CSV line " + std::to_string(line_number) + " has " +
          std::to_string(fields) + " fields, expected " +
          std::to_string(kinds.size()) +
          (options.has_header
               ? " (header at line " + std::to_string(header_line) + ")"
               : ""));
      return false;
    }
    ++num_rows;
    return true;
  });
  FAIRTOPK_RETURN_IF_ERROR(status);
  if (header_line == 0) {
    return Status::InvalidArgument("CSV input contains no records");
  }
  if (num_rows == 0) {
    return Status::InvalidArgument("CSV input has a header but no data");
  }
  const size_t num_cols = kinds.size();
  if (info != nullptr) {
    for (auto& field : non_numeric) {
      if (field.has_value()) info->non_numeric.push_back(std::move(*field));
    }
  }

  // Scan 2. A column refuses its 32,768th distinct label at once: the
  // load must fail then (at that column or an earlier one), so scan 2
  // stops coding it and every later column, and stops altogether once
  // no earlier categorical column is left to code.
  std::vector<std::vector<int16_t>> codes(num_cols);
  std::vector<std::vector<double>> values(num_cols);
  std::vector<Domain> domains(num_cols);
  size_t first_categorical = num_cols;
  for (size_t c = num_cols; c-- > 0;) {
    if (kinds[c] == ColumnKind::kCategorical) {
      codes[c].reserve(num_rows);
      first_categorical = c;
    } else if (kinds[c] == ColumnKind::kNumeric) {
      values[c].reserve(num_rows);
    }
  }
  size_t live = num_cols;  // columns at or past `live` are no longer coded
  bool skip_header = options.has_header;
  ForEachRecordLine(text, [&](std::string_view line, size_t) {
    if (skip_header) {
      skip_header = false;
      return true;
    }
    SplitRecord(line, delimiter, &scratch,
                [&](size_t c, std::string_view field) {
                  if (c >= live) return;
                  if (kinds[c] == ColumnKind::kCategorical) {
                    const std::optional<int16_t> code =
                        domains[c].Code(Trim(field));
                    if (code.has_value()) {
                      codes[c].push_back(*code);
                    } else {
                      live = c;
                    }
                  } else if (kinds[c] == ColumnKind::kNumeric &&
                             live == num_cols) {
                    // Empty numeric fields become 0; scan 1 saw every
                    // other field parse.
                    values[c].push_back(ParseDouble(field).value_or(0.0));
                  }
                });
    return live == num_cols || first_categorical < live;
  });

  // The schema checks what scan 2 left undecided, column by column:
  // a duplicate name, or a domain past the int16 code space.
  Schema schema;
  std::vector<Column> columns;
  for (size_t c = 0; c < num_cols; ++c) {
    if (kinds[c] == ColumnKind::kNumeric) {
      FAIRTOPK_RETURN_IF_ERROR(schema.AddNumeric(names[c]));
      columns.push_back(Column::Numeric(std::move(values[c])));
    } else if (kinds[c] == ColumnKind::kCategorical) {
      FAIRTOPK_RETURN_IF_ERROR(
          schema.AddCategorical(names[c], std::move(domains[c].labels)));
      columns.push_back(Column::Categorical(std::move(codes[c])));
    }
  }
  return Table::FromColumns(std::move(schema), std::move(columns));
}

// Appends the rest of `in` to *text.
void AppendStream(std::istream& in, std::string* text) {
  char buffer[1 << 16];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    text->append(buffer, static_cast<size_t>(in.gcount()));
  }
}

}  // namespace

std::vector<std::string> ParseCsvRecord(const std::string& line,
                                        char delimiter) {
  std::vector<std::string> fields;
  std::string scratch;
  SplitRecord(line, delimiter, &scratch,
              [&fields](size_t, std::string_view field) {
                fields.emplace_back(field);
              });
  return fields;
}

const CsvParseInfo::NonNumericField* CsvParseInfo::FindNonNumeric(
    const std::string& column) const {
  for (const NonNumericField& f : non_numeric) {
    if (f.column == column) return &f;
  }
  return nullptr;
}

Result<Table> ReadCsv(std::istream& in, const CsvOptions& options,
                      CsvParseInfo* info) {
  std::string text;
  AppendStream(in, &text);
  return ParseCsvText(text, options, info);
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options,
                          CsvParseInfo* info) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open CSV file: " + path);
  }
  // Sized up front, so the file lands in one buffer without regrowth
  // (a pipe has no size and grows it as it goes).
  std::string text;
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  if (!error) text.reserve(size);
  AppendStream(in, &text);
  return ParseCsvText(text, options, info);
}

namespace {

std::string EscapeCsvField(const std::string& field, char delimiter) {
  bool needs_quotes =
      field.find(delimiter) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

Status WriteCsv(const Table& table, std::ostream& out, char delimiter) {
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.size(); ++c) {
    if (c > 0) out << delimiter;
    out << EscapeCsvField(schema.attribute(c).name, delimiter);
  }
  out << '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.size(); ++c) {
      if (c > 0) out << delimiter;
      out << EscapeCsvField(table.DisplayAt(r, c), delimiter);
    }
    out << '\n';
  }
  if (!out) return Status::IoError("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open CSV file for writing: " + path);
  }
  return WriteCsv(table, out, delimiter);
}

}  // namespace fairtopk
