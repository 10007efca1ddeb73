// CSV ingestion and export.
//
// The paper's evaluation datasets (COMPAS, Student Performance, German
// Credit) ship as CSV files; this loader lets users run the detection
// pipeline on the real files. Type inference mirrors common practice:
// a column whose every non-empty field parses as a finite number is
// numeric, everything else is categorical with the observed active
// domain, its labels in order of first appearance.
//
// The reader loads the whole input into one buffer and scans it twice,
// allocating nothing per record. The first scan splits fields, checks
// each record's field count and infers the column types; the second
// codes each categorical field through one hash map per column and
// parses each numeric field, into columns reserved to the row count,
// which become the table whole (Table::FromColumns). A column refuses
// its 32,768th distinct label at once (codes are int16_t), so a
// unique-id column fails within one pass. Records never span lines: a
// quoted field ends at its line's end.
#ifndef FAIRTOPK_RELATION_CSV_H_
#define FAIRTOPK_RELATION_CSV_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/table.h"

namespace fairtopk {

/// Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Columns forced to categorical even if all values parse as numbers
  /// (e.g. bucketized codes stored as integers).
  std::vector<std::string> force_categorical;
  /// Columns to drop entirely (ids, names, free text).
  std::vector<std::string> drop;
};

/// Parses one CSV record, honoring double-quote quoting ("" escapes a
/// quote inside a quoted field); an unquoted '\r' is dropped. The
/// reader splits every record by these rules (with the same splitter,
/// minus the allocations); exposed so tests can pin them.
std::vector<std::string> ParseCsvRecord(const std::string& line,
                                        char delimiter);

/// Diagnostics from one CSV parse, for callers that need to explain
/// the inferred schema — e.g. "why is this column categorical?". Line
/// numbers are 1-based positions in the source stream (blank lines
/// count, so they match what an editor shows).
struct CsvParseInfo {
  /// One per inferred-categorical column: the first field that failed
  /// numeric parsing, with its location.
  struct NonNumericField {
    std::string column;
    std::string value;
    size_t line = 0;
  };
  std::vector<NonNumericField> non_numeric;

  /// The entry for `column`, or nullptr if it stayed numeric (or was
  /// forced categorical without a failing field).
  const NonNumericField* FindNonNumeric(const std::string& column) const;
};

/// Reads a table from a CSV stream. Columns are typed by inference
/// (see file comment) and categorical domains are built from the data
/// in order of first appearance. Parse errors cite the 1-based source
/// line. `info`, when non-null, receives the parse diagnostics.
Result<Table> ReadCsv(std::istream& in, const CsvOptions& options,
                      CsvParseInfo* info = nullptr);

/// Reads a table from a CSV file on disk.
Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options,
                          CsvParseInfo* info = nullptr);

/// Writes `table` as CSV (header row + one record per tuple).
/// Categorical cells are written as their labels.
Status WriteCsv(const Table& table, std::ostream& out, char delimiter = ',');

/// Writes `table` to a CSV file on disk.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter = ',');

}  // namespace fairtopk

#endif  // FAIRTOPK_RELATION_CSV_H_
