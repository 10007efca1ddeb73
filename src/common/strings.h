// Small string helpers shared across modules (CSV parsing, report
// formatting). Kept dependency-free.
#ifndef FAIRTOPK_COMMON_STRINGS_H_
#define FAIRTOPK_COMMON_STRINGS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fairtopk {

/// Splits `input` on `delim`, keeping empty fields. "a,,b" -> {a, "", b}.
std::vector<std::string> Split(std::string_view input, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Parses a base-10 signed integer; rejects trailing garbage.
std::optional<long long> ParseInt(std::string_view input);

/// Parses a finite floating-point number; rejects trailing garbage,
/// "nan", "inf" and literals out of double's range.
std::optional<double> ParseDouble(std::string_view input);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

}  // namespace fairtopk

#endif  // FAIRTOPK_COMMON_STRINGS_H_
